package repro.perfbench

/** Order statistics used by the benchmark's reports. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** The highest percentile with at least `beyond` samples above it: the
    * `(beyond + 1)`-th largest sample, reported with its percentile
    * `100 * (n - beyond) / n`. None when there are not more than `beyond`
    * samples.
    */
  def tail(xs: Seq[Double], beyond: Int = 10): Option[(Double, Double)] =
    if (xs.length <= beyond) None
    else {
      val s = xs.sorted
      val n = s.length
      Some((s(n - 1 - beyond), 100.0 * (n - beyond) / n))
    }
}
