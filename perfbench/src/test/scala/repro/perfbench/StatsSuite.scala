package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSuite extends AnyFunSuite {

  test("median of odd and even sample counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("tail is the highest percentile with ten samples beyond it") {
    val xs = (1 to 100).map(_.toDouble)
    val Some((value, pct)) = Stats.tail(xs)
    assert(value == 90.0)
    assert(pct == 90.0)
    assert(xs.count(_ > value) == 10)
  }

  test("tail keeps ten samples beyond it whatever the sample count") {
    for (n <- Seq(11, 32, 95, 120, 1000)) {
      val xs = scala.util.Random.shuffle((1 to n).map(_.toDouble))
      val Some((value, pct)) = Stats.tail(xs)
      assert(xs.count(_ > value) == 10, s"n = $n")
      assert(math.abs(pct - 100.0 * (n - 10) / n) < 1e-9)
    }
  }

  test("no tail without more than ten samples") {
    assert(Stats.tail((1 to 10).map(_.toDouble)).isEmpty)
    assert(Stats.tail(Nil).isEmpty)
  }
}
