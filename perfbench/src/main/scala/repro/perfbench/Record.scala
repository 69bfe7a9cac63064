package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.baselines.TM
import repro.core.GM
import repro.graph.GraphGen
import repro.graph.reach.{BFL, ReachOps}
import repro.perfbench.Workloads._
import repro.util.Timing

/** Prints the pinned inputs and golden counts for [[Workloads]]: each
  * graph's fingerprint, each workload's query hash, and the answer sizes of
  * the checked workloads, cross-checked between GM local, GM distributed and
  * TM (where TM finishes within the budget). Exits non-zero on disagreement.
  *
  * Usage: `Record [workload...]` (default: all). The goldens do not depend
  * on the workload seed, which only orders the queries.
  */
object Record {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder.master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench-record").config("spark.ui.enabled", false).getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    var agree = true
    for (w <- all if args.isEmpty || args.contains(w.name)) {
      println(s"== ${w.name}")
      val prepared = w.datasets.map { d =>
        val base = GraphGen.dataset(d.name, d.scale)
        println(s"""Dataset("${d.name}", ${d.scale}, ${Inputs.fingerprint(base)})""")
        val ops = ReachOps(base)
        (d, ops, BFL.build(base, ops.cond), w.queries(base))
      }
      println(s"patternsHash = ${patternsHash(prepared.flatMap(_._4))}")
      val cap = w.mode match {
        case CountMode(Long.MaxValue) => Some(Long.MaxValue)
        case AnswerMode(_) => Some(GoldenCap)
        case CountMode(_) => None // capped counts are checked against the limit
      }
      for (c <- cap.toSeq; (d, ops, bfl, qs) <- prepared; q <- qs) {
        def count(thunk: => Long) = Timing.run(spark, BudgetSec)(thunk)
        val local = count(GM.countMatches(spark, ops, q, GM.Config(limit = c, distribute = false))._1)
        val dist = count(GM.countMatches(spark, ops, q, GM.Config(limit = c))._1)
        val tm = count(TM.countMatches(spark, ops, bfl, q, c))
        val solved = Seq(local, dist, tm).collect { case s: Timing.Solved => s.rows }
        val ok = local.isInstanceOf[Timing.Solved] && solved.distinct.length == 1
        agree &&= ok
        println(s"""  ("${d.name}", "${q.name}") -> ${solved.headOption.getOrElse(-1L)}L,""" +
          s"  // local ${local.shortLabel}s, distributed ${dist.shortLabel}s, TM ${tm.shortLabel}s" +
          (if (ok) "" else s" DISAGREE: $local $dist $tm"))
      }
    }
    spark.stop()
    sys.exit(if (agree) 0 else 1)
  }
}
