package repro.perfbench

import repro.core.GM
import repro.graph.GraphGen
import repro.graph.reach.ReachOps
import repro.pattern.Templates

class TraceSuite extends SparkSuite {

  private val g = GraphGen.random(150, 600, 4, seed = 3)
  private val ops = ReachOps(g)
  private val queries = Seq(0, 5, 6, 9, 11, 15).flatMap(id =>
    Seq(Templates.hQuery(id, g), Templates.dQuery(id, g)))

  test("the traced chain counts what GM.countMatches counts") {
    for (q <- queries; limit <- Seq(1000000L, 50L)) {
      val (n, layers) = Trace.count(spark, ops, q, limit)
      val (expected, stats) = GM.countMatches(spark, ops, q, GM.Config(limit = limit))
      assert(n == expected, s"${q.name} limit $limit")
      assert(layers.rigEdges == stats.rigEdges && layers.rigNodes == stats.rigNodes, q.name)
      assert(layers.reachEdges + layers.directEdges == layers.rigEdges)
      assert(layers.wallS >= layers.spans.sum)
    }
  }

  test("the traced chain answers with GM.answer's rows") {
    for (q <- queries) {
      val (rows, layers) = Trace.answer(spark, ops, q, 1000)
      val expected = GM.answer(spark, ops, q, GM.Config(limit = 1000))._1.collect()
      assert(Checks.digest(rows) == Checks.digest(expected), q.name)
      assert(layers.rows == rows.length)
    }
  }

  test("traced Spark jobs are counted, untraced ones are not") {
    val counters = new Trace.SparkCounters
    spark.sparkContext.addSparkListener(counters)
    try {
      spark.sparkContext.parallelize(1 to 10, 2).count()
      spark.sparkContext.setLocalProperty(Trace.TracedProperty, "1")
      try spark.sparkContext.parallelize(1 to 10, 3).count()
      finally spark.sparkContext.setLocalProperty(Trace.TracedProperty, null)
      counters.settle()
      val Seq(jobs, tasks, _, _, bytes) = counters.snapshot
      assert(jobs == 1 && tasks == 3 && bytes > 0)
    } finally spark.sparkContext.removeSparkListener(counters)
  }
}
