package repro.perfbench

import org.apache.spark.sql.Row
import repro.core.GM
import repro.graph.GraphGen
import repro.graph.reach.{BFL, ReachOps}
import repro.pattern.{Direct, PEdge, Pattern, Reach}

class ChecksSuite extends SparkSuite {

  private val g = GraphGen.random(60, 240, 3, seed = 11)
  private val ops = ReachOps(g)
  private val bfl = BFL.build(g, ops.cond)
  // q0 -> q1 direct, q1 => q2 reachability
  private val p = Pattern("P", Vector("l0", "l1", "l2"),
    Vector(PEdge(0, 1, Direct), PEdge(1, 2, Reach)))
  private lazy val rows = GM.answer(spark, ops, p)._1.collect()

  test("GM's rows pass the validator") {
    assert(rows.nonEmpty)
    rows.foreach(r => assert(Checks.rowError(g, bfl, p, r).isEmpty, r))
    assert(Checks.answerError(g, bfl, p, rows, rows.length).isEmpty)
  }

  test("a row with a wrong label is rejected") {
    val r = rows.head
    val wrong = (0 until g.numNodes).find(v => g.labelNames(g.labels(v)) != p.labels(0)).get
    val bad = Row(wrong.toLong, r.getLong(1), r.getLong(2))
    assert(Checks.rowError(g, bfl, p, bad).exists(_.contains("label")))
  }

  test("a row without its direct edge or path is rejected") {
    val r = rows.head
    val noEdge = (0 until g.numNodes).find(v =>
      g.labelNames(g.labels(v)) == p.labels(0) && !g.hasEdge(v, r.getLong(1).toInt))
    noEdge.foreach(v => assert(Checks.rowError(g, bfl, p, Row(v.toLong, r.getLong(1), r.getLong(2))).exists(_.contains("no edge"))))
    val noPath = (0 until g.numNodes).find(v =>
      g.labelNames(g.labels(v)) == p.labels(2) && !bfl.reaches(r.getLong(1).toInt, v))
    noPath.foreach(v => assert(Checks.rowError(g, bfl, p, Row(r.getLong(0), r.getLong(1), v.toLong)).exists(_.contains("does not reach"))))
    assert(noEdge.nonEmpty || noPath.nonEmpty)
  }

  test("duplicate rows, missing rows and out-of-range ids are rejected") {
    assert(Checks.answerError(g, bfl, p, rows :+ rows.head, rows.length + 1).exists(_.contains("duplicate")))
    assert(Checks.answerError(g, bfl, p, rows.tail, rows.length).exists(_.contains("rows, expected")))
    assert(Checks.rowError(g, bfl, p, Row(-1L, 0L, 0L)).exists(_.contains("not a node")))
  }

  test("the digest ignores row order and sees a changed row") {
    assert(Checks.digest(rows) == Checks.digest(rows.reverse))
    val r = rows.head
    val changed = Row(r.getLong(0), r.getLong(1), r.getLong(2) + 1) +: rows.tail
    assert(Checks.digest(changed) != Checks.digest(rows))
  }
}
