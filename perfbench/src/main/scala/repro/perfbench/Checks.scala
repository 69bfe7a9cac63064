package repro.perfbench

import org.apache.spark.sql.Row
import repro.graph.Graph
import repro.graph.reach.BFL
import repro.pattern.{Direct, Pattern, Reach}

/** Result checks built only on the program's public graph API
  * (`Graph.hasEdge`, `BFL.reaches`, node labels), independent of GM.
  */
object Checks {

  /** Why `row` (columns q0..qn-1) is not an occurrence of `p` in `g`, if it
    * is not one (homomorphic semantics, paper Def. 2.6).
    */
  def rowError(g: Graph, bfl: BFL, p: Pattern, row: Row): Option[String] = {
    if (row.length != p.numNodes) return Some(s"row has ${row.length} columns, pattern ${p.numNodes} nodes")
    val t = Array.tabulate(p.numNodes)(q => row.getLong(q))
    t.indices.collectFirst {
      case q if t(q) < 0 || t(q) >= g.numNodes => s"q$q = ${t(q)} is not a node"
      case q if !g.labelId(p.labels(q)).contains(g.labels(t(q).toInt)) =>
        s"q$q = ${t(q)} has label ${g.labelNames(g.labels(t(q).toInt))}, pattern wants ${p.labels(q)}"
    }.orElse(p.edges.collectFirst {
      case e if e.kind == Direct && !g.hasEdge(t(e.from).toInt, t(e.to).toInt) =>
        s"no edge ${t(e.from)} -> ${t(e.to)} for q${e.from} -> q${e.to}"
      case e if e.kind == Reach && !bfl.reaches(t(e.from).toInt, t(e.to).toInt) =>
        s"${t(e.from)} does not reach ${t(e.to)} for q${e.from} => q${e.to}"
    })
  }

  /** First problem with a collected answer: an invalid row, a duplicate row,
    * or a row count other than `expectedRows`.
    */
  def answerError(g: Graph, bfl: BFL, p: Pattern, rows: Array[Row], expectedRows: Long): Option[String] = {
    val seen = new java.util.HashSet[Row](rows.length * 2)
    rows.iterator.map { r =>
      rowError(g, bfl, p, r).orElse(if (seen.add(r)) None else Some(s"duplicate row $r"))
    }.collectFirst { case Some(err) => err }
      .orElse(if (rows.length == expectedRows) None
              else Some(s"${rows.length} rows, expected $expectedRows"))
  }

  /** Order-independent digest of a row set, to compare two answers. */
  def digest(rows: Array[Row]): Long = {
    var sum = 0L
    var xor = 0L
    rows.foreach { r =>
      val h = scala.util.hashing.MurmurHash3.seqHash(r.toSeq).toLong
      sum += h * 0x9e3779b97f4a7c15L
      xor ^= h
    }
    sum ^ (xor << 32) ^ rows.length
  }
}
