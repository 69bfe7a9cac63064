package repro.perfbench

import repro.graph.Graph
import repro.pattern.{Pattern, Templates}

/** The benchmark's inputs, pinned in its own files so that a change to
  * `GraphGen` or `Templates` cannot silently change what is measured: graphs
  * are checked against a fingerprint, and queries are instantiated here by a
  * copy of the `Templates` label rule.
  */
object Inputs {

  /** |V|, |E| and an FNV-1a hash over node labels and the sorted edge list. */
  final case class Fingerprint(nodes: Int, edges: Long, hash: Long) {
    override def toString: String = f"V=$nodes E=$edges hash=$hash%016x"
  }

  def fingerprint(g: Graph): Fingerprint = {
    var h = 0xcbf29ce484222325L
    def mix(x: Int): Unit = {
      var i = 0
      while (i < 4) {
        h ^= (x >>> (8 * i)) & 0xff
        h *= 0x100000001b3L
        i += 1
      }
    }
    mix(g.numNodes)
    g.labelNames.foreach(n => mix(n.hashCode))
    var v = 0
    while (v < g.numNodes) { mix(g.labels(v)); v += 1 }
    v = 0
    while (v < g.numNodes) {
      var i = g.fwdOff(v)
      while (i < g.fwdOff(v + 1)) { mix(v); mix(g.fwdAdj(i)); i += 1 }
      v += 1
    }
    Fingerprint(g.numNodes, g.numEdges, h)
  }

  /** Labels of `g` by descending frequency, ties by label id (copied from
    * `Templates.frequentLabels`).
    */
  def frequentLabels(g: Graph): Array[String] = {
    val counts = new Array[Int](g.numLabels)
    g.labels.foreach(counts(_) += 1)
    counts.zipWithIndex.sortBy(-_._1).map { case (_, l) => g.labelNames(l) }
  }

  /** Template `id` with node q labelled by the `(3q mod K)`-th most frequent
    * label, K = min(|L|, max(3, n)): the rule of `Templates.instantiate` at
    * its default rotation (seed 0).
    */
  def hQuery(id: Int, g: Graph): Pattern = {
    val p = Templates.template(id)
    val freq = frequentLabels(g)
    val k = math.min(freq.length, math.max(3, p.numNodes))
    p.copy(labels = Vector.tabulate(p.numNodes)(q => freq((3 * q) % k)))
  }

  def dQuery(id: Int, g: Graph): Pattern = hQuery(id, g).toDQuery
}
