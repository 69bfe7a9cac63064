package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Graph, GraphGen}
import repro.pattern.Templates

class InputsSuite extends AnyFunSuite {

  private val g = GraphGen.random(200, 800, 5, seed = 7)

  private def copyOf(g: Graph, labels: Array[Int] = null, edges: Iterable[(Int, Int)] = null): Graph =
    Graph.fromEdges(Option(labels).getOrElse(g.labels.clone()), g.labelNames,
      Option(edges).getOrElse(g.edgeIterator.toVector))

  test("fingerprint is a function of nodes, labels and edges") {
    assert(Inputs.fingerprint(g) == Inputs.fingerprint(copyOf(g)))
    val relabelled = g.labels.clone()
    relabelled(17) = (relabelled(17) + 1) % g.numLabels
    assert(Inputs.fingerprint(copyOf(g, labels = relabelled)) != Inputs.fingerprint(g))
    val (u, v) = g.edgeIterator.next()
    val w = (0 until g.numNodes).find(x => x != u && !g.hasEdge(u, x)).get
    val moved = g.edgeIterator.toVector.filterNot(_ == ((u, v))) :+ ((u, w))
    val f = Inputs.fingerprint(copyOf(g, edges = moved))
    assert(f.edges == g.numEdges && f != Inputs.fingerprint(g))
  }

  test("every workload's generated graphs match their pinned fingerprints") {
    for (w <- Workloads.all; d <- w.datasets)
      assert(Inputs.fingerprint(GraphGen.dataset(d.name, d.scale)) == d.fingerprint, s"${w.name} ${d.name}")
  }

  test("the copied label rule gives Templates' seed-0 instances") {
    val hu = GraphGen.dataset("hu", 1.0)
    for (id <- Templates.all.indices) {
      assert(Inputs.hQuery(id, hu) == Templates.hQuery(id, hu))
      assert(Inputs.dQuery(id, hu) == Templates.dQuery(id, hu))
    }
  }

  test("every workload's query instances match their pinned hash") {
    for (w <- Workloads.all) {
      val qs = w.datasets.flatMap(d => w.queries(GraphGen.dataset(d.name, d.scale)))
      assert(Workloads.patternsHash(qs) == w.patternsHash, w.name)
    }
  }
}
