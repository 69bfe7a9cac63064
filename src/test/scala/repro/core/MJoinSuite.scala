package repro.core

import repro.{BruteForce, Oracle, SeededChecks, SparkSpec}
import repro.graph.{GraphDF, GraphGen}
import repro.graph.reach.{ReachOps, TransitiveClosure}
import repro.pattern.{Direct, PEdge, Pattern, PatternSQL, Templates}
import repro.util.Timing

class MJoinSuite extends SparkSpec with SeededChecks {

  private def setup(seed: Long, n: Int = 30, e: Int = 75) = {
    val g = GraphGen.random(n, e, 3, seed)
    (g, ReachOps(g))
  }

  test("enumerate returns exactly the brute-force answer (hybrid patterns)") {
    forSeeds(30) { seed =>
      val (g, ops) = setup(seed)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 1, reachProb = 0.5, seed, "M")
      val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
      val got = scala.collection.mutable.Set.empty[Vector[Int]]
      MJoin.enumerate(rig, SearchOrder.jo(rig)) { t => got += t.toVector; true }
      assert(got.toSet == BruteForce.answer(g, p), s"seed=$seed")
    }
  }

  test("enumerate with a match-set RIG (no pruning) still yields the answer") {
    forSeeds(15) { seed =>
      val (g, ops) = setup(seed)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 1, reachProb = 0.4, seed + 500, "M")
      val rig = RIG.expand(ops, p, Simulation.matchSets(ops, p))
      val got = scala.collection.mutable.Set.empty[Vector[Int]]
      MJoin.enumerate(rig, SearchOrder.jo(rig)) { t => got += t.toVector; true }
      assert(got.toSet == BruteForce.answer(g, p), s"seed=$seed")
    }
  }

  test("limit caps the number of emitted tuples") {
    val (g, ops) = setup(4, n = 40, e = 120)
    val p = Templates.hQuery(0, g)
    val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
    val total = MJoin.enumerate(rig, SearchOrder.jo(rig))(_ => true)
    if (total > 2) {
      val limited = MJoin.enumerate(rig, SearchOrder.jo(rig), limit = 2)(_ => true)
      assert(limited == 2)
    }
  }

  test("emit returning false stops enumeration") {
    val (g, ops) = setup(4, n = 40, e = 120)
    val p = Templates.hQuery(0, g)
    val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
    var n = 0
    MJoin.enumerate(rig, SearchOrder.jo(rig)) { _ => n += 1; n < 3 }
    assert(n <= 3)
  }

  test("distributed count equals driver-side count") {
    forSeeds(6) { seed =>
      val (g, ops) = setup(seed, n = 300, e = 1200)
      val p = Templates.hQuery((seed % 10).toInt, g)
      val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
      if (!rig.isEmpty) {
        val order = SearchOrder.jo(rig)
        val local = MJoin.enumerate(rig, order)(_ => true)
        val dist = MJoin.count(spark, rig, order)
        assert(local == dist, s"seed=$seed ${p.name}")
      }
    }
  }

  test("answerDF columns are q0..qn-1 and rows match brute force") {
    val (g, ops) = setup(9)
    val p = Templates.randomPattern(g, n = 3, extraEdges = 1, reachProb = 0.5, 9, "M")
    val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
    val df = MJoin.answerDF(spark, rig, SearchOrder.jo(rig))
    assert(df.columns.toSeq == (0 until p.numNodes).map(p.colName))
    val rows = df.collect().map(r => (0 until p.numNodes).map(i => r.getLong(i).toInt).toVector).toSet
    assert(rows == BruteForce.answer(g, p))
  }

  test("answerDF agrees with the DuckDB oracle over nodes/edges/reach tables") {
    forSeeds(8) { seed =>
      val (g, ops) = setup(seed, n = 25, e = 60)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 1, reachProb = 0.5, seed + 77, "O")
      val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
      val df = MJoin.answerDF(spark, rig, SearchOrder.jo(rig))
      val nodes = GraphDF.nodesDF(spark, g)
      val edges = GraphDF.edgesDF(spark, g)
      val reach = {
        import spark.implicits._
        TransitiveClosure.pairs(g).toSeq.map { case (u, v) => (u.toLong, v.toLong) }
          .toDF("src", "dst")
      }
      Oracle.assertEquivalent(df, PatternSQL.sql(p),
        "nodes" -> nodes, "edges" -> edges, "reach" -> reach)
    }
  }

  test("empty RIG enumerates nothing") {
    val (g, ops) = setup(2)
    val p = repro.pattern.Pattern("E", Vector("l0", "zz"),
      Vector(repro.pattern.PEdge(0, 1, repro.pattern.Direct)))
    val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
    assert(MJoin.enumerate(rig, Array(0, 1))(_ => true) == 0)
    assert(MJoin.count(spark, rig, Array(0, 1)) == 0)
    assert(MJoin.answerDF(spark, rig, Array(0, 1)).count() == 0)
  }

  private val orders = Seq(SearchOrder.JO, SearchOrder.RI, SearchOrder.BJ)
  private val limits = Seq(1L, 2L, 7L, Long.MaxValue)

  /** Every H, C and D template instance on `g`, plus a single-node pattern. */
  private def kernelPatterns(g: repro.graph.Graph): Seq[Pattern] =
    Pattern("S1", Vector(Templates.frequentLabels(g).head), Vector.empty) +:
      Templates.all.flatMap { tmpl =>
        val h = Templates.instantiate(tmpl, g)
        Seq(h, h.toCQuery, h.toDQuery)
      }

  /** Edges constraining the last order level (what count mode sums over). */
  private def lastLevelConstraints(p: Pattern, order: Array[Int]): Int =
    p.edges.count(e => e.from == order.last || e.to == order.last)

  test("count and emit modes agree with brute force under every order and limit") {
    // D-queries on the 3-label graph have answers of 1e6 tuples (one big SCC),
    // so they run on a 5-label graph of the same shape.
    val cases = Seq(3, 5).flatMap { labels =>
      val g = GraphGen.random(30, 75, labels, seed = 31)
      val ops = ReachOps(g)
      kernelPatterns(g).filter(p => (labels == 5) == p.name.startsWith("DQ")).map((g, ops, _))
    }
    val lastLevels = scala.collection.mutable.Set.empty[Int]
    cases.foreach { case (g, ops, p) =>
      val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
      // Brute force is exponential in pattern size; 7-node shapes compare modes only.
      val expected = if (p.numNodes <= 6) Some(BruteForce.answer(g, p)) else None
      orders.filter(_ => !rig.isEmpty).foreach { strategy =>
        val order = SearchOrder.compute(strategy, rig)
        val ctx = s"${p.name} ${strategy.name}"
        lastLevels += math.min(lastLevelConstraints(p, order), 2)
        val total = expected match {
          case Some(exp) =>
            val got = scala.collection.mutable.Set.empty[Vector[Int]]
            val n = MJoin.enumerate(rig, order) { t => got += t.toVector; true }
            assert(got.size == n, s"$ctx: emit mode repeated a tuple")
            assert(got == exp, ctx)
            n
          case None => MJoin.enumerate(rig, order)(_ => true)
        }
        limits.foreach { limit =>
          val want = math.min(total, limit)
          assert(MJoin.countLocal(rig, order, limit) == want, s"$ctx countLocal limit=$limit")
          assert(MJoin.enumerate(rig, order, limit)(_ => true) == want, s"$ctx enumerate limit=$limit")
          assert(MJoin.count(spark, rig, order, limit) == want, s"$ctx count limit=$limit")
        }
      }
    }
    assert(lastLevels == Set(0, 1, 2), "last levels with 0, 1 and >= 2 constraints")
  }

  /** A RIG over `p` with `size` candidates per query node and random edges.
    * Edges cycle through three kinds of adjacency list: sparse, nearly full
    * (so intersections meet lists of very different lengths) and full (a
    * list that constrains nothing). The sparse density aims at about 1e4
    * occurrences: enough seeds for the partitioning of [[MJoin.count]], few
    * enough occurrences to enumerate.
    */
  private def randomRig(p: Pattern, size: Int, seed: Long): RIG = {
    val rnd = new scala.util.Random(seed)
    val kinds = p.edges.indices.map(ei => Seq(0, 1, 0, 2)(ei % 4))
    val dense = 0.95
    val sparse = math.pow(1e4 / math.pow(size, p.numNodes) / math.pow(dense, kinds.count(_ == 1)),
      1.0 / kinds.count(_ == 0))
    val density = kinds.map(Seq(sparse, dense, 1.0))
    val cos = Array.tabulate(p.numNodes)(q => Array.range(q * size, (q + 1) * size))
    val fwd = p.edges.indices.map { ei =>
      Array.fill(size)(cos(p.edges(ei).to).filter(_ => rnd.nextDouble() < density(ei)))
    }.toArray
    val bwd = p.edges.indices.map { ei =>
      val from = cos(p.edges(ei).from)
      Array.tabulate(size)(j => from.indices.filter(i => fwd(ei)(i).contains(cos(p.edges(ei).to)(j)))
        .map(from).toArray)
    }.toArray
    new RIG(p, cos, fwd, bwd)
  }

  /** Index nested-loop join over the RIG's own edges, binding query nodes
    * 0..n-1 in id order, each from its shortest adjacency list: every
    * assignment that every pattern edge admits.
    */
  private def rigAnswer(rig: RIG): Set[Vector[Int]] = {
    val p = rig.pattern
    val t = new Array[Int](p.numNodes)
    val out = Set.newBuilder[Vector[Int]]
    def admits(q: Int): Boolean = p.edges.indices.forall { ei =>
      val e = p.edges(ei)
      e.from > q || e.to > q || rig.successors(ei, t(e.from)).contains(t(e.to))
    }
    def go(q: Int): Unit =
      if (q == p.numNodes) out += t.toVector
      else {
        val cands = (p.edges.indices.collect {
          case ei if p.edges(ei).to == q && p.edges(ei).from < q => rig.successors(ei, t(p.edges(ei).from))
          case ei if p.edges(ei).from == q && p.edges(ei).to < q => rig.predecessors(ei, t(p.edges(ei).to))
        } :+ rig.cos(q)).minBy(_.length)
        cands.foreach { v => t(q) = v; if (admits(q)) go(q + 1) }
      }
    go(0)
    out.result()
  }

  test("MJoin equals a nested-loop join over the RIG; distributed count is exactly min(total, limit)") {
    Templates.all.foreach { p =>
      val rig = randomRig(p, size = 64, seed = p.name.hashCode)
      // The reference join is slow on 7-node shapes; those compare modes only.
      val expected = if (p.numNodes <= 6) Some(rigAnswer(rig)) else None
      orders.foreach { strategy =>
        val order = SearchOrder.compute(strategy, rig)
        val ctx = s"${p.name} ${strategy.name}"
        val got = scala.collection.mutable.Set.empty[Vector[Int]]
        val total = MJoin.enumerate(rig, order) { t => got += t.toVector; true }
        assert(got.size == total, s"$ctx: emit mode repeated a tuple")
        expected.foreach(exp => assert(got == exp, ctx))
        assert(MJoin.countLocal(rig, order) == total, ctx)
        limits.foreach { limit =>
          assert(MJoin.count(spark, rig, order, limit) == math.min(total, limit),
            s"$ctx limit=$limit total=$total")
        }
      }
    }
  }

  /** Complete 4-partite RIG over a 4-clique: 1000^4 = 1e12 occurrences. */
  private def completeRig(): RIG = {
    val p = Pattern("K4", Vector.fill(4)("l0"),
      (for (i <- 0 until 4; j <- i + 1 until 4) yield PEdge(i, j, Direct)).toVector)
    val cos = Array.tabulate(4)(q => Array.range(q * 1000, q * 1000 + 1000))
    val fwd = p.edges.map(e => Array.fill(1000)(cos(e.to))).toArray
    val bwd = p.edges.map(e => Array.fill(1000)(cos(e.from))).toArray
    new RIG(p, cos, fwd, bwd)
  }

  test("the cooperative deadline stops a runaway count in every mode") {
    val rig = completeRig()
    val order = Array(0, 1, 2, 3)
    val runs = Seq[(String, () => Long)](
      "countLocal" -> (() => MJoin.countLocal(rig, order)),
      "enumerate" -> (() => MJoin.enumerate(rig, order)(_ => true)),
      "distributed count" -> (() => MJoin.count(spark, rig, order)))
    runs.foreach { case (name, run) =>
      val out = Timing.run(spark, 0.5)(run())
      assert(out.isInstanceOf[Timing.TimedOut], s"$name: $out")
      // Under budget + 2 s: the kernel's own check fired, not the job-group cancel.
      assert(out.seconds < 2.0, s"$name took ${out.seconds} s")
    }
    // No task of the cancelled job keeps running.
    val tracker = spark.sparkContext.statusTracker
    val quiet = (1 to 100).exists { _ =>
      Thread.sleep(100)
      tracker.getExecutorInfos.map(_.numRunningTasks).sum == 0
    }
    assert(quiet, "a cancelled MJoin task is still running")
  }
}
