package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{Row, SparkSession}
import repro.core.{GM, MJoin, RIG, SearchOrder, Simulation}
import repro.graph.reach.ReachOps
import repro.pattern.{Direct, Pattern, TransitiveReduction}
import repro.util.Timing

/** The GM pipeline with default `GM.Config`, called layer by layer from here
  * with a span around each public call. It repeats what `GM.prepare`,
  * `GM.countMatches` and `GM.answer` do; the benchmark compares every traced
  * result with the untraced GM call, so the copy cannot drift unnoticed.
  */
object Trace {

  /** Span seconds and counts of one traced query. */
  final case class Layers(
      reduceS: Double, edgesDropped: Long,
      prefilterS: Double, fbsimS: Double, simPasses: Long,
      candInitial: Long, candPrefilter: Long, candFbsim: Long, emptied: Boolean,
      expandS: Double, rigNodes: Long, rigEdges: Long, reachEdges: Long, directEdges: Long,
      orderS: Double, enumS: Double, results: Long, limitHit: Boolean,
      collectS: Double, rows: Long, wallS: Double,
  ) {
    /** Seconds of each span, in the order of [[SpanNames]]. */
    def spans: Seq[Double] = Seq(reduceS, prefilterS, fbsimS, expandS, orderS, enumS, collectS)
  }

  val SpanNames: Seq[String] = Seq("pattern.reduce_s", "sim.prefilter_s", "sim.fbsim_s",
    "rig.expand_s", "order.compute_s", "mjoin.enum_s", "answer.collect_s")

  private val config = GM.Config()
  require(config.reduce && config.prefilter && config.simulate && config.distribute,
    "the traced chain follows GM's default pipeline; update it with GM.Config's defaults")

  /** Everything up to and including the search order, as `GM.prepare`. */
  private def prepare(spark: SparkSession, ops: ReachOps, pattern: Pattern) = {
    val (reduced, reduceS) = Timing.time(TransitiveReduction.reduce(pattern))
    val (init, prefilterS) = Timing.time(Simulation.prefilter(ops, reduced))
    val (sim, fbsimS) = Timing.time(Simulation.fbSim(ops, reduced, init, config.simPasses))
    val (rig, expandS) = Timing.time(RIG.expand(ops, reduced, sim.fb, Some(spark)))
    val (order, orderS) = Timing.time {
      if (rig.isEmpty) Array.range(0, reduced.numNodes) else SearchOrder.compute(config.order, rig)
    }
    // Counts, taken outside the spans.
    def card(sets: Array[org.roaringbitmap.RoaringBitmap]) = sets.map(_.getCardinality.toLong).sum
    val edgesOf = rig.fwdAdj.map(_.map(_.length.toLong).sum)
    val direct = reduced.edges.indices.filter(reduced.edges(_).kind == Direct).map(edgesOf).sum
    val layers = Layers(
      reduceS, pattern.numEdges - reduced.numEdges,
      prefilterS, fbsimS, sim.passes,
      card(Simulation.matchSets(ops, reduced)), card(init), card(sim.fb), sim.isEmpty,
      expandS, rig.numNodes, rig.numEdges, rig.numEdges - direct, direct,
      orderS, enumS = 0, results = 0, limitHit = false, collectS = 0, rows = 0, wallS = 0)
    (rig, order, layers)
  }

  /** Traced `GM.countMatches`. */
  def count(spark: SparkSession, ops: ReachOps, pattern: Pattern, limit: Long): (Long, Layers) = {
    val start = System.nanoTime()
    val (rig, order, layers) = prepare(spark, ops, pattern)
    val (n, enumS) = Timing.time(if (rig.isEmpty) 0L else MJoin.count(spark, rig, order, limit))
    val wallS = (System.nanoTime() - start) / 1e9
    (n, layers.copy(enumS = enumS, results = n, limitHit = n >= limit, wallS = wallS))
  }

  /** Traced `GM.answer` followed by collecting every row to the driver. */
  def answer(spark: SparkSession, ops: ReachOps, pattern: Pattern, limit: Long): (Array[Row], Layers) = {
    val start = System.nanoTime()
    val (rig, order, layers) = prepare(spark, ops, pattern)
    val (df, enumS) = Timing.time(MJoin.answerDF(spark, rig, order, limit))
    val (rows, collectS) = Timing.time(df.collect())
    val wallS = (System.nanoTime() - start) / 1e9
    (rows, layers.copy(enumS = enumS, results = rows.length, limitHit = rows.length >= limit,
      collectS = collectS, rows = rows.length, wallS = wallS))
  }

  /** Local property that marks the Spark jobs of a traced call. */
  val TracedProperty = "perfbench.traced"

  /** Spark substrate counters over the jobs tagged with [[TracedProperty]]. */
  final class SparkCounters extends SparkListener {
    private val stages = ConcurrentHashMap.newKeySet[Integer]()
    val jobs, tasks, runMs, deserMs, resultBytes = new AtomicLong()

    override def onJobStart(e: SparkListenerJobStart): Unit =
      if (e.properties != null && e.properties.getProperty(TracedProperty) == "1") {
        jobs.incrementAndGet()
        e.stageIds.foreach(s => stages.add(s))
      }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      if (stages.contains(e.stageId)) {
        tasks.incrementAndGet()
        val m = e.taskMetrics
        if (m != null) {
          runMs.addAndGet(m.executorRunTime)
          deserMs.addAndGet(m.executorDeserializeTime)
          resultBytes.addAndGet(m.resultSize)
        }
      }

    def snapshot: Seq[Long] = Seq(jobs, tasks, runMs, deserMs, resultBytes).map(_.get)

    /** Waits until the asynchronous listener bus has delivered every event:
      * the counters stop changing for `quietMs`.
      */
    def settle(quietMs: Long = 500, maxMs: Long = 10000): Unit = {
      val deadline = System.currentTimeMillis() + maxMs
      var last = snapshot
      var stableSince = System.currentTimeMillis()
      while (System.currentTimeMillis() - stableSince < quietMs && System.currentTimeMillis() < deadline) {
        Thread.sleep(50)
        val now = snapshot
        if (now != last) { last = now; stableSince = System.currentTimeMillis() }
      }
    }
  }
}
