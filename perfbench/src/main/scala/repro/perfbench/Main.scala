package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong
import javax.management.{NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.sql.{Row, SparkSession}
import repro.core.GM
import repro.pattern.Pattern
import repro.perfbench.Workloads._
import repro.util.Timing

/** Runs one workload against the public GM API and prints its metrics.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Load: a closed loop with one client; queries run one after another on a
  * Spark `local[N]` session, N = available processors. The seed draws the
  * order of the queries in every pass. `--seconds` sets the number of timed
  * passes through the workload's nominal pass time, so both sides of a
  * comparison time the same samples. The last line of standard output is the
  * JSON result; the exit code is non-zero when any query failed or any check
  * did not hold.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parseArgs(args: Seq[String]): Either[String, Args] = {
    val kv = args.grouped(2).collect { case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      name <- need("workload")
      w <- byName(name).toRight(s"unknown workload $name (known: ${all.map(_.name).mkString(", ")})")
      seed <- need("seed").flatMap(s => s.toLongOption.toRight(s"bad --seed $s"))
      secs <- need("seconds").flatMap(s => s.toIntOption.filter(_ > 0).toRight(s"bad --seconds $s"))
      trace <- need("trace").flatMap {
        case "0" => Right(false)
        case "1" => Right(true)
        case t => Left(s"bad --trace $t")
      }
    } yield Args(w, seed, secs, trace)
  }

  /** Set-up repetitions per run; set-up time is their median. */
  val SetupReps = 7

  /** Timed passes: at least three, so every query has a median. */
  def passes(w: Workload, seconds: Int): Int =
    math.max(3, math.round(seconds / w.nominalPassSec).toInt)

  /** One query execution. `digest` identifies the answer (count or row set). */
  final case class Exec(dataset: String, query: String, seconds: Double, allocBytes: Long,
                        results: Long, digest: Long, emptied: Boolean, error: Option[String])

  def main(args: Array[String]): Unit = {
    val code = parseArgs(args.toSeq) match {
      case Left(msg) =>
        System.err.println(s"perfbench: $msg")
        2
      case Right(a) =>
        try run(a)
        catch {
          case e: Throwable =>
            System.err.println(s"perfbench: ${a.workload.name} aborted: $e")
            e.printStackTrace()
            1
        }
    }
    sys.exit(code)
  }

  def run(a: Args): Int = {
    val cores = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${a.workload.name}")
      .config("spark.ui.enabled", false)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val sparkCounters = new Trace.SparkCounters
    spark.sparkContext.addSparkListener(sparkCounters)
    try new Runner(spark, a, sparkCounters).run()
    finally spark.stop()
  }

  /** Heap bytes allocated by all threads since the JVM started. */
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  def allocatedBytes(): Long = threads.getTotalThreadAllocatedBytes

  /** Peak heap in use right after a collection, over the armed interval. */
  final class HeapWatch {
    @volatile var armed = false
    val peakBytes = new AtomicLong()
    private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
    private val listener: NotificationListener = (n, _) =>
      if (armed && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
          .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
        peakBytes.accumulateAndGet(used, math.max(_, _))
      }
    ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
      case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
      case _ =>
    }
  }

  /** A metric line: name, value, unit. */
  type Metric = (String, Double, String)

  private final class Runner(spark: SparkSession, a: Args, sparkCounters: Trace.SparkCounters) {
    private val w = a.workload
    private val heap = new HeapWatch
    private val order = new java.util.Random(a.seed)
    private var attempted = 0L
    private var failed = 0L
    private val failures = ArrayBuffer.empty[String]

    private def record(e: Exec): Exec = {
      attempted += 1
      e.error.foreach { err =>
        failed += 1
        failures += s"${e.dataset} ${e.query}: $err"
      }
      e
    }

    /** `xs` in an order drawn from the seed. */
    private def shuffled[A](xs: Seq[A]): Seq[A] = {
      val buf = xs.toBuffer
      for (i <- buf.indices.reverse.dropRight(1)) {
        val j = order.nextInt(i + 1)
        val t = buf(i); buf(i) = buf(j); buf(j) = t
      }
      buf.toSeq
    }

    /** Why the answer `n`/`rows` of `q` is wrong, if it is. */
    private def check(p: Prepared, q: Pattern, n: Long, rows: Array[Row]): Option[String] = {
      def golden = w.golden.get((p.dataset.name, q.name))
      w.mode match {
        case CountMode(limit) if limit != Long.MaxValue =>
          if (n == limit) None else Some(s"capped count $n, expected the limit $limit")
        case CountMode(_) => golden match {
          case Some(g) if g == n => None
          case Some(g) => Some(s"count $n, golden $g")
          case None => Some("no golden count recorded")
        }
        case AnswerMode(limit) => golden match {
          case Some(g) => Checks.answerError(p.g, p.bfl, q, rows, math.min(g, limit))
          case None => Some("no golden count recorded")
        }
      }
    }

    /** The untraced GM call as a user makes it, timed and checked. */
    private def runGM(p: Prepared, q: Pattern): Exec = {
      @volatile var emptied = false
      @volatile var rows: Array[Row] = null
      @volatile var alloc = 0L
      val out = Timing.run(spark, BudgetSec) {
        // Read on the runner thread, which is alive at both readings.
        val alloc0 = allocatedBytes()
        try w.mode match {
          case CountMode(limit) =>
            val (n, st) = GM.countMatches(spark, p.ops, q, GM.Config(limit = limit))
            emptied = st.rigNodes == 0
            n
          case AnswerMode(limit) =>
            val (df, st) = GM.answer(spark, p.ops, q, GM.Config(limit = limit))
            emptied = st.rigNodes == 0
            rows = df.collect()
            rows.length.toLong
        } finally alloc = allocatedBytes() - alloc0
      }
      out match {
        case Timing.Solved(sec, n) =>
          val digest = if (rows == null) n else Checks.digest(rows)
          Exec(p.dataset.name, q.name, sec, alloc, n, digest, emptied, check(p, q, n, rows))
        case other =>
          Exec(p.dataset.name, q.name, other.seconds, alloc, 0, 0, emptied = false, Some(other.toString))
      }
    }

    /** The traced chain; its answer must equal the untraced call's. */
    private def runTraced(p: Prepared, q: Pattern, untraced: Exec): (Exec, Option[Trace.Layers]) = {
      @volatile var layers: Trace.Layers = null
      @volatile var digest = 0L
      val out = Timing.run(spark, BudgetSec) {
        val sc = spark.sparkContext
        sc.setLocalProperty(Trace.TracedProperty, "1")
        try w.mode match {
          case CountMode(limit) =>
            val (n, l) = Trace.count(spark, p.ops, q, limit)
            layers = l; digest = n
            n
          case AnswerMode(limit) =>
            val (rows, l) = Trace.answer(spark, p.ops, q, limit)
            layers = l; digest = Checks.digest(rows)
            rows.length.toLong
        } finally sc.setLocalProperty(Trace.TracedProperty, null)
      }
      val name = s"${q.name} (traced)"
      out match {
        case Timing.Solved(sec, n) =>
          val err =
            if (n == untraced.results && digest == untraced.digest) None
            else Some(s"traced chain gave $n results (digest $digest), GM gave ${untraced.results} (digest ${untraced.digest})")
          (Exec(p.dataset.name, name, sec, 0, n, digest, layers.emptied, err), Some(layers))
        case other =>
          (Exec(p.dataset.name, name, other.seconds, 0, 0, 0, emptied = false, Some(other.toString)), None)
      }
    }

    def run(): Int = {
      // Set-up, repeated; the last repetition's inputs are used.
      val setupTimes = ArrayBuffer.empty[Seq[SetupTimes]]
      var prepared: Seq[Prepared] = Nil
      for (rep <- 1 to SetupReps) {
        val res = w.datasets.map(d => Workloads.prepare(w, d, check = rep == 1))
        prepared = res.map(_._1)
        setupTimes += res.map(_._2)
      }
      Workloads.checkPatterns(w, prepared)
      def setupMedian(f: SetupTimes => Double) = Stats.median(setupTimes.map(_.map(f).sum).toSeq)
      val queries = prepared.flatMap(p => p.queries.map(q => (p, q)))

      // Warm-up: every fourth query once, checked but not timed.
      shuffled(queries.zipWithIndex.collect { case (pq, i) if i % 4 == 0 => pq })
        .foreach { case (p, q) => record(runGM(p, q)) }

      // Timed passes. A traced run times half as many, each query twice.
      val nPasses = if (a.trace) math.max(1, passes(w, a.seconds) / 2) else passes(w, a.seconds)
      val timed = ArrayBuffer.empty[Exec]
      val traced = ArrayBuffer.empty[Seq[(Exec, Trace.Layers)]]
      heap.armed = true
      for (_ <- 1 to nPasses) {
        val passTraced = ArrayBuffer.empty[(Exec, Trace.Layers)]
        for ((p, q) <- shuffled(queries)) {
          val e = record(runGM(p, q))
          timed += e
          if (a.trace && e.error.isEmpty) {
            val (t, layers) = runTraced(p, q, e)
            record(t)
            layers.foreach(l => passTraced += ((e, l)))
          }
        }
        traced += passTraced.toSeq
      }
      heap.armed = false

      // Per-query rows: the median of each query's timed executions.
      val byQuery = queries.map { case (p, q) =>
        (p.dataset.name, q.name) -> timed.filter(e => e.dataset == p.dataset.name && e.query == q.name).toSeq
      }
      val medianSec = byQuery.map { case (k, es) => k -> Stats.median(es.map(_.seconds)) }.toMap
      println(f"${"dataset"}%-8s ${"query"}%-6s ${"seed"}%6s ${"results"}%12s ${"limit_hit"}%9s " +
        f"${"emptied"}%7s ${"p50_s"}%9s ${"alloc_mb"}%9s ${"n"}%3s")
      for (((ds, qn), es) <- byQuery) {
        val res = es.find(_.error.isEmpty).map(_.results).getOrElse(-1L)
        val allocMb = Stats.median(es.map(_.allocBytes / 1048576.0))
        println(f"$ds%-8s $qn%-6s ${a.seed}%6d $res%12d ${res >= w.mode.limit}%9s " +
          f"${es.exists(_.emptied)}%7s ${medianSec((ds, qn))}%9.4f $allocMb%9.1f ${es.length}%3d")
      }

      failures.take(20).foreach(f => System.err.println(s"perfbench: FAILED $f"))
      println(f"failed_frac = ${failed.toDouble / attempted}%.4f ($failed of $attempted executions)")

      val metrics =
        if (!a.trace) endToEnd(timed.toSeq, byQuery, medianSec, setupMedian(_.total), nPasses)
        else {
          sparkCounters.settle()
          layerMetrics(prepared, traced.toSeq, setupMedian) ++ sparkMetrics(nPasses) :+
            (("heap.peak_after_gc_mb", heap.peakBytes.get / 1048576.0, "MB"))
        }
      metrics.foreach { case (n, v, u) => println(f"$n%-28s $v%18.6f $u") }

      val correct = failed == 0
      val json = metrics.map { case (n, v, u) => s""""$n": {"value": ${jsonNumber(v)}, "unit": "$u"}""" }
      println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${json.mkString(", ")}}}""")
      if (correct) 0 else 1
    }

    /** Each execution counts at its query's median latency in the run, so one
      * slow execution cannot move the percentiles; throughput is the query mix
      * run once at those medians.
      */
    private def endToEnd(timed: Seq[Exec], byQuery: Seq[((String, String), Seq[Exec])],
                         medianSec: Map[(String, String), Double], setupS: Double,
                         nPasses: Int): Seq[Metric] = {
      val samples = timed.map(e => medianSec((e.dataset, e.query)))
      val (tail, pct) = Stats.tail(samples).getOrElse((samples.max, 100.0))
      val mixSec = medianSec.values.sum
      val mixResults = byQuery.map { case (_, es) => es.find(_.error.isEmpty).map(_.results).getOrElse(0L) }.sum
      println(f"samples: ${samples.length} executions of ${byQuery.length} queries in $nPasses timed passes; " +
        f"query_tail_s is p$pct%.2f")
      Seq(
        ("setup_s", setupS, "s"),
        ("query_p50_s", Stats.median(samples), "s"),
        ("query_tail_s", tail, "s"),
        ("queries_per_s", byQuery.length / mixSec, "1/s"),
        ("results_per_s", mixResults / mixSec, "1/s"),
        ("alloc_mb_per_query", timed.map(_.allocBytes).sum / 1048576.0 / timed.length, "MB"),
      )
    }

    private def sparkMetrics(passes: Int): Seq[Metric] = {
      val Seq(jobs, tasks, runMs, deserMs, bytes) = sparkCounters.snapshot
      Seq(
        ("spark.jobs", jobs.toDouble / passes, "count"),
        ("spark.tasks", tasks.toDouble / passes, "count"),
        ("spark.task_run_s", runMs / 1000.0 / passes, "s"),
        ("spark.task_deser_s", deserMs / 1000.0 / passes, "s"),
        ("spark.result_bytes", bytes.toDouble / passes, "bytes"),
      )
    }

    /** Per-pass totals over the traced queries, median over traced passes. */
    private def layerMetrics(prepared: Seq[Prepared], traced: Seq[Seq[(Exec, Trace.Layers)]],
                             setupMedian: (SetupTimes => Double) => Double): Seq[Metric] = {
      def perPass(f: Seq[(Exec, Trace.Layers)] => Double): Double = Stats.median(traced.map(f))
      def sum(f: Trace.Layers => Double): Double = perPass(_.map(x => f(x._2)).sum)
      def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b
      val rigEdges = sum(_.rigEdges.toDouble)
      val results = sum(_.results.toDouble)
      val spanTotals = Trace.SpanNames.indices.map(i => Trace.SpanNames(i) -> sum(_.spans(i)))
      val largest = spanTotals.maxBy(_._2)
      println(f"largest layer span: ${largest._1} (${largest._2}%.4f s per pass)")
      Seq(
        ("graph.gen_s", setupMedian(_.genS), "s"),
        ("graph.condense_s", setupMedian(_.condenseS), "s"),
        ("graph.nodes", prepared.map(_.g.numNodes.toDouble).sum, "count"),
        ("graph.edges", prepared.map(_.g.numEdges.toDouble).sum, "count"),
        ("graph.comps", prepared.map(_.ops.cond.numComps.toDouble).sum, "count"),
        ("reach.bfl_build_s", setupMedian(_.bflS), "s"),
        ("pattern.reduce_s", sum(_.reduceS), "s"),
        ("pattern.edges_dropped", sum(_.edgesDropped.toDouble), "count"),
        ("sim.prefilter_s", sum(_.prefilterS), "s"),
        ("sim.fbsim_s", sum(_.fbsimS), "s"),
        ("sim.passes", sum(_.simPasses.toDouble), "count"),
        ("sim.cand_initial", sum(_.candInitial.toDouble), "count"),
        ("sim.cand_prefilter", sum(_.candPrefilter.toDouble), "count"),
        ("sim.cand_fbsim", sum(_.candFbsim.toDouble), "count"),
        ("sim.keep_ratio", ratio(sum(_.candFbsim.toDouble), sum(_.candInitial.toDouble)), "ratio"),
        ("sim.emptied", sum(l => if (l.emptied) 1 else 0), "count"),
        ("rig.expand_s", sum(_.expandS), "s"),
        ("rig.nodes", sum(_.rigNodes.toDouble), "count"),
        ("rig.edges", rigEdges, "count"),
        ("rig.reach_edges", sum(_.reachEdges.toDouble), "count"),
        ("rig.direct_edges", sum(_.directEdges.toDouble), "count"),
        ("rig.edges_per_s", ratio(rigEdges, sum(_.expandS)), "1/s"),
        ("order.compute_s", sum(_.orderS), "s"),
        ("mjoin.enum_s", sum(_.enumS), "s"),
        ("mjoin.results", results, "count"),
        ("mjoin.limit_hit", sum(l => if (l.limitHit) 1 else 0), "count"),
        ("mjoin.results_per_rig_edge", ratio(results, rigEdges), "ratio"),
        ("answer.collect_s", sum(_.collectS), "s"),
        ("answer.rows", sum(_.rows.toDouble), "count"),
        ("trace.unaccounted_s", sum(l => l.wallS - l.spans.sum), "s"),
        ("trace.overhead_frac",
          perPass(xs => ratio(xs.map(_._2.wallS).sum, xs.map(_._1.seconds).sum)) - 1, "ratio"),
      )
    }
  }

  /** A JSON number with every digit Java prints; non-finite values become 0. */
  def jsonNumber(v: Double): String = if (v.isNaN || v.isInfinite) "0" else v.toString
}
