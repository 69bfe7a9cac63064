package repro.core

import org.apache.spark.{TaskContext, TaskKilledException}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import scala.collection.immutable.ArraySeq
import repro.util.Timing

/** Algorithm 5 (MJoin): worst-case-optimal, node-at-a-time enumeration of
  * query occurrences over a RIG.
  *
  * At each search step the local candidate set is the multi-way intersection
  * of the RIG adjacency lists of the already-bound neighbor nodes — no
  * intermediate join results are ever materialized (space O(n · MaxCos)).
  *
  * One kernel serves two modes, picked by the caller:
  *  - **count** ([[count]], [[countLocal]]) adds `min(|cands|, limit − found)`
  *    at the last order level and never binds, copies or emits a tuple;
  *  - **emit** ([[enumerate]], [[enumerateSeeds]], [[answerDF]]) hands each
  *    occurrence to a callback as one reused tuple array, valid only during
  *    the call: a callback that keeps a tuple must copy it.
  *
  * Both modes run the same step, which allocates nothing. Per-level scratch
  * (the gathered adjacency lists and an intersection buffer) is allocated
  * once per seed slice. The lists are ordered shortest first by insertion
  * sort and intersected into the level's buffer in place; a list much longer
  * than the running result is probed by binary search instead of merged. A
  * list holding all of `cos(q)` constrains nothing and is skipped, so a level
  * left with one list uses it as-is. A level whose bound neighbors have not
  * changed since its last step keeps its candidates. Both modes check the
  * query deadline ([[repro.util.Timing.checkDeadline]]) and task
  * cancellation every 1024 search steps.
  *
  * Distribution: the search space is partitioned on the *first* node of the
  * search order. `cos(q1)` is split across executor tasks; each task runs the
  * backtracking enumeration for its seeds against the broadcast RIG, so
  * enumeration parallelizes with zero coordination (seeds are independent).
  */
object MJoin {

  /** Per-step constraint: RIG edge `edge` connects the node at the current
    * order position to the already-bound query node `boundNode`; `forward`
    * means the bound node is the edge's tail (so candidates come from its
    * successor list).
    */
  private final case class Constraint(edge: Int, boundNode: Int, forward: Boolean)

  private def constraints(rig: RIG, order: Array[Int]): Array[Array[Constraint]] = {
    val p = rig.pattern
    val posOf = new Array[Int](p.numNodes)
    order.zipWithIndex.foreach { case (q, i) => posOf(q) = i }
    order.indices.map { i =>
      val q = order(i)
      p.edges.indices.flatMap { ei =>
        val e = p.edges(ei)
        if (e.to == q && posOf(e.from) < i) Some(Constraint(ei, e.from, forward = true))
        else if (e.from == q && posOf(e.to) < i) Some(Constraint(ei, e.to, forward = false))
        else None
      }.toArray
    }.toArray
  }

  /** Intersection of the sorted `a(0 until aLen)` and `b` into `out`, which
    * may be `a` itself (writes never overtake reads). Returns the result
    * length. Merges lists of similar length; when `b` is much longer, looks
    * each element of `a` up in it instead.
    */
  private def intersectInto(a: Array[Int], aLen: Int, b: Array[Int], out: Array[Int]): Int = {
    var i = 0; var j = 0; var k = 0
    if (aLen.toLong * 16 < b.length) {
      while (i < aLen && j < b.length) {
        val x = a(i)
        val p = java.util.Arrays.binarySearch(b, j, b.length, x)
        if (p >= 0) { out(k) = x; k += 1; j = p + 1 } else j = -p - 1
        i += 1
      }
    } else {
      while (i < aLen && j < b.length) {
        val x = a(i); val y = b(j)
        if (x == y) { out(k) = x; k += 1; i += 1; j += 1 }
        else if (x < y) i += 1
        else j += 1
      }
    }
    k
  }

  /** The enumeration kernel for one seed slice; `emit == null` selects count
    * mode. Not thread-safe: each task builds its own.
    */
  private final class Kernel(rig: RIG, order: Array[Int], limit: Long,
                             emit: Array[Int] => Boolean) {
    private val n = order.length
    private val cons = constraints(rig, order)
    private val t = new Array[Int](rig.pattern.numNodes) // indexed by query node id
    // Per-level scratch: the bound values the level's adjacency lists were
    // fetched for (-1: none yet) and those lists, the lists sorted for
    // intersection, the intersection buffer (grown on demand up to |cos|),
    // and the level's candidates.
    private val boundVals = cons.map(c => Array.fill(c.length)(-1))
    private val boundLists = cons.map(c => new Array[Array[Int]](c.length))
    private val lists = cons.map(c => new Array[Array[Int]](c.length))
    private val buf = Array.fill(n)(Array.emptyIntArray)
    private val candArr = new Array[Array[Int]](n)
    private val candLen = new Array[Int](n)
    private var found = 0L
    private var steps = 0L
    private var stop = false
    private val task = TaskContext.get() // null on the driver

    def run(seeds: Array[Int]): Long = {
      if (limit <= 0 || seeds.isEmpty) return 0L
      if (n == 1) leaf(order(0), seeds, seeds.length)
      else {
        val q0 = order(0)
        var s = 0
        while (s < seeds.length && !stop) {
          t(q0) = seeds(s)
          descend(1)
          s += 1
        }
      }
      found
    }

    private def descend(i: Int): Unit = {
      candidates(i)
      val arr = candArr(i); val len = candLen(i); val q = order(i)
      if (i == n - 1) leaf(q, arr, len)
      else {
        var j = 0
        while (j < len && !stop) {
          t(q) = arr(j)
          descend(i + 1)
          j += 1
        }
      }
    }

    /** The last order level: count in bulk, or bind and emit each candidate. */
    private def leaf(q: Int, arr: Array[Int], len: Int): Unit =
      if (emit == null) {
        found += math.min(len.toLong, limit - found)
        if (found >= limit) stop = true
      } else {
        var j = 0
        while (j < len && !stop) {
          t(q) = arr(j)
          found += 1
          if (!emit(t) || found >= limit) stop = true
          j += 1
        }
      }

    /** Sets `candArr(i)`/`candLen(i)` to level i's candidates under the
      * current bindings.
      */
    private def candidates(i: Int): Unit = {
      // Keyed to steps, not matches: a bulk-counted level adds many at once.
      steps += 1
      if ((steps & 0x3ff) == 0) {
        Timing.checkDeadline()
        if (task != null && task.isInterrupted()) throw new TaskKilledException("job cancelled")
      }
      val cosQ = rig.cos(order(i))
      val cs = cons(i)
      if (cs.isEmpty) {
        candArr(i) = cosQ; candLen(i) = cosQ.length
        return
      }
      // Fetch the lists whose bound node changed since the last call. When
      // none did, the level's candidates from that call still stand.
      val vals = boundVals(i); val bls = boundLists(i)
      var changed = false
      var j = 0
      while (j < cs.length) {
        val c = cs(j)
        val v = t(c.boundNode)
        if (v != vals(j)) {
          vals(j) = v
          bls(j) = if (c.forward) rig.successors(c.edge, v) else rig.predecessors(c.edge, v)
          changed = true
        }
        j += 1
      }
      if (!changed) return
      // Shortest first; a list holding all of cos(q) constrains nothing.
      val ls = lists(i)
      var k = 0
      j = 0
      while (j < cs.length) {
        val l = bls(j)
        if (l.length < cosQ.length) {
          var m = k
          while (m > 0 && ls(m - 1).length > l.length) { ls(m) = ls(m - 1); m -= 1 }
          ls(m) = l
          k += 1
        }
        j += 1
      }
      if (k <= 1) {
        candArr(i) = if (k == 0) cosQ else ls(0); candLen(i) = candArr(i).length
        return
      }
      var out = buf(i)
      if (out.length < ls(0).length) {
        out = new Array[Int](math.min(math.max(ls(0).length, 2 * out.length), cosQ.length))
        buf(i) = out
      }
      var len = intersectInto(ls(0), ls(0).length, ls(1), out)
      j = 2
      while (j < k && len > 0) { len = intersectInto(out, len, ls(j), out); j += 1 }
      candArr(i) = out; candLen(i) = len
    }
  }

  /** Driver-side enumeration; `emit` receives the occurrence tuple indexed by
    * *query node id* and returns false to stop early. The array is reused for
    * every occurrence. Returns tuples emitted.
    */
  def enumerate(rig: RIG, order: Array[Int], limit: Long = Long.MaxValue)
               (emit: Array[Int] => Boolean): Long =
    if (rig.isEmpty) 0L
    else enumerateSeeds(rig, order, rig.cos(order(0)), limit)(emit)

  /** Enumeration restricted to the given seeds for the first order node
    * (the unit of distribution — each executor task owns a seed slice).
    * `emit` sees one reused tuple array, as in [[enumerate]].
    */
  def enumerateSeeds(rig: RIG, order: Array[Int], seeds: Array[Int],
                     limit: Long = Long.MaxValue)(emit: Array[Int] => Boolean): Long = {
    require(emit != null, "emit must not be null")
    new Kernel(rig, order, limit, emit).run(seeds)
  }

  /** Driver-side count of occurrences, exact up to `limit`. */
  def countLocal(rig: RIG, order: Array[Int], limit: Long = Long.MaxValue): Long =
    if (rig.isEmpty) 0L
    else new Kernel(rig, order, limit, emit = null).run(rig.cos(order(0)))

  /** Exact-up-to-`limit` count of occurrences, distributed over seeds. */
  def count(spark: SparkSession, rig: RIG, order: Array[Int],
            limit: Long = Long.MaxValue): Long = {
    if (rig.isEmpty) return 0L
    val seeds = rig.cos(order(0))
    if (seeds.length < 64) {
      countLocal(rig, order, limit)
    } else {
      val sc = spark.sparkContext
      val bRig = sc.broadcast(rig)
      val parts = math.max(1, math.min(sc.defaultParallelism * 4, seeds.length / 16))
      val total =
        try {
          sc.parallelize(seeds.toIndexedSeq, parts)
            .mapPartitions { it =>
              Iterator.single(new Kernel(bRig.value, order, limit, emit = null).run(it.toArray))
            }
            .fold(0L)(_ + _)
        } finally bRig.destroy()
      math.min(total, limit)
    }
  }

  /** Answer DataFrame with one column per query node (`q0`..`qn-1`, LongType),
    * enumerated distributedly and capped at `limit` rows.
    */
  def answerDF(spark: SparkSession, rig: RIG, order: Array[Int],
               limit: Long = Long.MaxValue): DataFrame = {
    val p = rig.pattern
    val schema = StructType((0 until p.numNodes).map(q => StructField(p.colName(q), LongType, nullable = false)))
    if (rig.isEmpty) return spark.createDataFrame(spark.sparkContext.emptyRDD[Row], schema)
    val sc = spark.sparkContext
    val bRig = sc.broadcast(rig)
    val seeds = rig.cos(order(0))
    val parts = math.max(1, math.min(sc.defaultParallelism * 4, seeds.length / 16))
    val rows = sc.parallelize(seeds.toIndexedSeq, parts)
      .mapPartitions { it =>
        val buf = new scala.collection.mutable.ArrayBuffer[Row]()
        enumerateSeeds(bRig.value, order, it.toArray, limit) { tup =>
          val vals = new Array[Any](tup.length)
          var i = 0
          while (i < tup.length) { vals(i) = tup(i).toLong; i += 1 }
          buf += Row.fromSeq(ArraySeq.unsafeWrapArray(vals)); true
        }
        buf.iterator
      }
    val df = spark.createDataFrame(rows, schema)
    if (limit == Long.MaxValue) df else df.limit(limit.min(Int.MaxValue).toInt)
  }
}
