package repro.perfbench

import repro.graph.Graph
import repro.graph.reach.{BFL, ReachOps}
import repro.pattern.Pattern
import repro.perfbench.Inputs.Fingerprint
import repro.util.Timing

/** The three workloads. Each one makes a different layer of GM dominate:
  *
  *  - `dq-expand`: D-queries (all reachability edges) on the sparse, skewed
  *    em and ep graphs, count capped at 1e5. Reach-edge RIG expansion is most
  *    of the wall time and enumeration is small.
  *  - `hq-exact`: exact counts of H-queries on hu, a dense single-SCC graph.
  *    Expansion takes milliseconds; MJoin's k-way intersections take the rest.
  *    HQ2 and HQ4 are left out (over the 60 s budget), HQ18 and HQ19 too
  *    (simulation empties them).
  *  - `hq-answer`: `GM.answer` on ep H-queries, 1e5-row limit, every row
  *    collected. Same RIG and MJoin as counting, but rows are produced,
  *    buffered per partition and shipped to the driver.
  */
object Workloads {

  final case class Dataset(name: String, scale: Double, fingerprint: Fingerprint)

  sealed trait Mode { def limit: Long }
  /** `GM.countMatches` with `limit` (`Long.MaxValue`: exact). */
  final case class CountMode(limit: Long) extends Mode
  /** `GM.answer` with `limit`, rows collected to the driver. */
  final case class AnswerMode(limit: Long) extends Mode

  /** @param golden         (dataset, query) -> exact answer size, capped at
    *                       [[GoldenCap]] for answer workloads
    * @param nominalPassSec seconds one timed pass took when the workload was
    *                       defined; turns `--seconds` into a pass count so both
    *                       sides of a comparison time the same samples
    * @param patternsHash   pins the instantiated query structures and labels
    */
  final case class Workload(
      name: String,
      datasets: Seq[Dataset],
      templates: Seq[Int],
      dQueries: Boolean,
      mode: Mode,
      golden: Map[(String, String), Long],
      nominalPassSec: Double,
      patternsHash: Int,
  ) {
    def queries(g: Graph): Seq[Pattern] =
      templates.map(id => if (dQueries) Inputs.dQuery(id, g) else Inputs.hQuery(id, g))
  }

  /** Answer-workload goldens are exact counts below this, else this value. */
  val GoldenCap: Long = 1_000_000L

  /** Each query's wall budget (seconds). */
  val BudgetSec: Double = 60.0

  val dqExpand: Workload = Workload(
    name = "dq-expand",
    datasets = Seq(
      Dataset("em", 0.08, Fingerprint(21200, 33600L, 0x8b1a2ff56856153aL)),
      Dataset("ep", 0.08, Fingerprint(6080, 40720L, 0xe9a60159ae0c5c80L))),
    templates = 0 until 20,
    dQueries = true,
    mode = CountMode(100_000L),
    golden = Map.empty,
    nominalPassSec = 9.0,
    patternsHash = 1425276536,
  )

  val hqExact: Workload = Workload(
    name = "hq-exact",
    datasets = Seq(Dataset("hu", 1.0, Fingerprint(4600, 86000L, 0xca513fcd7f415684L))),
    templates = Seq(0, 1, 3) ++ (5 to 17),
    dQueries = false,
    mode = CountMode(Long.MaxValue),
    golden = Map(
      ("hu", "HQ0") -> 19081420L,
      ("hu", "HQ1") -> 12840282L,
      ("hu", "HQ3") -> 1042886988L,
      ("hu", "HQ5") -> 11059335L,
      ("hu", "HQ6") -> 94878L,
      ("hu", "HQ7") -> 12294828L,
      ("hu", "HQ8") -> 20180286L,
      ("hu", "HQ9") -> 76152L,
      ("hu", "HQ10") -> 244L,
      ("hu", "HQ11") -> 365L,
      ("hu", "HQ12") -> 2L,
      ("hu", "HQ13") -> 74760L,
      ("hu", "HQ14") -> 339L,
      ("hu", "HQ15") -> 14751360L,
      ("hu", "HQ16") -> 13002L,
      ("hu", "HQ17") -> 68556L,
    ),
    nominalPassSec = 8.0,
    patternsHash = -990037851,
  )

  val hqAnswer: Workload = Workload(
    name = "hq-answer",
    datasets = Seq(Dataset("ep", 0.2, Fingerprint(15200, 101800L, 0x5ea9228c56933e50L))),
    templates = 0 to 18,
    dQueries = false,
    mode = AnswerMode(100_000L),
    golden = Map(
      ("ep", "HQ0") -> GoldenCap,
      ("ep", "HQ1") -> GoldenCap,
      ("ep", "HQ2") -> GoldenCap,
      ("ep", "HQ3") -> GoldenCap,
      ("ep", "HQ4") -> GoldenCap,
      ("ep", "HQ5") -> GoldenCap,
      ("ep", "HQ6") -> GoldenCap,
      ("ep", "HQ7") -> GoldenCap,
      ("ep", "HQ8") -> GoldenCap,
      ("ep", "HQ9") -> 688549L,
      ("ep", "HQ10") -> 0L,
      ("ep", "HQ11") -> 2855L,
      ("ep", "HQ12") -> 1L,
      ("ep", "HQ13") -> GoldenCap,
      ("ep", "HQ14") -> 20822L,
      ("ep", "HQ15") -> GoldenCap,
      ("ep", "HQ16") -> 997776L,
      ("ep", "HQ17") -> GoldenCap,
      ("ep", "HQ18") -> 50L,
    ),
    nominalPassSec = 4.0,
    patternsHash = -659271660,
  )

  val all: Seq[Workload] = Seq(dqExpand, hqExact, hqAnswer)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** One dataset made ready for querying. */
  final case class Prepared(dataset: Dataset, g: Graph, ops: ReachOps, bfl: BFL, queries: Seq[Pattern])

  /** Set-up span seconds of one dataset. */
  final case class SetupTimes(genS: Double, condenseS: Double, bflS: Double, instantiateS: Double) {
    def total: Double = genS + condenseS + bflS + instantiateS
  }

  def patternsHash(queries: Seq[Pattern]): Int =
    scala.util.hashing.MurmurHash3.stringHash(queries.mkString("\n"))

  /** Generates, condenses and indexes one dataset and instantiates the
    * workload's queries on it. With `check`, fails when the generated graph's
    * fingerprint differs from the pinned one.
    */
  def prepare(w: Workload, d: Dataset, check: Boolean): (Prepared, SetupTimes) = {
    val (g, genS) = Timing.time(repro.graph.GraphGen.dataset(d.name, d.scale))
    if (check) {
      val got = Inputs.fingerprint(g)
      if (got != d.fingerprint)
        throw new IllegalStateException(
          s"${w.name}: input graph ${d.name}@${d.scale} changed: pinned ${d.fingerprint}, generated $got")
    }
    val (ops, condenseS) = Timing.time(ReachOps(g))
    val (bfl, bflS) = Timing.time(BFL.build(g, ops.cond))
    val (queries, instS) = Timing.time(w.queries(g))
    (Prepared(d, g, ops, bfl, queries), SetupTimes(genS, condenseS, bflS, instS))
  }

  /** Fails when the workload's instantiated queries differ from the pinned ones. */
  def checkPatterns(w: Workload, prepared: Seq[Prepared]): Unit = {
    val got = patternsHash(prepared.flatMap(_.queries))
    if (got != w.patternsHash)
      throw new IllegalStateException(s"${w.name}: query instances changed: pinned ${w.patternsHash}, got $got")
  }
}
