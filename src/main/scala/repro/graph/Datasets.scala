package repro.graph

/** Registry of the paper's 7 evaluation graphs (Table II) and their
  * scaled-down synthetic analogs (see DESIGN.md §4 for the substitution
  * rationale). Each analog is an RMAT graph keeping the original's edge
  * density m/n, with the paper's per-dataset S and T.
  */
final case class DatasetSpec(
    name: String,
    /** log2 of analog node count (RMAT scale). */
    scale: Int,
    /** Target analog edge count before dedup. */
    mTarget: Long,
    /** Starting iteration of the neighbor part (paper Table II). */
    s: Int,
    /** Starting iteration of the stranger part (paper Table II). */
    t: Int,
    /** Node/edge counts of the original KONECT graph, for reporting. */
    paperNodes: Long,
    paperEdges: Long,
    /** Generator seed (fixed per dataset for determinism). */
    seed: Long) {
  def n: Int = 1 << scale

  /** Driver-side CSR of the analog (dangling-patched), built on first read. */
  lazy val graph: LocalGraph = GraphGen.rmat(scale, mTarget, seed)

  /** Erdős–Rényi counterpart with (approximately) the same n and m as
    * [[graph]] — the Figure 6 "random graph" — built on first read.
    */
  lazy val randomCounterpart: LocalGraph =
    // ER dedup loses a few draws; oversample 2% to land near m.
    GraphGen.erdosRenyi(n, (graph.m * 1.02).toLong, seed + 5000)
}

object Datasets {

  val slashdot    = DatasetSpec("slashdot-s",    10,    6900L, 4, 15,     82144L,     549202L, 101)
  val google      = DatasetSpec("google-s",      11,   11900L, 4, 40,    875713L,    5105039L, 102)
  val pokec       = DatasetSpec("pokec-s",       13,  153600L, 4, 10,   1632803L,   30622564L, 103)
  val livejournal = DatasetSpec("livejournal-s", 13,  115700L, 4, 10,   4847571L,   68475391L, 104)
  val wikilink    = DatasetSpec("wikilink-s",    14,  509800L, 4,  5,  12150976L,  378142420L, 105)
  val twitter     = DatasetSpec("twitter-s",     15, 1155000L, 2,  5,  41652230L, 1468365182L, 106)
  val friendster  = DatasetSpec("friendster-s",  15, 1239000L, 3, 20,  68349466L, 2586147869L, 107)

  /** All analogs, smallest first (bench iteration order). */
  val all: Seq[DatasetSpec] =
    Seq(slashdot, google, pokec, livejournal, wikilink, twitter, friendster)

  /** Deterministic sample of `k` seed nodes for a dataset (every node has
    * out-degree ≥ 1 after the dangling patch, so any node is a valid seed).
    */
  def seedNodes(spec: DatasetSpec, k: Int): Seq[Int] = {
    val rng = new scala.util.Random(42 + spec.seed)
    Seq.fill(k)(rng.nextInt(spec.n))
  }
}
