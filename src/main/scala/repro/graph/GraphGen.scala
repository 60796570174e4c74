package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType

import scala.collection.mutable
import scala.util.Random

/** Synthetic graph generators, expressed as Spark DataFrame jobs, plus
  * a driver-side SBM ([[communities]]) for graphs built without Spark.
  *
  * All generators emit a directed edge list with columns `src`, `dst`
  * (LongType, node ids in `[0, n)`), deduplicated and free of
  * self-loops. They are deterministic in their `seed` so the DuckDB
  * oracle and the local CSR build see identical edges.
  *
  * RMAT (Chakrabarti et al.) is the stand-in for the paper's real
  * social/hyperlink graphs: power-law degrees plus hierarchical
  * block (community-like) structure — the property TPA's neighbor
  * approximation exploits. Erdős–Rényi is the "random graph with the
  * same number of nodes and edges" of the paper's Figure 6. SBM gives
  * explicit planted communities for targeted tests.
  */
object GraphGen {

  /** Default RMAT quadrant probabilities (standard social-graph setting). */
  val RmatA = 0.57; val RmatB = 0.19; val RmatC = 0.19; val RmatD = 0.05

  /** R-MAT graph over `n = 2^scale` nodes with ~`mTarget` distinct edges.
    *
    * Each of `mTarget` edge draws picks one quadrant per bit level:
    * a→(0,0), b→(0,1), c→(1,0), d→(1,1). Duplicates and self-loops are
    * removed, so the realized edge count is slightly below `mTarget`.
    */
  def rmat(spark: SparkSession, scale: Int, mTarget: Long, seed: Long,
           a: Double = RmatA, b: Double = RmatB, c: Double = RmatC): DataFrame = {
    require(scale >= 1 && scale <= 30, s"scale out of range: $scale")
    require(a + b + c < 1.0, "quadrant probabilities must leave room for d")
    var df = spark.range(mTarget)
      .select(lit(0L).as("src"), lit(0L).as("dst"))
    for (level <- 0 until scale) {
      // Materialize the draw once per level so src and dst read the same value.
      df = df
        .withColumn("u", rand(seed * 7919 + level))
        .select(
          (col("src") * 2 + when(col("u") < a + b, 0L).otherwise(1L)).as("src"),
          (col("dst") * 2 + when(col("u") < a ||
            (col("u") >= a + b && col("u") < a + b + c), 0L).otherwise(1L)).as("dst"))
    }
    df.filter(col("src") =!= col("dst")).distinct()
  }

  /** Erdős–Rényi digraph: `mTarget` uniform draws over `[0,n)²`, deduped,
    * self-loops removed. The Figure 6 "random graph" comparator.
    */
  def erdosRenyi(spark: SparkSession, n: Long, mTarget: Long, seed: Long): DataFrame = {
    spark.range(mTarget)
      .select(
        (rand(seed) * n).cast(LongType).as("src"),
        (rand(seed + 1) * n).cast(LongType).as("dst"))
      .filter(col("src") =!= col("dst"))
      .distinct()
  }

  /** Stochastic block model: `n` nodes in `k` equal blocks; each of the
    * `mTarget` edge draws stays inside the source's block with
    * probability `pIn`, otherwise lands uniformly anywhere.
    */
  def sbm(spark: SparkSession, n: Long, k: Int, mTarget: Long,
          pIn: Double, seed: Long): DataFrame = {
    require(k >= 1 && n % k == 0, s"k=$k must divide n=$n")
    val blockSize = n / k
    spark.range(mTarget)
      .select(
        (rand(seed) * n).cast(LongType).as("src"),
        rand(seed + 1).as("inBlock"),
        rand(seed + 2).as("u"))
      .select(
        col("src"),
        when(col("inBlock") < pIn,
          (col("src") - (col("src") % blockSize)) + (col("u") * blockSize).cast(LongType))
          .otherwise((col("u") * n).cast(LongType))
          .as("dst"))
      .filter(col("src") =!= col("dst"))
      .distinct()
  }

  /** Patch dangling nodes (out-degree 0) with a single edge to their
    * successor `(u+1) mod n`, making the transition matrix column
    * stochastic so the paper's norm lemmas (`‖x^(i)‖₁ = c(1-c)^i`) hold
    * exactly. Documented substitution: real KONECT graphs have dangling
    * nodes; the paper's analysis implicitly assumes none.
    */
  def fixDangling(spark: SparkSession, edges: DataFrame, n: Long): DataFrame = {
    val dangling = spark.range(n).toDF("src")
      .join(edges.select("src").distinct(), Seq("src"), "left_anti")
    edges.unionByName(
      dangling.select(col("src"), ((col("src") + 1) % n).as("dst")))
  }

  /** Row-normalized weights: each edge (src, dst) gets `w = 1/outdeg(src)`,
    * i.e. the entries of Ã used by `x^(i+1) = (1-c) Ã^T x^(i)`.
    */
  def normalize(edges: DataFrame): DataFrame = {
    val deg = edges.groupBy("src").agg(count(lit(1)).as("outdeg"))
    edges.join(deg, Seq("src"))
      .select(col("src"), col("dst"), (lit(1.0) / col("outdeg")).as("w"))
  }

  /** Convenience: generate an RMAT graph, patch dangling nodes, return
    * raw edges (use [[normalize]] for weighted edges).
    */
  def rmatGraph(spark: SparkSession, scale: Int, mTarget: Long, seed: Long): DataFrame =
    fixDangling(spark, rmat(spark, scale, mTarget, seed), 1L << scale)

  /** Convenience: Erdős–Rényi with dangling patch. */
  def erGraph(spark: SparkSession, n: Long, mTarget: Long, seed: Long): DataFrame =
    fixDangling(spark, erdosRenyi(spark, n, mTarget, seed), n)

  // ---- driver-side generators (scala.util.Random, no Spark) ----

  /** Driver-side stochastic block model: `k` equal blocks; each of `m`
    * draws stays inside the source's block with probability `pIn`.
    * Dangling nodes are patched as in [[localPatched]].
    */
  def communities(n: Int, k: Int, m: Int, pIn: Double, seed: Long): LocalGraph = {
    require(k >= 1 && n % k == 0, s"k=$k must divide n=$n")
    val bs = n / k
    val pairs = distinctDraws(m, seed) { rng =>
      val u = rng.nextInt(n)
      (u, if (rng.nextDouble() < pIn) (u / bs) * bs + rng.nextInt(bs) else rng.nextInt(n))
    }
    localPatched(n, pairs, n)
  }

  /** Up to `m` distinct edges from `draw`, self-loops dropped, in first-draw
    * order; gives up after 10·m draws.
    */
  private[repro] def distinctDraws(m: Int, seed: Long)(draw: Random => (Int, Int)): Seq[(Int, Int)] = {
    val rng = new Random(seed)
    val set = mutable.LinkedHashSet.empty[(Int, Int)]
    var tries = 0
    while (set.size < m && tries < m * 10) {
      val (u, v) = draw(rng)
      if (u != v) set += ((u, v))
      tries += 1
    }
    set.toSeq
  }

  /** CSR over `n` nodes of `pairs` plus, for every node u < `patchBelow`
    * without an out-edge, the edge u → (u+1) mod `patchBelow` — the
    * driver-side [[fixDangling]].
    */
  private[repro] def localPatched(n: Int, pairs: Seq[(Int, Int)], patchBelow: Int): LocalGraph = {
    val has = new Array[Boolean](patchBelow)
    pairs.foreach(p => has(p._1) = true)
    val all = pairs ++ (0 until patchBelow).collect { case u if !has(u) => (u, (u + 1) % patchBelow) }
    LocalGraph.fromEdges(n, all.map(_._1).toArray, all.map(_._2).toArray)
  }
}
