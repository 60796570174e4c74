package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic graph generators, on the driver, plus the two bridges to
  * Spark: a graph's (`src`, `dst`) edge DataFrame and its row-normalized
  * weights.
  *
  * RMAT (Chakrabarti et al., SDM'04) is the stand-in for the paper's real
  * social/hyperlink graphs: power-law degrees plus hierarchical block
  * (community-like) structure — the property TPA's neighbor approximation
  * exploits. Erdős–Rényi is the "random graph with the same number of
  * nodes and edges" of the paper's Figure 6. The SBM ([[communities]])
  * gives explicit planted communities (Figure 8). All three draw edge e
  * from the SplitMix64 hash of (seed, e), so a graph is a pure function of
  * its arguments: the same on every machine and core count.
  */
object GraphGen {

  /** RMAT quadrant probabilities (standard social-graph setting); d = 1 − a − b − c. */
  private val A = 0.57; private val B = 0.19; private val C = 0.19

  /** SplitMix64 finalizer (Steele et al., OOPSLA'14). */
  def mix64(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** The top 53 bits of `h` as a double in [0, 1). */
  private def unit(h: Long): Double = (h >>> 11) * (1.0 / (1L << 53))

  /** R-MAT graph over `n = 2^scale` nodes from `mTarget` edge draws. Each
    * draw picks one quadrant per bit level — a→(0,0), b→(0,1), c→(1,0),
    * d→(1,1) — from the hash of (its edge hash, level). Dangling nodes
    * are patched as in [[fromDraws]], so the realized edge count is
    * near, not at, `mTarget`.
    */
  def rmat(scale: Int, mTarget: Long, seed: Long): LocalGraph = {
    require(scale >= 1 && scale <= 30, s"scale out of range: $scale")
    require(A + B + C < 1.0, "quadrant probabilities must leave room for d")
    fromDraws(1 << scale, mTarget, seed) { h =>
      var s = 0L; var d = 0L; var level = 0
      while (level < scale) {
        val u = unit(mix64(h + level))
        s = s * 2 + (if (u < A + B) 0 else 1)
        d = d * 2 + (if (u < A || (u >= A + B && u < A + B + C)) 0 else 1)
        level += 1
      }
      (s, d)
    }
  }

  /** Erdős–Rényi digraph over `n` nodes: `mTarget` uniform draws over
    * [0, n)², patched as in [[fromDraws]]. The Figure 6 "random graph".
    */
  def erdosRenyi(n: Int, mTarget: Long, seed: Long): LocalGraph =
    fromDraws(n, mTarget, seed)(h => ((unit(mix64(h)) * n).toLong, (unit(mix64(h + 1)) * n).toLong))

  /** Stochastic block model over `n` nodes in `k` equal blocks of n/k
    * consecutive ids, from `mTarget` draws, patched as in [[fromDraws]]:
    * draw h takes its source from mix64(h) and its target from
    * mix64(h + 2), inside the source's block when mix64(h + 1) falls below
    * `pIn` and over all n otherwise.
    */
  def communities(n: Int, k: Int, mTarget: Int, pIn: Double, seed: Long): LocalGraph = {
    require(n >= 1, s"an SBM needs a node, got n=$n")
    require(k >= 1 && n % k == 0, s"k=$k must divide n=$n")
    require(pIn >= 0 && pIn <= 1, s"pIn=$pIn is not a probability")
    val bs = n / k
    fromDraws(n, mTarget, seed) { h =>
      val s = (unit(mix64(h)) * n).toLong
      val t = unit(mix64(h + 2))
      (s, if (unit(mix64(h + 1)) < pIn) s / bs * bs + (t * bs).toLong else (t * n).toLong)
    }
  }

  /** CSR over `n` nodes of the edges `draw(mix64(mix64(seed) ^ mix64(e)))`
    * for e in [0, `mTarget`): self-loops dropped, duplicates removed by
    * sorting the keys s·n + d, then every node without an out-edge gets
    * the edge u → (u+1) mod n, so Ã^T is column-stochastic and the paper's
    * norm lemmas (`‖x^(i)‖₁ = c(1-c)^i`) hold exactly. The patch edges are
    * merged into place, so the edge list reaches `fromEdges` sorted by
    * (src, dst).
    */
  private def fromDraws(n: Int, mTarget: Long, seed: Long)(draw: Long => (Long, Long)): LocalGraph = {
    require(mTarget >= 0 && mTarget + n < Int.MaxValue, s"cannot hold $mTarget edges over $n nodes")
    val keys = new Array[Long](mTarget.toInt)
    val seedHash = mix64(seed)
    var k = 0
    var e = 0L
    while (e < mTarget) {
      val (s, d) = draw(mix64(seedHash ^ mix64(e)))
      if (s != d) { keys(k) = s * n + d; k += 1 }
      e += 1
    }
    java.util.Arrays.sort(keys, 0, k)
    var m = 0
    var i = 0
    while (i < k) {
      if (m == 0 || keys(i) != keys(m - 1)) { keys(m) = keys(i); m += 1 }
      i += 1
    }
    val hasOut = new Array[Boolean](n)
    var dangling = n
    i = 0
    while (i < m) {
      val s = (keys(i) / n).toInt
      if (!hasOut(s)) { hasOut(s) = true; dangling -= 1 }
      i += 1
    }
    val src = new Array[Int](m + dangling)
    val dst = new Array[Int](m + dangling)
    var out = 0
    i = 0
    var u = 0
    while (u < n) {
      if (hasOut(u))
        while (i < m && keys(i) / n == u) { src(out) = u; dst(out) = (keys(i) % n).toInt; out += 1; i += 1 }
      else { src(out) = u; dst(out) = (u + 1) % n; out += 1 }
      u += 1
    }
    LocalGraph.fromEdges(n, src, dst)
  }

  /** The edges of `g` as a (`src`, `dst`) DataFrame of longs, over the
    * default parallelism: the input of the Spark engines.
    */
  def edgeFrame(spark: SparkSession, g: LocalGraph): DataFrame =
    edgeFrame(spark, g, spark.sparkContext.defaultParallelism)

  /** The edges of `g` in `parts` partitions: partition p holds the CSR
    * edges [p·m/parts, (p+1)·m/parts) in CSR order. The CSR arrays are
    * broadcast once and each task expands its own slice, so no task
    * carries edges in its closure.
    */
  private[repro] def edgeFrame(spark: SparkSession, g: LocalGraph, parts: Int): DataFrame = {
    import spark.implicits._
    val sc = spark.sparkContext
    val offsets = sc.broadcast(g.offsets)
    val targets = sc.broadcast(g.targets)
    val m = g.m.toLong
    sc.parallelize(0 until parts, parts).flatMap { p =>
      val off = offsets.value
      val tgt = targets.value
      var u = 0
      Iterator.range((p * m / parts).toInt, ((p + 1) * m / parts).toInt).map { k =>
        while (off(u + 1) <= k) u += 1
        (u.toLong, tgt(k).toLong)
      }
    }.toDF("src", "dst")
  }

  /** Row-normalized weights: each edge (src, dst) gets `w = 1/outdeg(src)`,
    * i.e. the entries of Ã used by `x^(i+1) = (1-c) Ã^T x^(i)`.
    */
  def normalize(edges: DataFrame): DataFrame = {
    val deg = edges.groupBy("src").agg(count(lit(1)).as("outdeg"))
    edges.join(deg, Seq("src"))
      .select(col("src"), col("dst"), (lit(1.0) / col("outdeg")).as("w"))
  }
}
