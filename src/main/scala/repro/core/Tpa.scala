package repro.core

import repro.graph.LocalGraph

/** TPA: Two Phase Approximation for RWR (Algorithms 2 and 3), driver-side.
  *
  * Preprocessing (stranger approximation, Algorithm 2): the stranger
  * tail of the *PageRank* CPI series, `p_stranger = Σ_{i≥T} x'^(i)`, is
  * seed-independent and computed once.
  *
  * Online (Algorithm 3): compute the family part exactly
  * (`r_family = Σ_{i<S} x^(i)`), estimate the neighbor part by scaling
  * the family part with the closed-form L1 ratio of Lemma 3, and add the
  * precomputed stranger vector.
  */
object Tpa {

  /** Precomputed TPA model: the approximate stranger vector plus the
    * (c, T) configuration it was built with. S is chosen per query.
    */
  final case class Model(stranger: Array[Double], c: Double, t: Int) {
    /** Bytes of preprocessed data (the paper's Fig 3 metric): one double
      * per node for the stranger vector. The graph itself (O(m)) is an
      * input, not preprocessed output, and is charged to every method
      * equally — we report it separately in the memory bench.
      */
    def memoryBytes: Long = stranger.length.toLong * 8
  }

  /** Closed-form scaling ratio ‖r_neighbor‖₁ / ‖r_family‖₁ (Lemma 3):
    * `((1-c)^S − (1-c)^T) / (1 − (1-c)^S)`.
    */
  def neighborFactor(c: Double, s: Int, t: Int): Double = {
    require(s >= 1 && t >= s, s"need 1 <= S <= T, got S=$s T=$t")
    (math.pow(1 - c, s) - math.pow(1 - c, t)) / (1.0 - math.pow(1 - c, s))
  }

  /** Theorem 2 accuracy bound: ‖r_CPI − r_TPA‖₁ ≤ 2(1-c)^S. */
  def accuracyBound(c: Double, s: Int): Double = 2.0 * math.pow(1 - c, s)

  /** Preprocessing phase (Algorithm 2): approximate stranger vector
    * `p_stranger = Σ_{i=T}^{∞} x'^(i)` of the PageRank CPI series.
    */
  def preprocess(g: LocalGraph, c: Double, eps: Double, t: Int): Model = {
    require(t >= 1, s"need T >= 1, got T=$t")
    Model(LocalCpi.run(g, LocalCpi.uniformSeed(g.n), c, eps, t, Int.MaxValue), c, t)
  }

  /** Online phase (Algorithm 3) with the stranger vector from [[preprocess]].
    *
    * r_TPA = r_family · (1 + ‖r_nbr‖₁/‖r_fam‖₁) + p_stranger
    *
    * Only the family's support is merged into a copy of the stranger vector;
    * everywhere else r_TPA = p_stranger.
    */
  def online(g: LocalGraph, model: Model, s: Int, seed: Int, eps: Double): Array[Double] = {
    requireQuery(g, s, model.t, seed)
    require(model.stranger.length == g.n,
      s"model built for ${model.stranger.length} nodes, graph has ${g.n}")
    val scale = 1.0 + neighborFactor(model.c, s, model.t)
    addFamily(g, model.c, s, seed, eps, model.stranger.clone(), scale)
  }

  /** TPA-NA (Section IV-C): family + scaled neighbor, stranger omitted. */
  def onlineNA(g: LocalGraph, c: Double, s: Int, t: Int, seed: Int, eps: Double): Array[Double] = {
    requireQuery(g, s, t, seed)
    val scale = 1.0 + neighborFactor(c, s, t)
    addFamily(g, c, s, seed, eps, new Array[Double](g.n), scale)
  }

  /** Exact family part `r_family = Σ_{i=0}^{S-1} x^(i)` from seed node. */
  def family(g: LocalGraph, c: Double, s: Int, seed: Int, eps: Double): Array[Double] = {
    requireQuery(g, s, s, seed)
    addFamily(g, c, s, seed, eps, new Array[Double](g.n), 1.0)
  }

  /** Adds scale · r_family to `out`, over the family's support, and returns it. */
  private def addFamily(g: LocalGraph, c: Double, s: Int, seed: Int, eps: Double,
                        out: Array[Double], scale: Double): Array[Double] =
    LocalCpi.accumulate(g, c, eps, 0, s - 1)(_.startAt(seed))(_.addTo(out, scale))

  /** Rejects a bad query before any scratch is touched. */
  private def requireQuery(g: LocalGraph, s: Int, t: Int, seed: Int): Unit = {
    LocalGraph.requireSeed(g.n, seed)
    require(s >= 1 && t >= s, s"need 1 <= S <= T, got S=$s T=$t")
  }
}
