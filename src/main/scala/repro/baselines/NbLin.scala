package repro.baselines

import breeze.linalg.{inv, svd, DenseMatrix, DenseVector}
import repro.graph.LocalGraph

/** NB-LIN (Tong, Faloutsos & Pan, KAIS 2008) — preprocessing competitor
  * based on low-rank approximation plus the Sherman–Morrison–Woodbury
  * identity.
  *
  * With `W = Ã^T ≈ U Σ V` (rank-k SVD), the RWR solution
  * `r = c (I − (1-c)W)^{-1} q` has the closed form
  *
  *   `r = c q + c(1-c) · U Λ (V q)`,   `Λ = (Σ^{-1} − (1-c) V U)^{-1}`.
  *
  * Preprocessing builds the dense W, its SVD, and Λ — O(n³), which is
  * exactly why NB-LIN fails to preprocess larger graphs in the paper
  * (out of time from Pokec onward). The online phase is two thin dense
  * mat-vecs, O(nk). At full rank the identity is exact (tested).
  */
object NbLin {

  /** Precomputed NB-LIN model: U (n×k), Λ (k×k), V (k×n). */
  final case class Model(u: DenseMatrix[Double], lambda: DenseMatrix[Double],
                         v: DenseMatrix[Double], c: Double) {
    /** Bytes of preprocessed data (dense U, Λ, V). */
    def memoryBytes: Long =
      8L * (u.rows.toLong * u.cols + lambda.rows.toLong * lambda.cols +
            v.rows.toLong * v.cols)
  }

  /** Dense column-stochastic transition matrix W = Ã^T. */
  def denseW(g: LocalGraph): DenseMatrix[Double] = {
    val w = DenseMatrix.zeros[Double](g.n, g.n)
    var u = 0
    while (u < g.n) {
      val d = g.outDeg(u)
      if (d > 0) {
        val share = 1.0 / d
        g.foreachOut(u)(v => w(v, u) += share)
      }
      u += 1
    }
    w
  }

  /** Singular values at or below this are dropped, keeping Σ^{-1} well conditioned. */
  private val SigmaTol = 1e-12

  /** Preprocess: rank-k SVD of W plus Λ. */
  def preprocess(g: LocalGraph, c: Double, rank: Int): Model = {
    LocalGraph.requireParams(c)
    val w = denseW(g)
    val svd.SVD(uFull, sVec, vtFull) = svd(w)
    val kEff = math.min(rank, sVec.toArray.count(_ > SigmaTol))
    val u = uFull(::, 0 until kEff).toDenseMatrix
    val vt = vtFull(0 until kEff, ::).toDenseMatrix
    val sInv = DenseMatrix.tabulate[Double](kEff, kEff)((i, j) =>
      if (i == j) 1.0 / sVec(i) else 0.0)
    val lambda = inv(sInv - (vt * u) * (1.0 - c))
    Model(u, lambda, vt, c)
  }

  /** Online query: `r = c e_s + c(1-c) U Λ V e_s`. */
  def query(model: Model, seed: Int): Array[Double] = {
    LocalGraph.requireSeed(model.v.cols, seed)
    val vq = model.v(::, seed).toDenseVector // V e_s = column s of V
    val core: DenseVector[Double] = model.u * (model.lambda * vq)
    val r = core *:* (model.c * (1.0 - model.c))
    r(seed) += model.c
    r.toArray
  }
}
