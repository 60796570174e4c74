package repro.baselines

import breeze.linalg.{inv, DenseMatrix, DenseVector}
import repro.graph.LocalGraph

/** BEAR-APPROX (Shin, Jung, Sael & Kang, SIGMOD 2015 / TODS 2016) —
  * preprocessing competitor based on block elimination with a drop
  * tolerance.
  *
  * Nodes are reordered hubs-last by total degree (our stand-in for
  * SlashBurn hub-and-spoke ordering); with `H = I − (1-c) Ã^T` permuted
  * into `[H11 H12; H21 H22]` (spokes × spokes first), preprocessing
  * stores `H11^{-1}`, `H12`, `H21` and the inverse Schur complement
  * `S^{-1} = (H22 − H21 H11^{-1} H12)^{-1}`, then zeroes entries whose
  * absolute value is below the drop tolerance (paper setting:
  * `n^{-1/2}`). Online solves the 2×2 block system:
  *
  *   r2 = S^{-1}(c q2 − H21 H11^{-1} c q1)
  *   r1 = H11^{-1}(c q1 − H12 r2)
  *
  * Exact at drop tolerance 0 (tested). The dense inverses are O(n³) in
  * time and O(n²) in memory — which is why BEAR-APPROX fails to
  * preprocess graphs beyond Slashdot in the paper.
  */
object BearApprox {

  /** Precomputed BEAR model. `order(i)` = original id of permuted index i
    * (spokes occupy `[0, n1)`, hubs `[n1, n)`).
    */
  final case class Model(order: Array[Int], n1: Int,
                         h11inv: DenseMatrix[Double], h12: DenseMatrix[Double],
                         h21: DenseMatrix[Double], sInv: DenseMatrix[Double],
                         c: Double, dropTol: Double) {
    /** Bytes of preprocessed data: 8 bytes per retained nonzero. */
    def memoryBytes: Long =
      8L * (nnz(h11inv) + nnz(h12) + nnz(h21) + nnz(sInv))
    private def nnz(m: DenseMatrix[Double]): Long = {
      var cnt = 0L
      m.foreachValue(v => if (v != 0.0) cnt += 1)
      cnt
    }
  }

  /** Preprocess with `hubFrac` of the nodes (highest total degree) as hubs. */
  def preprocess(g: LocalGraph, c: Double, hubFrac: Double, dropTol: Double): Model = {
    LocalGraph.requireParams(c)
    val n = g.n
    val h = math.max(1, math.min(n - 1, (n * hubFrac).toInt))
    val byDeg = Array.range(0, n).sortBy(u => -(g.outDeg(u) + g.inDeg(u)))
    val hubs = byDeg.take(h)
    val spokes = byDeg.drop(h)
    val order = spokes ++ hubs // permuted index -> original id
    val posOf = new Array[Int](n)
    var i = 0
    while (i < n) { posOf(order(i)) = i; i += 1 }
    val n1 = n - h

    // H = I − (1-c) W in permuted coordinates, W(v,u) = 1/outdeg(u).
    val hm = DenseMatrix.eye[Double](n)
    var u = 0
    while (u < n) {
      val d = g.outDeg(u)
      if (d > 0) {
        val w = (1.0 - c) / d
        g.foreachOut(u)(v => hm(posOf(v), posOf(u)) -= w)
      }
      u += 1
    }
    val h11 = hm(0 until n1, 0 until n1).toDenseMatrix
    val h12 = hm(0 until n1, n1 until n).toDenseMatrix
    val h21 = hm(n1 until n, 0 until n1).toDenseMatrix
    val h22 = hm(n1 until n, n1 until n).toDenseMatrix
    val h11inv = inv(h11)
    val sInv = inv(h22 - h21 * h11inv * h12)
    if (dropTol > 0) { drop(h11inv, dropTol); drop(sInv, dropTol) }
    Model(order, n1, h11inv, h12, h21, sInv, c, dropTol)
  }

  private def drop(m: DenseMatrix[Double], tol: Double): Unit = {
    var j = 0
    while (j < m.cols) {
      var i = 0
      while (i < m.rows) {
        if (math.abs(m(i, j)) < tol) m(i, j) = 0.0
        i += 1
      }
      j += 1
    }
  }

  /** Online query via block elimination. */
  def query(model: Model, seed: Int): Array[Double] = {
    val n = model.order.length
    LocalGraph.requireSeed(n, seed)
    val n1 = model.n1
    val q = DenseVector.zeros[Double](n)
    // position of seed in permuted coordinates
    var pos = -1
    var i = 0
    while (i < n && pos < 0) { if (model.order(i) == seed) pos = i; i += 1 }
    q(pos) = model.c
    val q1 = q(0 until n1)
    val q2 = q(n1 until n)
    val r2 = model.sInv * (q2 - model.h21 * (model.h11inv * q1))
    val r1 = model.h11inv * (q1 - model.h12 * r2)
    val out = new Array[Double](n)
    i = 0
    while (i < n1) { out(model.order(i)) = r1(i); i += 1 }
    while (i < n) { out(model.order(i)) = r2(i - n1); i += 1 }
    out
  }
}
