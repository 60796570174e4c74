package repro.core

import repro.graph.LocalGraph

/** The plain dense CPI-IMPL loop: every hop allocates and scans all n
  * slots. Kept as the reference the sparse-frontier kernel of [[LocalCpi]]
  * must match bit for bit; same contract as [[LocalCpi.run]].
  */
object ReferenceCpi {

  def run(g: LocalGraph, q: Array[Double], c: Double, eps: Double,
          sIter: Int, tIter: Int): Array[Double] = {
    val r = new Array[Double](g.n)
    if (tIter < 0) return r
    var x = new Array[Double](g.n)
    var i = 0
    while (i < g.n) { x(i) = q(i) * c; i += 1 }
    if (sIter <= 0) axpy(r, x)

    var iter = 1
    var done = tIter == 0
    while (!done) {
      val nx = new Array[Double](g.n)
      var norm = 0.0
      var u = 0
      while (u < g.n) {
        val xu = x(u)
        if (xu != 0.0) {
          val d = g.outDeg(u)
          if (d > 0) {
            val share = xu * (1.0 - c) / d
            var j = g.offsets(u)
            val end = g.offsets(u + 1)
            while (j < end) { nx(g.targets(j)) += share; j += 1 }
          }
        }
        u += 1
      }
      u = 0
      while (u < g.n) { norm += nx(u); u += 1 }
      if (iter >= sIter && iter <= tIter) axpy(r, nx)
      x = nx
      if (norm < eps || iter >= tIter) done = true
      iter += 1
    }
    r
  }

  /** TPA online answer built from reference runs, as the dense merge did it. */
  def tpa(g: LocalGraph, c: Double, s: Int, t: Int, seed: Int, eps: Double): Array[Double] = {
    val fam = run(g, LocalCpi.unitSeed(g.n, seed), c, eps, 0, s - 1)
    val stranger = run(g, LocalCpi.uniformSeed(g.n), c, eps, t, Int.MaxValue)
    val scale = 1.0 + Tpa.neighborFactor(c, s, t)
    Array.tabulate(g.n)(i => fam(i) * scale + stranger(i))
  }

  private def axpy(acc: Array[Double], v: Array[Double]): Unit = {
    var i = 0
    while (i < acc.length) { acc(i) += v(i); i += 1 }
  }
}
