package repro.baselines

import repro.graph.LocalGraph

/** RPPR and BRPPR (Gleich & Polito, Internet Mathematics 2006) — the
  * paper's two non-preprocessing online competitors.
  *
  * Both restrict computation to an adaptively grown active subgraph.
  * We implement them as local push (bookmark-coloring): maintain an
  * estimate `p` and residual `res` with the invariant
  * `r_exact = p + Σ_v res(v) · rwr_v`; pushing node u moves `c·res(u)`
  * into `p(u)` and spreads `(1-c)·res(u)/outdeg(u)` to out-neighbors.
  *
  * - RPPR expands (pushes) any node whose residual exceeds the
  *   tolerance θ (paper setting: 1e-4).
  * - BRPPR expands highest-residual nodes first until the total
  *   residual mass on the frontier drops below κ.
  *
  * Both converge to the exact RWR as θ, κ → 0 (tested). Each returns
  * the score estimate `p`.
  */
object Rppr {

  /** RPPR: push every node with residual > theta until none remain. */
  def rppr(g: LocalGraph, seed: Int, c: Double, theta: Double): Array[Double] = {
    LocalGraph.requireSeed(g.n, seed)
    LocalGraph.requireParams(c, "theta" -> theta)
    val p = new Array[Double](g.n)
    val res = new Array[Double](g.n)
    val inQueue = new Array[Boolean](g.n)
    val queue = new java.util.ArrayDeque[Integer]()
    res(seed) = 1.0
    queue.add(seed); inQueue(seed) = true
    while (!queue.isEmpty) {
      val u = queue.poll().intValue()
      inQueue(u) = false
      val ru = res(u)
      if (ru > theta) {
        res(u) = 0.0
        p(u) += c * ru
        val d = g.outDeg(u)
        if (d > 0) {
          val share = (1.0 - c) * ru / d
          var j = g.offsets(u)
          val end = g.offsets(u + 1)
          while (j < end) {
            val v = g.targets(j)
            res(v) += share
            if (!inQueue(v) && res(v) > theta) { queue.add(v); inQueue(v) = true }
            j += 1
          }
        }
      }
    }
    p
  }

  /** BRPPR: push in (approximately) descending residual order until the
    * total residual mass drops below kappa.
    *
    * A node enters the priority queue once per activation (priority =
    * residual at activation time); its live residual may have grown by
    * poll time, which only makes the push larger — correctness does not
    * depend on exact max-first order, so stale priorities are harmless
    * and the queue stays O(n) instead of O(edge traversals).
    */
  def brppr(g: LocalGraph, seed: Int, c: Double, kappa: Double): Array[Double] = {
    LocalGraph.requireSeed(g.n, seed)
    LocalGraph.requireParams(c, "kappa" -> kappa)
    val p = new Array[Double](g.n)
    val res = new Array[Double](g.n)
    val inPq = new Array[Boolean](g.n)
    val pq = new java.util.PriorityQueue[(Double, Int)](
      11, (x: (Double, Int), y: (Double, Int)) => java.lang.Double.compare(y._1, x._1))
    res(seed) = 1.0
    pq.add((1.0, seed)); inPq(seed) = true
    var totalRes = 1.0
    while (totalRes >= kappa && !pq.isEmpty) {
      val u = pq.poll()._2
      inPq(u) = false
      val ru = res(u)
      if (ru > 0) {
        res(u) = 0.0
        p(u) += c * ru
        totalRes -= c * ru
        val d = g.outDeg(u)
        if (d > 0) {
          val share = (1.0 - c) * ru / d
          var j = g.offsets(u)
          val end = g.offsets(u + 1)
          while (j < end) {
            val v = g.targets(j)
            res(v) += share
            if (!inPq(v)) { pq.add((res(v), v)); inPq(v) = true }
            j += 1
          }
        } else {
          totalRes -= (1.0 - c) * ru // dangling leak
        }
      }
    }
    p
  }
}
