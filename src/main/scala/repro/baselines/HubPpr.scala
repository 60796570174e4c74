package repro.baselines

import repro.graph.LocalGraph
import scala.collection.mutable

/** HubPPR (Wang et al., VLDB 2016) — bidirectional competitor with a
  * hub index.
  *
  * A single-pair PPR query π(s,t) combines:
  *  - a backward push from target t (Andersen et al. reverse push) over
  *    the graph's in-lists ([[LocalGraph.foreachIn]]),
  *    yielding estimates `p_t` and residuals `res_t` with the invariant
  *    `π(s,t) = p_t(s) + Σ_v π(s,v) · res_t(v)`, and
  *  - Monte-Carlo forward walks from s: a walk that restarts (i.e.
  *    terminates) with probability c at each step ends at v with
  *    probability exactly π(s,v), so
  *    `π̂(s,t) = p_t(s) + (1/W) Σ_walks res_t(endpoint)`.
  *
  * The hub index precomputes backward-push results for the highest
  * in-degree nodes (the paper's backward oracle) so online queries on
  * hub targets skip the push. Answering a *full RWR vector* — what TPA
  * computes — requires one query per target node, which is why HubPPR's
  * online time explodes in the paper (10⁴× TPA).
  */
object HubPpr {

  /** Sparse backward-push result for one target. */
  final case class PushResult(p: mutable.LongMap[Double], res: mutable.LongMap[Double])

  /** Hub index: target node -> precomputed backward push. */
  final case class Model(index: Map[Int, PushResult], c: Double, rMax: Double) {
    /** Bytes of preprocessed data: 12 bytes per stored (node, score) entry. */
    def memoryBytes: Long =
      index.valuesIterator.map(pr => 12L * (pr.p.size + pr.res.size)).sum
  }

  /** Backward push from target `t` until every residual ≤ `rMax`. Rejects
    * a `t` outside [0, n), a c outside (0, 1) and a non-positive or NaN rMax.
    */
  def backwardPush(g: LocalGraph, t: Int, c: Double, rMax: Double): PushResult = {
    LocalGraph.requireSeed(g.n, t)
    LocalGraph.requireParams(c, "rMax" -> rMax)
    val p = mutable.LongMap.empty[Double]
    val res = mutable.LongMap.empty[Double]
    res(t) = 1.0
    val queue = new java.util.ArrayDeque[Integer]()
    queue.add(t)
    val inQueue = mutable.BitSet(t)
    while (!queue.isEmpty) {
      val v = queue.poll().intValue()
      inQueue -= v
      val rv = res.getOrElse(v, 0.0)
      if (rv > rMax) {
        res(v) = 0.0
        p(v) = p.getOrElse(v.toLong, 0.0) + c * rv
        // propagate to in-neighbors u: res(u) += (1-c) rv / outdeg(u)
        g.foreachIn(v) { u =>
          val du = g.outDeg(u)
          if (du > 0) {
            val nu = res.getOrElse(u, 0.0) + (1.0 - c) * rv / du
            res(u) = nu
            if (nu > rMax && !inQueue(u)) { queue.add(u); inQueue += u }
          }
        }
      }
    }
    PushResult(p, res)
  }

  /** Preprocess: backward pushes for the `numHubs` highest in-degree nodes. */
  def preprocess(g: LocalGraph, c: Double, rMax: Double, numHubs: Int): Model = {
    LocalGraph.requireParams(c, "rMax" -> rMax)
    val hubs = Array.range(0, g.n).sortBy(u => -g.inDeg(u)).take(numHubs)
    Model(hubs.map(t => t -> backwardPush(g, t, c, rMax)).toMap, c, rMax)
  }

  /** Endpoints of `walks` c-terminating random walks from `s`, as a
    * node -> count map. Shared across all targets of a full-vector query.
    */
  def sampleEndpoints(g: LocalGraph, s: Int, c: Double, walks: Int,
                      rng: scala.util.Random): mutable.LongMap[Int] = {
    LocalGraph.requireSeed(g.n, s)
    LocalGraph.requireParams(c)
    require(walks >= 0, s"walks must be >= 0, got $walks")
    val counts = mutable.LongMap.empty[Int]
    var w = 0
    while (w < walks) {
      var cur = s
      var walking = true
      while (walking) {
        if (rng.nextDouble() < c) walking = false
        else {
          val d = g.outDeg(cur)
          if (d == 0) walking = false // dangling: terminate (leak)
          else cur = g.targets(g.offsets(cur) + rng.nextInt(d))
        }
      }
      counts(cur) = counts.getOrElse(cur.toLong, 0) + 1
      w += 1
    }
    counts
  }

  /** Single-pair estimate π̂(s,t) given pre-sampled walk endpoints. */
  def estimate(model: Model, g: LocalGraph, s: Int, t: Int,
               endpoints: mutable.LongMap[Int], walks: Int): Double = {
    val pr = model.index.getOrElse(t, backwardPush(g, t, model.c, model.rMax))
    var est = pr.p.getOrElse(s.toLong, 0.0)
    pr.res.foreachEntry { (v, rv) =>
      if (rv != 0.0) {
        val cnt = endpoints.getOrElse(v, 0)
        if (cnt > 0) est += rv * cnt.toDouble / walks
      }
    }
    est
  }

  /** Full RWR vector from `s`: one bidirectional query per target node. */
  def fullVector(model: Model, g: LocalGraph, s: Int, walks: Int,
                 rng: scala.util.Random): Array[Double] = {
    LocalGraph.requireSeed(g.n, s)
    val endpoints = sampleEndpoints(g, s, model.c, walks, rng)
    Array.tabulate(g.n)(estimate(model, g, s, _, endpoints, walks))
  }
}
