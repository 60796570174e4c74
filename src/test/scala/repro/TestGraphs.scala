package repro

import repro.graph.LocalGraph

import scala.collection.mutable
import scala.util.Random

/** Deterministic driver-side graph builders for unit tests (no Spark),
  * plus two vector helpers. All but [[withDangling]] are dangling-free so
  * the paper's norm lemmas hold exactly; the SBM builder is
  * [[repro.graph.GraphGen.communities]]. [[random]] and [[withDangling]]
  * draw from `scala.util.Random` and list their edges in draw order, so
  * their builds take `LocalGraph.fromEdges`'s path for unsorted input.
  */
object TestGraphs {

  /** Random digraph: `m` draws over [0,n)², dedup, no self-loops, then
    * dangling nodes patched with an edge to their successor.
    */
  def random(n: Int, m: Int, seed: Long): LocalGraph =
    localPatched(n, distinctDraws(m, seed)(r => (r.nextInt(n), r.nextInt(n))), n)

  /** Directed cycle 0→1→…→n-1→0. */
  def cycle(n: Int): LocalGraph =
    fromPairs(n, (0 until n).map(u => (u, (u + 1) % n)))

  /** Complete digraph (no self-loops). */
  def clique(n: Int): LocalGraph =
    fromPairs(n, for { u <- 0 until n; v <- 0 until n if u != v } yield (u, v))

  /** A graph with a deliberate dangling node (node n-1 has no out-edges);
    * every other node is patched to have one.
    */
  def withDangling(n: Int, m: Int, seed: Long): LocalGraph =
    localPatched(n, distinctDraws(m, seed)(r => (r.nextInt(n - 1), r.nextInt(n))), n - 1)

  /** Up to `m` distinct edges from `draw`, self-loops dropped, in first-draw
    * order; gives up after 10·m draws.
    */
  private def distinctDraws(m: Int, seed: Long)(draw: Random => (Int, Int)): Seq[(Int, Int)] = {
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
    * without an out-edge, the edge u → (u+1) mod `patchBelow`.
    */
  private def localPatched(n: Int, pairs: Seq[(Int, Int)], patchBelow: Int): LocalGraph = {
    val has = new Array[Boolean](patchBelow)
    pairs.foreach(p => has(p._1) = true)
    val all = pairs ++ (0 until patchBelow).collect { case u if !has(u) => (u, (u + 1) % patchBelow) }
    LocalGraph.fromEdges(n, all.map(_._1).toArray, all.map(_._2).toArray)
  }

  private def fromPairs(n: Int, pairs: Seq[(Int, Int)]): LocalGraph =
    LocalGraph.fromEdges(n, pairs.map(_._1).toArray, pairs.map(_._2).toArray)

  /** Exact RWR via Breeze dense solve: `r = c (I − (1-c) Ã^T)^{-1} q`.
    * Independent of both CPI and PI — the strongest test oracle here.
    */
  def denseSolve(g: LocalGraph, q: Array[Double], c: Double): Array[Double] = {
    import breeze.linalg.{inv, DenseMatrix, DenseVector}
    val w = DenseMatrix.zeros[Double](g.n, g.n)
    var u = 0
    while (u < g.n) {
      val d = g.outDeg(u)
      if (d > 0) {
        val share = (1.0 - c) / d
        g.foreachOut(u)(v => w(v, u) += share)
      }
      u += 1
    }
    val h = DenseMatrix.eye[Double](g.n) - w
    (inv(h) * (DenseVector(q) *:* c)).toArray
  }

  /** ‖a‖₁. */
  def norm1(a: Array[Double]): Double = a.map(math.abs).sum
}
