package repro.graph

/** The in-lists of a graph, laid out for the pull team of
  * `repro.core.LocalCpi`'s converging runs.
  *
  * `nodes` lists every node once, by ascending in-degree, ties in ascending
  * id, so a thread pulling a run of positions meets in-lists of one length
  * in a row and its loop exit is predicted. The order does not depend on
  * the core count. `position` inverts `nodes`: node v sits at
  * `position(v)`. The team works in positions: the in-list of position p
  * is `sources(inOffsets(p) until inOffsets(p+1))`, each entry the
  * position of an in-neighbor, stored in ascending id of the in-neighbors,
  * with the copies of a duplicate edge next to each other, and `outDeg(p)`
  * is the out-degree of `nodes(p)`. [[LocalGraph.foreachIn]] and
  * [[LocalGraph.inDeg]] read the in-lists by node through `position` and
  * `nodes`.
  *
  * The positions are cut into `chunks` runs of about equal pull cost,
  * [[PullLayout.NodeCost]] per node plus one per in-edge; chunk k holds
  * positions `bounds(k) until bounds(k+1)`, and a chunk past a hub whose
  * cost alone exceeds a chunk's share may be empty. The team's threads
  * claim chunks one at a time.
  *
  * It holds (4n + 1 + m) ints plus the bounds, and is the graph's only
  * in-list structure.
  */
final class PullLayout private (val bounds: Array[Int], val nodes: Array[Int],
                                val position: Array[Int], val inOffsets: Array[Int],
                                val sources: Array[Int], val outDeg: Array[Int]) {

  /** Number of chunks. */
  def chunks: Int = bounds.length - 1
}

object PullLayout {

  /** A graph's own layout ([[LocalGraph.pullLayout]]) has eight chunks per
    * core, so a thread that finishes early claims another chunk rather than
    * wait for the slowest one (DESIGN.md §2).
    */
  private[graph] val Chunks: Int = 8 * Runtime.getRuntime.availableProcessors

  /** A node costs a chunk about as much as this many in-edges: its writes
    * and the entry and exit of its in-list loop (DESIGN.md §2).
    */
  private val NodeCost = 8L

  /** The layout of `g` in `chunks` chunks, in O(n + m + max in-degree): a
    * counting sort of the nodes by in-degree and one of the edges by target,
    * straight from the CSR.
    */
  def build(g: LocalGraph, chunks: Int): PullLayout = {
    require(chunks >= 1, s"a pull layout needs a chunk, got $chunks")
    val n = g.n; val offsets = g.offsets; val targets = g.targets
    val inDeg = new Array[Int](n)
    var j = 0
    while (j < targets.length) { inDeg(targets(j)) += 1; j += 1 }
    var maxDeg = 0
    var v = 0
    while (v < n) { if (inDeg(v) > maxDeg) maxDeg = inDeg(v); v += 1 }

    // The nodes by ascending in-degree, stably.
    val slot = new Array[Int](maxDeg + 1)
    v = 0
    while (v < n) { slot(inDeg(v)) += 1; v += 1 }
    var at = 0
    var d = 0
    while (d <= maxDeg) { val count = slot(d); slot(d) = at; at += count; d += 1 }
    val nodes = new Array[Int](n)
    v = 0
    while (v < n) { nodes(slot(inDeg(v))) = v; slot(inDeg(v)) += 1; v += 1 }

    // The in-lists in that order: a counting sort of the edges by target,
    // visited in CSR order, so each in-list's sources come out ascending.
    // `inDeg` becomes each node's fill cursor.
    val position = new Array[Int](n)
    val inOffsets = new Array[Int](n + 1)
    val outDeg = new Array[Int](n)
    var p = 0
    while (p < n) {
      val w = nodes(p)
      position(w) = p
      outDeg(p) = offsets(w + 1) - offsets(w)
      inOffsets(p + 1) = inOffsets(p) + inDeg(w)
      inDeg(w) = inOffsets(p)
      p += 1
    }
    val sources = new Array[Int](targets.length)
    var u = 0
    while (u < n) {
      val pu = position(u)
      j = offsets(u)
      val end = offsets(u + 1)
      while (j < end) { val t = targets(j); sources(inDeg(t)) = pu; inDeg(t) += 1; j += 1 }
      u += 1
    }

    // Chunk k starts at the first position whose cost prefix reaches k/chunks of the total.
    val bounds = new Array[Int](chunks + 1)
    val total = NodeCost * n + targets.length
    p = 0
    var k = 1
    while (k < chunks) {
      val goal = total * k / chunks
      while (NodeCost * p + inOffsets(p) < goal) p += 1
      bounds(k) = p
      k += 1
    }
    bounds(chunks) = n
    new PullLayout(bounds, nodes, position, inOffsets, sources, outDeg)
  }
}
