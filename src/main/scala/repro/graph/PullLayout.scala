package repro.graph

/** The in-lists of a graph, laid out for the pull team of
  * `repro.core.LocalCpi`'s converging runs.
  *
  * The nodes are cut into `ranges` contiguous ranges of about equal pull
  * cost, [[PullLayout.NodeCost]] per node plus one per in-edge; range k
  * holds nodes `bounds(k) until bounds(k+1)`. `nodes` lists every range's
  * nodes at the same positions, ordered by ascending in-degree, ties in
  * ascending id, so a thread pulling a range meets in-lists of one length
  * in a row and its loop exit is predicted. The in-list of `nodes(p)` is
  * `sources(inOffsets(p) until inOffsets(p+1))`, stored in that order, with
  * the sources ascending and the copies of a duplicate edge next to each
  * other. `position` inverts `nodes`: node v sits at `position(v)`, which
  * is how [[LocalGraph.foreachIn]] and [[LocalGraph.inDeg]] find its
  * in-list.
  *
  * It holds (3n + 1 + m) ints plus the bounds, and is the graph's only
  * in-list structure.
  */
final class PullLayout private (val bounds: Array[Int], val nodes: Array[Int],
                                val position: Array[Int], val inOffsets: Array[Int],
                                val sources: Array[Int]) {

  /** Number of node ranges. */
  def ranges: Int = bounds.length - 1
}

object PullLayout {

  /** A graph's own layout ([[LocalGraph.pullLayout]]) has one range per
    * core: the pull team runs one thread per core.
    */
  private[graph] val Ranges: Int = Runtime.getRuntime.availableProcessors

  /** A node costs a range about as much as this many in-edges: its writes
    * and the entry and exit of its in-list loop. Measured on the pokec-s and
    * twitter-s analogs, where the ranges then take equal time within 2–12 %
    * (DESIGN.md §2).
    */
  private val NodeCost = 8L

  /** The layout of `g` in `ranges` ranges, in O(n + m + ranges · max
    * in-degree): two counting sorts straight from the CSR.
    */
  def build(g: LocalGraph, ranges: Int): PullLayout = {
    require(ranges >= 1, s"a pull layout needs a range, got $ranges")
    val n = g.n; val offsets = g.offsets; val targets = g.targets
    val inDeg = new Array[Int](n)
    var j = 0
    while (j < targets.length) { inDeg(targets(j)) += 1; j += 1 }
    var maxDeg = 0
    var v = 0
    while (v < n) { if (inDeg(v) > maxDeg) maxDeg = inDeg(v); v += 1 }

    // Range k starts at the first node whose cost prefix reaches k/ranges of the total.
    val bounds = new Array[Int](ranges + 1)
    val total = NodeCost * n + targets.length
    var cost = 0L
    v = 0
    var k = 1
    while (k < ranges) {
      val goal = total * k / ranges
      while (cost < goal) { cost += NodeCost + inDeg(v); v += 1 }
      bounds(k) = v
      k += 1
    }
    bounds(ranges) = n

    // Each range's nodes by ascending in-degree, stably: a counting sort per range.
    val nodes = new Array[Int](n)
    val slot = new Array[Int](maxDeg + 1)
    k = 0
    while (k < ranges) {
      val lo = bounds(k); val hi = bounds(k + 1)
      var top = 0
      v = lo
      while (v < hi) { slot(inDeg(v)) += 1; if (inDeg(v) > top) top = inDeg(v); v += 1 }
      var at = lo
      var d = 0
      while (d <= top) { val count = slot(d); slot(d) = at; at += count; d += 1 }
      v = lo
      while (v < hi) { nodes(slot(inDeg(v))) = v; slot(inDeg(v)) += 1; v += 1 }
      java.util.Arrays.fill(slot, 0, top + 1, 0)
      k += 1
    }

    // The in-lists in that order: a counting sort of the edges by target,
    // visited in CSR order, so each in-list's sources come out ascending.
    // `inDeg` becomes each node's fill cursor.
    val position = new Array[Int](n)
    val inOffsets = new Array[Int](n + 1)
    var p = 0
    while (p < n) {
      val w = nodes(p)
      position(w) = p
      inOffsets(p + 1) = inOffsets(p) + inDeg(w)
      inDeg(w) = inOffsets(p)
      p += 1
    }
    val sources = new Array[Int](targets.length)
    var u = 0
    while (u < n) {
      j = offsets(u)
      val end = offsets(u + 1)
      while (j < end) { val t = targets(j); sources(inDeg(t)) = u; inDeg(t) += 1; j += 1 }
      u += 1
    }
    new PullLayout(bounds, nodes, position, inOffsets, sources)
  }
}
