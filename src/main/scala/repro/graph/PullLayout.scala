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
  * in-list structure. [[PullLayout.build]] makes it with a [[Team]]: at a
  * converging run's start, the team that then pulls its hops.
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
  private[graph] val NodeCost = 8L

  /** The layout of `g` in [[Chunks]] chunks, built by `team` in one source
    * block per thread of the team.
    */
  private[graph] def build(g: LocalGraph, team: Team): PullLayout =
    build(g, Chunks, team.threads, team)

  /** The layout of `g` in `chunks` chunks, in O(blocks·n + m + max
    * in-degree): a counting sort of the nodes by in-degree and one of the
    * edges by target, straight from the CSR. The sources are cut into
    * `blocks` runs of about m/blocks edges, ascending in id. The team counts
    * each block's in-edges per target into an array of the block's own;
    * a prefix over the blocks gives each (block, target) pair the first
    * slot of its edges in the target's in-list, and the team scatters each
    * block's edges from there. Each in-list thus lists block 0's sources
    * first, then block 1's, each block's in CSR order: ascending source id,
    * whatever the block count.
    */
  private[graph] def build(g: LocalGraph, chunks: Int, blocks: Int, team: Team): PullLayout = {
    require(chunks >= 1, s"a pull layout needs a chunk, got $chunks")
    require(blocks >= 1, s"a pull layout build needs a block, got $blocks")
    val n = g.n; val m = g.m; val offsets = g.offsets; val targets = g.targets
    // Block b holds the sources first(b) until first(b+1): the first source
    // whose edges start at or after b·m/blocks.
    val first = new Array[Int](blocks + 1)
    var b = 1
    while (b < blocks) { first(b) = firstAtOrAfter(offsets, (m.toLong * b / blocks).toInt); b += 1 }
    first(blocks) = n

    // counts(b)(t) counts block b's edges into t, then becomes the number
    // of t's in-edges from the blocks before b, then block b's cursor into
    // t's in-list.
    val counts = new Array[Array[Int]](blocks)
    team.run(blocks) { b =>
      val count = new Array[Int](n)
      var j = offsets(first(b))
      val end = offsets(first(b + 1))
      while (j < end) { count(targets(j)) += 1; j += 1 }
      counts(b) = count
    }
    val inDeg = new Array[Int](n)
    var maxDeg = 0
    var v = 0
    while (v < n) {
      var sum = 0
      b = 0
      while (b < blocks) { val count = counts(b); val k = count(v); count(v) = sum; sum += k; b += 1 }
      inDeg(v) = sum
      if (sum > maxDeg) maxDeg = sum
      v += 1
    }

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
    // each block's edges in CSR order from its own cursors. `inDeg`
    // becomes each node's first in-list slot.
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
    val sources = new Array[Int](m)
    team.run(blocks) { b =>
      val cursor = counts(b)
      var t = 0
      while (t < n) { cursor(t) += inDeg(t); t += 1 }
      var u = first(b)
      val last = first(b + 1)
      while (u < last) {
        val pu = position(u)
        var j = offsets(u)
        val end = offsets(u + 1)
        while (j < end) { val t = targets(j); sources(cursor(t)) = pu; cursor(t) += 1; j += 1 }
        u += 1
      }
    }

    // Chunk k starts at the first position whose cost prefix reaches k/chunks of the total.
    val bounds = new Array[Int](chunks + 1)
    val total = NodeCost * n + m
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

  /** The first node u with offsets(u) ≥ edge, by bisection. */
  private def firstAtOrAfter(offsets: Array[Int], edge: Int): Int = {
    var lo = 0
    var hi = offsets.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (offsets(mid) < edge) lo = mid + 1 else hi = mid
    }
    lo
  }
}
