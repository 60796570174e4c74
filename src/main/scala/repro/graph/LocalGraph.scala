package repro.graph

/** Immutable CSR (compressed sparse row) digraph on the driver.
  *
  * Substrate for the sequential competitors (RPPR/BRPPR push, HubPPR
  * walks and backward push, NB-LIN/BEAR dense builds) and for the exact
  * ground-truth RWR (`LocalCpi`) — all of which are inherently
  * single-machine algorithms in their original papers (C++/MATLAB on
  * one core). The distributed paths (`Cpi`, `CpiGraphX`, `TpaSpark`)
  * read its edges as a DataFrame ([[GraphGen.edgeFrame]]) and never
  * collect the graph.
  *
  * `offsets` has length n+1, from 0 to m; out-neighbors of `u` are
  * `targets(offsets(u) until offsets(u+1))`. Its in-lists are kept once,
  * in [[pullLayout]], and read by node through [[foreachIn]] and
  * [[inDeg]].
  */
final class LocalGraph(val n: Int, val offsets: Array[Int], val targets: Array[Int]) {
  require(n >= 0 && offsets.length == n + 1, s"offsets length ${offsets.length} != n+1")
  require(offsets(0) == 0 && offsets(n) == targets.length,
    s"offsets run from ${offsets(0)} to ${offsets(n)}, not from 0 to m = ${targets.length}")

  /** Number of directed edges. */
  def m: Int = targets.length

  /** Out-degree of node `u`. */
  def outDeg(u: Int): Int = offsets(u + 1) - offsets(u)

  /** Apply `f` to each out-neighbor of `u`. */
  @inline def foreachOut(u: Int)(f: Int => Unit): Unit = {
    var i = offsets(u)
    val end = offsets(u + 1)
    while (i < end) { f(targets(i)); i += 1 }
  }

  @volatile private var layout: PullLayout = null

  /** The graph's in-lists in one order by in-degree, cut into eight chunks
    * per core for `LocalCpi`'s pull team, built by [[PullLayout.build]] on
    * first use and kept. The pull team reads it by position; [[foreachIn]]
    * and [[inDeg]] read it by node. A first use here builds it with a team
    * of its own ([[Team]]).
    */
  def pullLayout: PullLayout = {
    val built = layout
    if (built != null) built
    else {
      val team = Team(m)
      try pullLayout(team) finally team.stop()
    }
  }

  /** [[pullLayout]], built by `team` if it is not built yet: a converging
    * `LocalCpi` run builds it with the team that then pulls its hops. A
    * build that throws leaves nothing behind, and the next use builds anew.
    */
  private[repro] def pullLayout(team: Team): PullLayout = synchronized {
    if (layout == null) layout = PullLayout.build(this, team)
    layout
  }

  /** In-degree of node `v`. */
  def inDeg(v: Int): Int = {
    val layout = pullLayout
    val p = layout.position(v)
    layout.inOffsets(p + 1) - layout.inOffsets(p)
  }

  /** Apply `f` to each in-neighbor of `v`, in ascending source order, with
    * the copies of a duplicate edge next to each other.
    */
  @inline def foreachIn(v: Int)(f: Int => Unit): Unit = {
    val layout = pullLayout
    val p = layout.position(v)
    var i = layout.inOffsets(p)
    val end = layout.inOffsets(p + 1)
    while (i < end) { f(layout.nodes(layout.sources(i))); i += 1 }
  }

  /** `n=… m=… edge_hash=…`, where the edge hash Σ mix64(s·n + d) over the
    * edges ([[GraphGen.mix64]]) does not depend on their order, so the same
    * edge set gives the same fingerprint however it was built or split.
    */
  def fingerprint: String = {
    var hash = 0L
    var u = 0
    while (u < n) { foreachOut(u)(v => hash += GraphGen.mix64(u.toLong * n + v)); u += 1 }
    f"n=$n m=$m edge_hash=$hash%016x"
  }
}

object LocalGraph {

  /** Build CSR from parallel edge arrays (src(i) -> dst(i)). Each out-list
    * keeps its edges in input order. Rejects an endpoint outside [0, n),
    * naming the first edge that has one. A source-sorted list of more
    * than [[Team.MinEdges]] edges is checked and copied by a team of the
    * caller and one helper per further core; any other order is built by
    * the caller alone.
    */
  def fromEdges(n: Int, src: Array[Int], dst: Array[Int]): LocalGraph = {
    val team = Team(src.length)
    fromEdges(n, src, dst, team.threads, team)
  }

  /** [[fromEdges]] in `blocks` blocks on `team`, which it stops: the CSR
    * of [[copySorted]], or [[scatter]]'s if that finds the list unsorted
    * or an endpoint outside [0, n). The arrays do not depend on `blocks`.
    */
  private[graph] def fromEdges(n: Int, src: Array[Int], dst: Array[Int], blocks: Int, team: Team): LocalGraph = {
    val copied = try copySorted(n, src, dst, blocks, team) finally team.stop()
    if (copied != null) copied else scatter(n, src, dst)
  }

  /** The CSR of a list whose sources do not descend, with `targets` a copy
    * of `dst`, or null if the sources descend or an endpoint is outside
    * [0, n). The list is cut into `blocks` blocks of about m/blocks edges,
    * each cut moved forward to the start of a run of equal sources, so one
    * source's run lies in one block. In one phase of `team`, each block
    * checks its sources against [0, n) and against the edge before, from
    * the edge before its cut on, writing each run's end into `offsets`;
    * then it copies its slice of `dst` into `targets`, range-checked by one
    * OR reduction. The caller then gives each node without out-edges the
    * end of the node before it.
    */
  private def copySorted(n: Int, src: Array[Int], dst: Array[Int], blocks: Int, team: Team): LocalGraph = {
    require(n >= 0, s"node count $n is negative")
    require(src.length == dst.length, s"${src.length} sources but ${dst.length} targets")
    require(blocks >= 1, s"a CSR build needs a block, got $blocks")
    val m = src.length
    // Block b holds the edges cut(b) until cut(b + 1).
    val cut = new Array[Int](blocks + 1)
    var b = 1
    while (b <= blocks) {
      var i = math.max(cut(b - 1), (m.toLong * b / blocks).toInt)
      while (i > 0 && i < m && src(i) == src(i - 1)) i += 1
      cut(b) = i
      b += 1
    }
    val offsets = new Array[Int](n + 1)
    val targets = new Array[Int](m)
    val flagged = new Array[Boolean](blocks)
    team.run(blocks) { b =>
      val end = cut(b + 1)
      var i = cut(b)
      // A negative source before the cut is flagged by its own block.
      var last = if (i > 0) math.max(src(i - 1), 0) else 0
      while (i < end && src(i) >= last && src(i) < n) {
        val u = src(i)
        var j = i + 1
        while (j < end && src(j) == u) j += 1
        offsets(u + 1) = j
        last = u; i = j
      }
      if (i < end) flagged(b) = true
      else {
        // v | (n - 1 - v) is negative exactly when v < 0 or v >= n.
        var bad = 0
        i = cut(b)
        while (i < end) { val v = dst(i); targets(i) = v; bad |= v | (n - 1 - v); i += 1 }
        flagged(b) = bad < 0
      }
    }
    if (flagged.contains(true)) return null
    var u = 0
    while (u < n) { if (offsets(u + 1) < offsets(u)) offsets(u + 1) = offsets(u); u += 1 }
    new LocalGraph(n, offsets, targets)
  }

  /** [[fromEdges]] on a list whose sources are not sorted: counts the
    * edges of each source one by one, then puts each edge at the next free
    * slot of its source. Restarting from the first edge, into arrays of its
    * own, was faster on shuffled input than carrying on from the sorted
    * prefix's counts.
    */
  private def scatter(n: Int, src: Array[Int], dst: Array[Int]): LocalGraph = {
    val deg = new Array[Int](n)
    var i = 0
    while (i < src.length) {
      val u = src(i)
      if (u < 0 || u >= n) requireEndpoints(n, src, dst)
      deg(u) += 1; i += 1
    }
    val offsets = new Array[Int](n + 1)
    i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val pos = java.util.Arrays.copyOf(offsets, n)
    val targets = new Array[Int](src.length)
    i = 0
    while (i < src.length) {
      val u = src(i); val v = dst(i)
      if (v < 0 || v >= n) requireEndpoints(n, src, dst)
      targets(pos(u)) = v; pos(u) += 1; i += 1
    }
    new LocalGraph(n, offsets, targets)
  }

  /** Requires every endpoint in [0, n), naming the first edge with one
    * outside. [[scatter]] calls it only once it met one.
    */
  private def requireEndpoints(n: Int, src: Array[Int], dst: Array[Int]): Unit = {
    def inRange(u: Int) = u >= 0 && u < n
    val i = src.indices.indexWhere(i => !inRange(src(i)) || !inRange(dst(i)))
    require(i < 0, s"edge $i (${src(i)} -> ${dst(i)}) has an endpoint outside [0, $n)")
  }

  /** Rejects a seed node outside [0, n). */
  private[repro] def requireSeed(n: Int, seed: Int): Unit =
    require(seed >= 0 && seed < n, s"seed $seed out of range [0, $n)")

  /** Rejects a restart probability c outside (0, 1), and a push tolerance
    * (name -> value) that is not positive: at 0 a push loop can run
    * forever on residuals that round back to themselves. NaN fails both.
    */
  private[repro] def requireParams(c: Double, tolerances: (String, Double)*): Unit = {
    require(c > 0 && c < 1, s"restart probability out of range: $c")
    for ((name, t) <- tolerances) require(t > 0, s"$name must be > 0, got $t")
  }
}
