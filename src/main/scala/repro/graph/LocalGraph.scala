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
      val team = Team(this)
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
    * naming the first edge that has one.
    *
    * The count pass takes `src`'s non-decreasing prefix run by run: one
    * range check and one store per run of equal sources. If that prefix
    * is all of `src`, the list is already in CSR order and `targets` is a
    * copy of `dst`; otherwise [[scatter]] builds the CSR.
    */
  def fromEdges(n: Int, src: Array[Int], dst: Array[Int]): LocalGraph = {
    require(n >= 0, s"node count $n is negative")
    require(src.length == dst.length, s"${src.length} sources but ${dst.length} targets")
    val m = src.length
    // offsets(u + 1) counts u's edges here, and becomes u's end below.
    val offsets = new Array[Int](n + 1)
    var i = 0
    var last = 0
    while (i < m && src(i) >= last) {
      val u = src(i)
      if (u >= n) requireEndpoints(n, src, dst)
      var j = i + 1
      while (j < m && src(j) == u) j += 1
      offsets(u + 1) = j - i
      last = u; i = j
    }
    if (i < m) return scatter(n, src, dst)
    i = 0
    while (i < n) { offsets(i + 1) += offsets(i); i += 1 }
    // v | (n - 1 - v) is negative exactly when v < 0 or v >= n.
    var bad = 0
    i = 0
    while (i < m) { val v = dst(i); bad |= v | (n - 1 - v); i += 1 }
    if (bad < 0) requireEndpoints(n, src, dst)
    new LocalGraph(n, offsets, java.util.Arrays.copyOf(dst, m))
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
    * outside. The loops of [[fromEdges]] call it only once they met one.
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
