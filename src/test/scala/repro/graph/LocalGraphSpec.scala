package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

/** CSR construction correctness against a naive adjacency-map build,
  * plus in-list, pull-layout and degree invariants.
  */
class LocalGraphSpec extends AnyFunSuite {

  private def randomPairs(n: Int, m: Int, seed: Long): (Array[Int], Array[Int]) = {
    val rng = new scala.util.Random(seed)
    val src = Array.fill(m)(rng.nextInt(n))
    val dst = Array.fill(m)(rng.nextInt(n))
    (src, dst)
  }

  for (seed <- 0 until 10) {
    test(s"CSR matches naive adjacency (seed $seed)") {
      val n = 30 + seed
      val (src, dst) = randomPairs(n, 200, seed)
      val g = LocalGraph.fromEdges(n, src, dst)
      val naive = Array.fill(n)(scala.collection.mutable.ArrayBuffer.empty[Int])
      src.indices.foreach(i => naive(src(i)) += dst(i))
      for (u <- 0 until n) {
        val got = scala.collection.mutable.ArrayBuffer.empty[Int]
        g.foreachOut(u)(got += _)
        assert(got.sorted == naive(u).sorted, s"node $u")
      }
    }
  }

  for (seed <- 0 until 5) {
    test(s"the in-lists by node hold the original edge multiset (seed $seed)") {
      val n = 25
      val (src, dst) = randomPairs(n, 120, 100 + seed)
      val g = LocalGraph.fromEdges(n, src, dst)
      val viaIn = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
      for (v <- 0 until n) g.foreachIn(v)(u => viaIn += ((u, v)))
      assert(viaIn.sorted.toSeq == src.indices.map(i => (src(i), dst(i))).sorted)
    }
  }

  /** The reference in-lists: every edge flipped, in CSR order, then
    * `fromEdges`; out-list v of the result is in-list v of `g`.
    */
  private def flippedViaFromEdges(g: LocalGraph): LocalGraph = {
    val src = new Array[Int](g.m)
    val dst = new Array[Int](g.m)
    for (u <- 0 until g.n; j <- g.offsets(u) until g.offsets(u + 1)) { src(j) = g.targets(j); dst(j) = u }
    LocalGraph.fromEdges(g.n, src, dst)
  }

  private val withDuplicates = {
    val (src, dst) = randomPairs(30, 400, 9)
    LocalGraph.fromEdges(30, src ++ Array(0, 0, 5, 5, 5), dst ++ Array(0, 0, 7, 7, 5))
  }

  val inListCases = Seq(
    "random-200" -> TestGraphs.random(200, 1200, 1),
    "communities-240" -> GraphGen.communities(240, 6, 1400, 0.85, 2),
    "with-dangling-100" -> TestGraphs.withDangling(100, 500, 3),
    "duplicates-and-self-loops-30" -> withDuplicates)

  private def inList(g: LocalGraph, v: Int): Seq[Int] = {
    val b = scala.collection.mutable.ArrayBuffer.empty[Int]
    g.foreachIn(v)(b += _)
    b.toSeq
  }

  private def outList(g: LocalGraph, u: Int): Seq[Int] = g.targets.slice(g.offsets(u), g.offsets(u + 1)).toSeq

  for ((name, g) <- inListCases) {
    test(s"foreachIn and inDeg equal the flipped edges' fromEdges build, array for array, on $name") {
      val expected = flippedViaFromEdges(g)
      for (v <- 0 until g.n) {
        assert(inList(g, v) == outList(expected, v), s"in-list of $v")
        assert(g.inDeg(v) == expected.outDeg(v), s"in-degree of $v")
      }
    }

    // LocalCpi's pull team sums each in-list in list order. Ascending sources
    // are the order in which the push scan adds the same terms, so this
    // invariant is what makes the pull hop bit-identical to it.
    test(s"every foreachIn in-list is in ascending source order on $name") {
      for (v <- 0 until g.n) {
        val list = inList(g, v)
        assert(list == list.sorted, s"in-list of $v")
      }
    }
  }

  test("the duplicate-edge graph has duplicates and self-loops in its in-lists") {
    val g = withDuplicates
    assert(inList(g, 0).count(_ == 0) >= 2 && inList(g, 7).count(_ == 5) >= 2 && inList(g, 5).contains(5))
  }

  /** A graph above the team's edge floor, so its own layout is built in
    * one source block per core.
    */
  private val aboveFloor = "random-1000" -> TestGraphs.random(1000, 20000, 5)
  private val layoutCases = inListCases :+ ("rmat-128" -> GraphGen.rmat(7, 800, 1)) :+ aboveFloor

  /** `PullLayout.build` in `chunks` chunks and `blocks` source blocks, by
    * the caller and three helpers.
    */
  private def build(g: LocalGraph, chunks: Int, blocks: Int): PullLayout = {
    val team = new Team(3)
    try PullLayout.build(g, chunks, blocks, team) finally team.stop()
  }

  // LocalCpi's pull team reads these layouts in positions. Its threads claim
  // chunks, so the order must not depend on the cut; each in-list must be the
  // flipped edges' in CSR order, so the pull sums stay bit-identical to the
  // push scan.
  for ((name, g) <- layoutCases) {
    test(s"pull layout: one (in-degree, id) order with position in-lists and out-degrees, for any chunk count, on $name") {
      val rev = flippedViaFromEdges(g)
      val layouts = g.pullLayout +: Seq(1, 2, 3, 8, g.n + 3).map(build(g, _, 1))
      val order = (0 until g.n).sortBy(v => (rev.outDeg(v), v))
      for (layout <- layouts) {
        val b = layout.bounds
        assert(b.head == 0 && b.last == g.n && b.sameElements(b.sorted), b.toSeq)
        assert(layout.nodes.toSeq == order, s"${layout.chunks} chunks")
        assert(layout.inOffsets.head == 0 && layout.inOffsets.last == g.m)
        for (p <- 0 until g.n) {
          val v = layout.nodes(p)
          assert(layout.position(v) == p, s"position of $v")
          val sources = layout.sources.slice(layout.inOffsets(p), layout.inOffsets(p + 1)).map(layout.nodes(_))
          assert(sources.toSeq == outList(rev, v), s"in-list of $v")
          assert(layout.outDeg(p) == g.outDeg(v), s"out-degree of $v")
        }
        assert(layout.sources.sameElements(g.pullLayout.sources) && layout.inOffsets.sameElements(g.pullLayout.inOffsets))
      }
    }

    // The build splits its passes over the edges into source blocks, one
    // per core; its arrays must not depend on that split.
    test(s"pull layout: all six arrays equal the flipped edges' for 1, 2, 3, 8 and n + 3 source blocks on $name") {
      val rev = flippedViaFromEdges(g)
      val nodes = (0 until g.n).sortBy(v => (rev.outDeg(v), v)).toArray
      val position = new Array[Int](g.n)
      for (p <- 0 until g.n) position(nodes(p)) = p
      val inOffsets = nodes.scanLeft(0)(_ + rev.outDeg(_))
      val sources = nodes.flatMap(outList(rev, _).map(position))
      val outDeg = nodes.map(g.outDeg)
      val chunks = PullLayout.Chunks
      val total = PullLayout.NodeCost * g.n + g.m
      val bounds = (0 to chunks).map { k =>
        (0 to g.n).find(p => PullLayout.NodeCost * p + inOffsets(p) >= total * k / chunks).get
      }
      for (layout <- g.pullLayout +: Seq(1, 2, 3, 8, g.n + 3).map(build(g, chunks, _))) {
        assert(layout.bounds.toSeq == bounds)
        assert(layout.nodes.sameElements(nodes) && layout.position.sameElements(position))
        assert(layout.inOffsets.sameElements(inOffsets) && layout.sources.sameElements(sources))
        assert(layout.outDeg.sameElements(outDeg))
      }
    }
  }

  test("a layout first built through inDeg and foreachIn equals one first built by a converging run") {
    val (_, g) = aboveFloor
    assert(g.m > Team.MinEdges)
    def fresh = new LocalGraph(g.n, g.offsets, g.targets)
    val byNode = Seq[LocalGraph => Unit](_.inDeg(3), _.foreachIn(3)(_ => ())).map { first =>
      val h = fresh; first(h); h.pullLayout
    }
    val h = fresh
    repro.core.LocalCpi.rwr(h, 3, 0.15)
    for (layout <- byNode) {
      val built = h.pullLayout
      assert(layout.bounds.sameElements(built.bounds) && layout.nodes.sameElements(built.nodes))
      assert(layout.position.sameElements(built.position) && layout.inOffsets.sameElements(built.inOffsets))
      assert(layout.sources.sameElements(built.sources) && layout.outDeg.sameElements(built.outDeg))
    }
  }

  test("out-degrees sum to m; in-degrees sum to m") {
    val (src, dst) = randomPairs(40, 300, 7)
    val g = LocalGraph.fromEdges(40, src, dst)
    assert((0 until g.n).map(g.outDeg).sum == g.m)
    assert((0 until g.n).map(g.inDeg).sum == g.m)
  }

  test("in-degree counts incoming edges") {
    val g = LocalGraph.fromEdges(4, Array(0, 1, 2), Array(3, 3, 3))
    assert(g.inDeg(3) == 3 && g.inDeg(0) == 0)
    assert(inList(g, 3) == Seq(0, 1, 2) && inList(g, 0).isEmpty)
    assert(g.outDeg(3) == 0 && g.outDeg(0) == 1)
  }

  test("empty graph is valid") {
    val g = LocalGraph.fromEdges(5, Array.empty[Int], Array.empty[Int])
    assert(g.m == 0 && (0 until 5).forall(g.outDeg(_) == 0))
  }

  /** The message of `fromEdges`' rejection of an out-of-range endpoint. */
  private def rejection(n: Int, src: Array[Int], dst: Array[Int]): String =
    intercept[IllegalArgumentException](LocalGraph.fromEdges(n, src, dst)).getMessage

  test("fromEdges rejects a source outside [0, n), naming the first bad edge") {
    assert(rejection(3, Array(0, 1, 5, 7), Array(1, 2, 0, 0)).contains("edge 2 (5 -> 0)"))
    assert(rejection(3, Array(0, 3), Array(1, 2)).contains("edge 1 (3 -> 2)"))
  }

  test("fromEdges rejects a target outside [0, n), naming the first bad edge") {
    assert(rejection(3, Array(0), Array(5)).contains("edge 0 (0 -> 5)"))
    // The bad target of edge 1 comes before the bad source of edge 2.
    assert(rejection(3, Array(0, 1, 4), Array(1, 3, 0)).contains("edge 1 (1 -> 3)"))
  }

  test("fromEdges rejects a negative node id") {
    assert(rejection(3, Array(0, -1), Array(1, 2)).contains("edge 1 (-1 -> 2)"))
    assert(rejection(3, Array(0, 2), Array(1, -4)).contains("edge 1 (2 -> -4)"))
  }

  test("offsets length is validated") {
    intercept[IllegalArgumentException] {
      new LocalGraph(3, Array(0, 1), Array(0))
    }
  }

  test("offsets must start at 0 and end at m") {
    val fromOne = intercept[IllegalArgumentException](new LocalGraph(2, Array(1, 1, 2), Array(0, 1)))
    assert(fromOne.getMessage.contains("not from 0 to m = 2"))
    val short = intercept[IllegalArgumentException](new LocalGraph(2, Array(0, 1, 1), Array(0, 1)))
    assert(short.getMessage.contains("offsets run from 0 to 1"))
    intercept[IllegalArgumentException](new LocalGraph(2, Array(0, 1, 3), Array(0, 1)))
  }

  test("fromEdges rejects a negative node count") {
    val e = intercept[IllegalArgumentException](LocalGraph.fromEdges(-1, Array.empty[Int], Array.empty[Int]))
    assert(e.getMessage.contains("node count -1 is negative"))
  }

  // fromEdges copies a source-sorted list and scatters any other order; both
  // must give the same CSR. Nodes 0, 4 and 7 (start, middle, end) have no
  // out-edge; 2 has a self-loop and 1 -> 3 and 5 -> 6 are duplicated.
  private val multigraph = Seq(
    1 -> 3, 1 -> 0, 1 -> 3, 2 -> 2, 2 -> 6, 3 -> 1, 5 -> 6, 5 -> 5, 5 -> 6, 6 -> 0, 6 -> 7)

  /** The multigraph's edges in three orders. The sort keeps each source's
    * edges in their order; the shuffle reorders them too.
    */
  private val multigraphOrders = Seq(
    "sorted" -> multigraph,
    "reverse-sorted" -> multigraph.sortBy(-_._1),
    "shuffled" -> new scala.util.Random(4).shuffle(multigraph))

  for ((order, edges) <- multigraphOrders) {
    test(s"fromEdges on a $order multigraph keeps each out-list in input order") {
      val g = LocalGraph.fromEdges(8, edges.map(_._1).toArray, edges.map(_._2).toArray)
      assert(g.offsets.toSeq == Seq(0, 0, 3, 5, 6, 6, 9, 11, 11))
      for (u <- 0 until 8) assert(outList(g, u) == edges.filter(_._1 == u).map(_._2), s"out-list of $u")
    }
  }

  test("fromEdges on sorted sources keeps unsorted targets as given") {
    val g = LocalGraph.fromEdges(6, Array(0, 0, 3), Array(5, 2, 1))
    assert(outList(g, 0) == Seq(5, 2) && outList(g, 3) == Seq(1) && g.offsets.toSeq == Seq(0, 2, 2, 2, 3, 3, 3))
  }

  test("fromEdges rejects a bad target late in a sorted list, naming it") {
    val src = Array.tabulate(1000)(_ / 10)
    val dst = Array.tabulate(1000)(i => i % 100)
    dst(987) = 100
    assert(rejection(100, src, dst).contains("edge 987 (98 -> 100)"))
  }

  /** The CSR of (src, dst) by a stable sort of the edges by source. */
  private def stableCsr(n: Int, src: Array[Int], dst: Array[Int]): (Seq[Int], Seq[Int]) = {
    val bySource = src.indices.groupBy(src(_))
    val offsets = (0 until n).scanLeft(0)((at, u) => at + bySource.get(u).fold(0)(_.size))
    (offsets, (0 until n).flatMap(u => bySource.get(u).fold(Seq.empty[Int])(_.sorted.map(dst(_)))))
  }

  /** `fromEdges` in `blocks` blocks, by the caller and three helpers. */
  private def blockBuild(n: Int, src: Array[Int], dst: Array[Int], blocks: Int): LocalGraph =
    LocalGraph.fromEdges(n, src, dst, blocks, new Team(3))

  /** The edges of `g` in CSR order: sorted by source, each out-list as built. */
  private def csrEdges(g: LocalGraph): (Array[Int], Array[Int]) =
    (Array.tabulate(g.n)(u => Array.fill(g.outDeg(u))(u)).flatten, g.targets.clone())

  private val blockCounts = Seq(1, 2, 3, 8)

  // fromEdges splits a sorted list into one block per core; its arrays must
  // not depend on that split. Each list here is above the team's edge floor.
  private val sortedLists: Seq[(String, Int, Array[Int], Array[Int])] = {
    val rmat = GraphGen.rmat(11, 20000, 3)
    val (rmatSrc, rmatDst) = csrEdges(rmat)
    val m = 20000
    // Nodes 0-9, 490-509 and 990-999 have no out-edge.
    val gapped = Array.tabulate(m)(i => if (i < m / 2) 10 + i * 480 / (m / 2) else 510 + (i - m / 2) * 480 / (m / 2))
    Seq(("an rmat list", rmat.n, rmatSrc, rmatDst),
        ("a star", 50, Array.fill(m)(7), Array.tabulate(m)(_ % 50)),
        ("a list with gaps at the start, middle and end", 1000, gapped, Array.tabulate(m)(i => (i * 7) % 1000)))
  }

  for ((name, n, src, dst) <- sortedLists) {
    test(s"fromEdges gives the same CSR for 1, 2, 3, 8 and m + 3 blocks on $name") {
      assert(src.length > Team.MinEdges && src.sameElements(src.sorted))
      val (offsets, targets) = stableCsr(n, src, dst)
      for (blocks <- blockCounts :+ (src.length + 3)) {
        val g = blockBuild(n, src, dst, blocks)
        assert(g.offsets.toSeq == offsets && g.targets.toSeq == targets, s"$blocks blocks")
      }
      val g = LocalGraph.fromEdges(n, src, dst)
      assert(g.offsets.toSeq == offsets && g.targets.toSeq == targets)
    }
  }

  test("fromEdges falls back to the scatter on a list whose only descent is at a block cut") {
    // Runs of three edges per source; edge m/2 - 1 (the end of source
    // 3999's run) now has source 4001, one above the 4000 at the cut m/2
    // of 2 and 8 blocks.
    val m = 24000
    val src = Array.tabulate(m)(_ / 3)
    src(m / 2 - 1) = 4001
    val dst = Array.tabulate(m)(i => (i * 13) % 8000)
    assert((1 until m).filter(i => src(i) < src(i - 1)) == Seq(m / 2))
    val (offsets, targets) = stableCsr(8000, src, dst)
    for (blocks <- blockCounts :+ (m + 3)) {
      val g = blockBuild(8000, src, dst, blocks)
      assert(g.offsets.toSeq == offsets && g.targets.toSeq == targets, s"$blocks blocks")
    }
  }

  test("fromEdges names the first bad edge in the last block, for any block count") {
    val m = 20000
    val n = m / 4
    def sorted = (Array.tabulate(m)(_ / 4), Array.tabulate(m)(i => i % n))
    def reject(src: Array[Int], dst: Array[Int], blocks: Int): String =
      intercept[IllegalArgumentException](blockBuild(n, src, dst, blocks)).getMessage
    for (blocks <- blockCounts :+ (m + 3)) {
      val (src, dst) = sorted
      for (i <- m - 5 until m) src(i) = n
      assert(reject(src, dst, blocks).contains(s"edge ${m - 5} ($n -> ${(m - 5) % n})"), s"$blocks blocks")
      val (src2, dst2) = sorted
      dst2(m - 3) = -1; dst2(m - 1) = n
      assert(reject(src2, dst2, blocks).contains(s"edge ${m - 3} (${(m - 3) / 4} -> -1)"), s"$blocks blocks")
      // Sources that ascend from negative ids: the first edge is the first bad one.
      val (src3, dst3) = (Array.tabulate(m)(i => i / 4 - n / 2), dst)
      assert(reject(src3, dst3, blocks).contains(s"edge 0 (${-n / 2} -> 0)"), s"$blocks blocks")
    }
  }

  test("fromEdges names a bad target before a later bad source, sorted or not") {
    // sorted: the bad source 9 is the last edge
    assert(rejection(4, Array(0, 1, 1, 2, 9), Array(1, 2, -3, 0, 0)).contains("edge 2 (1 -> -3)"))
    // unsorted: the bad source 9 comes right after the bad target
    assert(rejection(4, Array(2, 1, 0, 9, 1), Array(1, 4, 0, 0, 2)).contains("edge 1 (1 -> 4)"))
  }
}
