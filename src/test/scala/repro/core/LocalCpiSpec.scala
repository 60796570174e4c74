package repro.core

import java.util.concurrent.{Callable, CountDownLatch, CyclicBarrier, Executors, ForkJoinPool, TimeUnit}

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.baselines.PowerIteration
import repro.graph.{GraphGen, LocalGraph, Team}
import repro.metrics.Metrics

/** CPI-IMPL (Algorithm 1) correctness: Theorem 1 (CPI = PI), agreement
  * with an independent dense solve, the exact L1 norms of Lemma 3, the
  * family/neighbor/stranger partition identity, and bit-identity of the
  * sparse-frontier kernel of bounded windows and of the pull team of
  * converging runs with the plain dense loop, and the input checks.
  */
class LocalCpiSpec extends AnyFunSuite {
  val c = 0.15
  val eps = 1e-12

  val graphs = Seq(
    "random-200" -> TestGraphs.random(200, 1200, 1),
    "communities-240" -> GraphGen.communities(240, 6, 1400, 0.85, 2),
    "cycle-50" -> TestGraphs.cycle(50))

  /** Exact PageRank: CPI to convergence from the uniform seed. */
  private def pagerank(g: LocalGraph, eps: Double): Array[Double] =
    LocalCpi.run(g, LocalCpi.uniformSeed(g.n), c, eps, 0, Int.MaxValue)

  for ((name, g) <- graphs; seed <- Seq(0, 3, 7, 11, 19, 23, 42 % g.n, 13, 17, 29)) {
    test(s"Theorem 1: CPI equals power iteration on $name seed $seed") {
      val cpi = LocalCpi.rwr(g, seed, c, eps)
      val pi = PowerIteration.rwr(g, seed, c, eps)
      assert(Metrics.l1(cpi, pi) < 1e-8)
    }
  }

  for ((name, g) <- graphs.take(2); seed <- Seq(0, 5, 9)) {
    test(s"CPI equals dense linear solve on $name seed $seed") {
      val cpi = LocalCpi.rwr(g, seed, c, eps)
      val dense = TestGraphs.denseSolve(g, LocalCpi.unitSeed(g.n, seed), c)
      assert(Metrics.l1(cpi, dense) < 1e-8)
    }
  }

  for ((name, g) <- graphs; seed <- Seq(1, 4)) {
    test(s"RWR vector sums to 1 on dangling-free $name seed $seed") {
      val r = LocalCpi.rwr(g, seed, c, eps)
      assert(math.abs(TestGraphs.norm1(r) - 1.0) < 1e-7)
    }
  }

  for ((name, g) <- graphs) {
    test(s"PageRank vector sums to 1 on $name") {
      val p = pagerank(g, eps)
      assert(math.abs(TestGraphs.norm1(p) - 1.0) < 1e-7)
    }
  }

  for (s <- 1 to 6) {
    test(s"Lemma 3: family norm is 1-(1-c)^S for S=$s") {
      val g = graphs.head._2
      val fam = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 0), c, 0.0, 0, s - 1)
      assert(math.abs(TestGraphs.norm1(fam) - (1 - math.pow(1 - c, s))) < 1e-10)
    }
  }

  for ((s, t) <- Seq((1, 3), (2, 5), (4, 10), (4, 15), (3, 8), (2, 20))) {
    test(s"Lemma 3: neighbor norm is (1-c)^S-(1-c)^T for S=$s T=$t") {
      val g = graphs(1)._2
      val nbr = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 5), c, 0.0, s, t - 1)
      val expected = math.pow(1 - c, s) - math.pow(1 - c, t)
      assert(math.abs(TestGraphs.norm1(nbr) - expected) < 1e-10)
    }
  }

  for ((s, t) <- Seq((2, 6), (4, 10), (3, 15), (1, 4), (5, 12))) {
    test(s"partition identity: family+neighbor+stranger = full CPI (S=$s, T=$t)") {
      val g = graphs.head._2
      val q = LocalCpi.unitSeed(g.n, 7)
      val full = LocalCpi.run(g, q, c, eps, 0, Int.MaxValue)
      val fam = LocalCpi.run(g, q, c, 0.0, 0, s - 1)
      val nbr = LocalCpi.run(g, q, c, 0.0, s, t - 1)
      val str = LocalCpi.run(g, q, c, eps, t, Int.MaxValue)
      val sum = Array.tabulate(g.n)(i => fam(i) + nbr(i) + str(i))
      assert(Metrics.l1(full, sum) < 1e-8)
    }
  }

  test("interim norm decays as c(1-c)^i on dangling-free graphs") {
    val g = graphs.head._2
    for (i <- 0 until 8) {
      val xi = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 3), c, 0.0, i, i)
      assert(math.abs(TestGraphs.norm1(xi) - c * math.pow(1 - c, i)) < 1e-10)
    }
  }

  test("dangling node leaks mass: RWR sums below 1") {
    val g = TestGraphs.withDangling(100, 500, 3)
    val r = LocalCpi.rwr(g, 0, c, eps)
    assert(TestGraphs.norm1(r) < 1.0 - 1e-6)
  }

  test("tIter < 0 yields the zero vector") {
    val g = graphs.head._2
    val r = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 0), c, eps, 0, -1)
    assert(r.forall(_ == 0.0))
  }

  test("tIter = 0 yields exactly c·q") {
    val g = graphs.head._2
    val r = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 4), c, eps, 0, 0)
    assert(r(4) === c)
    assert(r.count(_ != 0.0) == 1)
  }

  test("sIter skips early iterations: result orthogonal to family") {
    val g = graphs.head._2
    val q = LocalCpi.unitSeed(g.n, 2)
    val tail = LocalCpi.run(g, q, c, 0.0, 3, 5)
    val expected = math.pow(1 - c, 3) - math.pow(1 - c, 6)
    assert(math.abs(TestGraphs.norm1(tail) - expected) < 1e-10)
  }

  test("uniform seed equals averaging unit-seed RWRs (linearity)") {
    val g = TestGraphs.random(40, 200, 9)
    val pr = pagerank(g, eps)
    val avg = new Array[Double](g.n)
    for (s <- 0 until g.n) {
      val r = LocalCpi.rwr(g, s, c, eps)
      for (i <- 0 until g.n) avg(i) += r(i) / g.n
    }
    assert(Metrics.l1(pr, avg) < 1e-7)
  }

  test("restart probability out of range is rejected") {
    val g = graphs.head._2
    intercept[IllegalArgumentException] {
      LocalCpi.run(g, LocalCpi.unitSeed(g.n, 0), 1.5, eps, 0, 10)
    }
  }

  test("an unbounded run with eps <= 0 or NaN is rejected; a finite window takes eps = 0") {
    val g = TestGraphs.cycle(3)
    val q = LocalCpi.unitSeed(g.n, 0)
    for (e <- Seq(0.0, -1.0, Double.NaN)) {
      intercept[IllegalArgumentException](LocalCpi.run(g, q, c, e, 0, Int.MaxValue))
      intercept[IllegalArgumentException](LocalCpi.run(g, q, c, e, 4, Int.MaxValue))
      intercept[IllegalArgumentException](LocalCpi.rwr(g, 0, c, e))
      intercept[IllegalArgumentException](pagerank(g, e))
      intercept[IllegalArgumentException](Tpa.preprocess(g, c, e, 5))
    }
    val r = LocalCpi.run(g, q, c, 0.0, 0, 30)
    assert(java.util.Arrays.equals(r, ReferenceCpi.run(g, q, c, 0.0, 0, 30)))
  }

  test("rwr and unitSeed reject a seed outside [0, n)") {
    val g = graphs.head._2
    for (seed <- Seq(-1, g.n, g.n + 7)) {
      val e1 = intercept[IllegalArgumentException](LocalCpi.rwr(g, seed, c, eps))
      val e2 = intercept[IllegalArgumentException](LocalCpi.unitSeed(g.n, seed))
      for (e <- Seq(e1, e2)) assert(e.getMessage.contains(s"seed $seed out of range [0, ${g.n})"))
    }
  }

  test("seed vector length mismatch is rejected") {
    val g = graphs.head._2
    intercept[IllegalArgumentException] {
      LocalCpi.run(g, new Array[Double](g.n + 1), c, eps, 0, 10)
    }
  }

  val kernelGraphs = graphs :+ ("with-dangling-100" -> TestGraphs.withDangling(100, 500, 3))

  /** Accumulation windows (sIter, tIter): the family, neighbor and stranger
    * parts and the full series.
    */
  val windows = Seq((0, 1), (0, 3), (2, 4), (3, 9), (5, Int.MaxValue), (0, Int.MaxValue))

  /** A bounded window's result from `q` on the scratch, and whether the run went dense. */
  final class Run(val r: Array[Double], val dense: Boolean)

  def kernel(g: LocalGraph, q: Array[Double], sIter: Int, tIter: Int): Run =
    LocalCpi.accumulate(g, c, eps, sIter, tIter)(_.startFrom(q)) { sc =>
      new Run(sc.addTo(new Array[Double](g.n), 1.0), sc.isDense)
    }

  /** `LocalCpi.run` over the window, which may be unbounded. */
  def window(g: LocalGraph, q: Array[Double], sIter: Int, tIter: Int, tol: Double = eps): Array[Double] =
    LocalCpi.run(g, q, c, tol, sIter, tIter)

  /** L1 = 0 (hard gate < 1e-12), and equal bit for bit. */
  def assertIdentical(actual: Array[Double], expected: Array[Double]): Unit = {
    assert(Metrics.l1(actual, expected) == 0.0)
    assert(java.util.Arrays.equals(actual, expected))
  }

  for ((name, g) <- kernelGraphs; s <- Seq(1, 2); seed <- Seq(0, 7, g.n - 1)) {
    test(s"kernel: sparse-only family window S=$s equals the dense loop on $name seed $seed") {
      val q = LocalCpi.unitSeed(g.n, seed)
      val run = kernel(g, q, 0, s - 1)
      assert(!run.dense)
      assertIdentical(run.r, ReferenceCpi.run(g, q, c, eps, 0, s - 1))
    }
  }

  for ((name, g) <- kernelGraphs; seed <- Seq(0, 7)) {
    test(s"kernel: a unit-seed run that goes dense mid-way equals the dense loop on $name seed $seed") {
      val q = LocalCpi.unitSeed(g.n, seed)
      assert(!kernel(g, q, 0, 1).dense, "the first hop should be sparse")
      for ((sIter, tIter) <- windows)
        assertIdentical(window(g, q, sIter, tIter), ReferenceCpi.run(g, q, c, eps, sIter, tIter))
      // A cycle's frontier never grows, so that window stays sparse to convergence.
      assert(kernel(g, q, 0, 1000).dense == (name != "cycle-50"))
    }
  }

  for ((name, g) <- kernelGraphs) {
    test(s"kernel: a uniform seed runs dense from the start and equals the dense loop on $name") {
      val q = LocalCpi.uniformSeed(g.n)
      assert(kernel(g, q, 0, 1).dense)
      for ((sIter, tIter) <- windows)
        assertIdentical(window(g, q, sIter, tIter), ReferenceCpi.run(g, q, c, eps, sIter, tIter))
    }
  }

  test("kernel: dangling nodes leak the same mass in sparse and dense mode") {
    val g = TestGraphs.withDangling(100, 500, 3)
    val dangling = g.n - 1
    val feeder = (0 until g.n).find(u => (g.offsets(u) until g.offsets(u + 1)).exists(g.targets(_) == dangling)).get
    val cases = Seq(
      LocalCpi.unitSeed(g.n, dangling) -> 1, // all mass leaks in the first hop
      LocalCpi.unitSeed(g.n, feeder) -> 2,
      LocalCpi.unitSeed(g.n, feeder) -> Int.MaxValue,
      LocalCpi.uniformSeed(g.n) -> Int.MaxValue)
    val modes = for ((q, tIter) <- cases) yield {
      val r = window(g, q, 0, tIter)
      assertIdentical(r, ReferenceCpi.run(g, q, c, eps, 0, tIter))
      val leakFree = if (tIter == Int.MaxValue) 1.0 else 1.0 - math.pow(1 - c, tIter + 1)
      assert(TestGraphs.norm1(r) < leakFree - 1e-6)
      kernel(g, q, 0, math.min(tIter, 1000)).dense
    }
    assert(modes.toSet == Set(false, true))
  }

  test("kernel: scratch is all-zero after sparse, dense and failed runs") {
    val (_, g) = graphs.head
    val unit = LocalCpi.unitSeed(g.n, 3)
    val expected = ReferenceCpi.run(g, unit, c, eps, 0, 2)
    assertIdentical(kernel(g, unit, 0, 2).r, expected)
    kernel(g, LocalCpi.uniformSeed(g.n), 0, 1000)
    assertIdentical(kernel(g, unit, 0, 2).r, expected)
    for (q <- Seq(unit, LocalCpi.uniformSeed(g.n))) {
      intercept[IllegalStateException] {
        LocalCpi.accumulate(g, c, eps, 0, 4)(_.startFrom(q))(_ => throw new IllegalStateException)
      }
      assertIdentical(kernel(g, unit, 0, 2).r, expected)
    }
  }

  /** A small RMAT graph, whose unit seeds go dense on every hop from 1 to
    * 4 (hubs on hop 1), and a graph with a dangling node.
    */
  val hopGraphs = Seq(
    "rmat-128" -> GraphGen.rmat(7, 800, 1),
    "with-dangling-100" -> TestGraphs.withDangling(100, 500, 3))

  /** The first hop of the window [0, 4] that runs dense, if any. */
  def denseFrom(g: LocalGraph, seed: Int): Option[Int] = {
    val q = LocalCpi.unitSeed(g.n, seed)
    (0 to 4).find(k => kernel(g, q, 0, k).dense)
  }

  test("kernel: on a small RMAT graph the switch to dense lands on each of hops 1-4 for some seed") {
    val (_, g) = hopGraphs.head
    val hops = (0 until g.n).flatMap(denseFrom(g, _)).toSet
    assert(hops == Set(1, 2, 3, 4))
  }

  for ((name, g) <- hopGraphs; s <- 1 to 5) {
    test(s"kernel: family and online equal the dense loop bit for bit for every seed on $name S=$s") {
      val t = 6
      val model = Tpa.preprocess(g, c, eps, t)
      for (seed <- 0 until g.n) {
        val q = LocalCpi.unitSeed(g.n, seed)
        assertIdentical(Tpa.family(g, c, s, seed, eps), ReferenceCpi.run(g, q, c, eps, 0, s - 1))
        assertIdentical(Tpa.online(g, model, s, seed, eps), ReferenceCpi.tpa(g, c, s, t, seed, eps))
      }
    }
  }

  test("kernel: a sparse run after one whose first dense hop walked the frontier, and after a throwing use, equals the dense loop") {
    val (_, g) = hopGraphs.head
    val switchSeed = (0 until g.n).find(denseFrom(g, _).contains(2)).get
    val sparseSeed = (0 until g.n).find(denseFrom(g, _).contains(4)).get
    val switchUnit = LocalCpi.unitSeed(g.n, switchSeed)
    val sparseUnit = LocalCpi.unitSeed(g.n, sparseSeed)
    val expected = ReferenceCpi.run(g, sparseUnit, c, eps, 0, 2)
    for (tIter <- Seq(2, 3)) {
      val run = kernel(g, switchUnit, 0, tIter)
      assert(run.dense)
      assertIdentical(run.r, ReferenceCpi.run(g, switchUnit, c, eps, 0, tIter))
      val sparse = kernel(g, sparseUnit, 0, 2)
      assert(!sparse.dense)
      assertIdentical(sparse.r, expected)
    }
    for (q <- Seq(switchUnit, sparseUnit); tIter <- Seq(1, 2, 3)) {
      intercept[IllegalStateException] {
        LocalCpi.accumulate(g, c, eps, 0, tIter)(_.startFrom(q))(_ => throw new IllegalStateException)
      }
      assertIdentical(kernel(g, sparseUnit, 0, 2).r, expected)
    }
  }

  test("kernel: scratch is all-zero after a sparse hop that throws while it lists the next frontier") {
    val (_, g) = hopGraphs.head
    val seed = (0 until g.n).find(s => g.outDeg(s) > 1 && denseFrom(g, s).exists(_ > 2)).get
    // The seed's last out-neighbor is the last node of hop 2's sparse
    // frontier; its last edge points outside the graph, so the hop throws
    // after its other nodes listed theirs.
    val u = g.targets(g.offsets(seed + 1) - 1)
    val targets = g.targets.clone()
    targets(g.offsets(u + 1) - 1) = g.n + 5
    val broken = new LocalGraph(g.n, g.offsets, targets)
    val q = LocalCpi.unitSeed(g.n, seed)
    val expected = ReferenceCpi.run(g, q, c, eps, 0, 3)
    intercept[ArrayIndexOutOfBoundsException](LocalCpi.run(broken, q, c, eps, 0, 3))
    assertIdentical(kernel(g, q, 0, 3).r, expected)
  }

  test("team: converging runs on graphs at or below the team's helper floor equal the dense loop") {
    for ((name, g) <- kernelGraphs :+ hopGraphs.head) {
      assert(g.m <= (1 << 14), name)
      for (q <- Seq(LocalCpi.unitSeed(g.n, 0), LocalCpi.uniformSeed(g.n)); sIter <- Seq(0, 5))
        assertIdentical(window(g, q, sIter, Int.MaxValue), ReferenceCpi.run(g, q, c, eps, sIter, Int.MaxValue))
      for (seed <- 0 until g.n)
        assertIdentical(LocalCpi.rwr(g, seed, c, eps), ReferenceCpi.run(g, LocalCpi.unitSeed(g.n, seed), c, eps, 0, Int.MaxValue))
    }
  }

  test("run rejects a seed vector entry that is NaN, infinite or negative, and an overflowing mass, on every window") {
    val g = graphs.head._2
    val bad = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -1e-300, -1.0)
    val overflow = Array.fill(g.n)(Double.MaxValue / 4)
    for (tIter <- Seq(3, Int.MaxValue)) {
      for (v <- bad) {
        val q = LocalCpi.uniformSeed(g.n)
        q(7) = v
        intercept[IllegalArgumentException](window(g, q, 0, tIter))
      }
      intercept[IllegalArgumentException](window(g, overflow, 0, tIter))
    }
    // -0.0 is a zero weight.
    val q = LocalCpi.unitSeed(g.n, 3)
    q(5) = -0.0
    assertIdentical(window(g, q, 0, Int.MaxValue), ReferenceCpi.run(g, q, c, eps, 0, Int.MaxValue))
  }

  test("kernel: the scratch rejects an unbounded window, and is all-zero after") {
    val g = graphs.head._2
    val unit = LocalCpi.unitSeed(g.n, 3)
    intercept[IllegalArgumentException] {
      LocalCpi.accumulate(g, c, eps, 0, Int.MaxValue)(_.startFrom(unit))(_.isDense)
    }
    assertIdentical(kernel(g, unit, 0, 2).r, ReferenceCpi.run(g, unit, c, eps, 0, 2))
  }

  /** Graphs on which a converging dense run pulls with a team: two of 300k
    * edges, and a mid-size one of about 60k, below 2^18 like the pokec-s
    * analog. Each has a node count of its own, so a thread's scratch is
    * rebuilt between them.
    */
  val pullGraphs = Seq(
    "random-24k" -> TestGraphs.random(24000, 300000, 31),
    "with-dangling-20k" -> TestGraphs.withDangling(20000, 300000, 32))
  val midGraph = "with-dangling-8k" -> TestGraphs.withDangling(8000, 60000, 33)
  /** `fromEdges` as a user calls it: 5,000 edges given twice, the last 499
    * nodes reached by no edge but node 0's one edge to node n − 1, which
    * has no out-edge, and a few other dangling nodes by chance.
    */
  val rawGraph = "raw-6k" -> {
    val n = 6000
    val rng = new scala.util.Random(36)
    val src = Array.fill(30000)(rng.nextInt(n - 1))
    val dst = Array.fill(30000)(rng.nextInt(n - 500))
    LocalGraph.fromEdges(n, src ++ src.take(5000) :+ 0, dst ++ dst.take(5000) :+ (n - 1))
  }
  val teamGraphs = pullGraphs :+ midGraph :+ rawGraph
  /** Three nodes and 18,000 parallel edges: fewer nodes than a layout has
    * chunks on any core count, so some chunks are empty.
    */
  val multiGraph = "multi-3" -> {
    val pairs = Seq((0, 1) -> 9000, (1, 2) -> 6000, (2, 0) -> 2000, (2, 1) -> 1000)
      .flatMap { case (edge, copies) => Seq.fill(copies)(edge) }
    LocalGraph.fromEdges(3, pairs.map(_._1).toArray, pairs.map(_._2).toArray)
  }

  for ((name, g) <- teamGraphs :+ multiGraph) {
    test(s"pull hop: a uniform seed equals the dense loop bit for bit on $name") {
      val q = LocalCpi.uniformSeed(g.n)
      assert(kernel(g, q, 0, 1).dense)
      for ((sIter, tIter) <- windows)
        assertIdentical(window(g, q, sIter, tIter), ReferenceCpi.run(g, q, c, eps, sIter, tIter))
    }
  }

  for ((name, g) <- teamGraphs) {
    test(s"pull hop: a unit-seed run that goes dense mid-way equals the dense loop bit for bit on $name") {
      val q = LocalCpi.unitSeed(g.n, 7)
      assert(!kernel(g, q, 0, 1).dense, "the first hop should be sparse")
      assert(kernel(g, q, 3, 9).dense, "the window should go dense")
      for ((sIter, tIter) <- windows)
        assertIdentical(window(g, q, sIter, tIter), ReferenceCpi.run(g, q, c, eps, sIter, tIter))
    }

    test(s"team: bounded windows never pull on $name") {
      for (s <- 1 to 4) {
        val q = LocalCpi.unitSeed(g.n, 7)
        assertIdentical(Tpa.family(g, c, s, 7, eps), ReferenceCpi.run(g, q, c, eps, 0, s - 1))
      }
      // A long finite window converges before tIter, with the push scan.
      val uniform = LocalCpi.uniformSeed(g.n)
      val run = kernel(g, uniform, 0, 1000)
      assert(run.dense)
      assertIdentical(run.r, ReferenceCpi.run(g, uniform, c, eps, 0, 1000))
    }
  }

  test("team: a converging run from a seed in the smaller of two disjoint parts equals the dense loop") {
    // Two disjoint parts; the large one holds no score of a unit seed in
    // the small one, and its frontier's out-edges stay below m/2.
    val small = TestGraphs.random(2000, 8000, 34)
    val large = TestGraphs.random(6000, 40000, 35)
    def edges(part: LocalGraph, shift: Int): Seq[(Int, Int)] =
      for (u <- 0 until part.n; j <- part.offsets(u) until part.offsets(u + 1))
        yield (u + shift, part.targets(j) + shift)
    val pairs = edges(small, 0) ++ edges(large, small.n)
    val g = LocalGraph.fromEdges(small.n + large.n, pairs.map(_._1).toArray, pairs.map(_._2).toArray)
    assert(g.m > (1 << 14) && 2 * small.m < g.m)
    val q = LocalCpi.unitSeed(g.n, 7)
    for ((sIter, tIter) <- windows) {
      val r = window(g, q, sIter, tIter)
      assertIdentical(r, ReferenceCpi.run(g, q, c, eps, sIter, tIter))
      assert((small.n until g.n).forall(r(_) == 0.0))
    }
  }

  test("pull hop: a dangling node leaks the same mass as in the dense loop") {
    for ((name, g) <- Seq(pullGraphs(1), midGraph, rawGraph)) {
      val dangling = g.n - 1
      assert(g.outDeg(dangling) == 0 && g.inDeg(dangling) > 0, name)
      for (q <- Seq(LocalCpi.unitSeed(g.n, 0), LocalCpi.uniformSeed(g.n))) {
        val r = window(g, q, 0, Int.MaxValue)
        assertIdentical(r, ReferenceCpi.run(g, q, c, eps, 0, Int.MaxValue))
        assert(TestGraphs.norm1(r) < 1.0 - 1e-6, name)
      }
    }
  }

  test("team: eps at, and one ulp above, a hop's ascending norm stops on the dense loop's hop") {
    // The team sums its chunks' partial norms; near eps it must decide as
    // the dense loop's ascending sum does. A seed of both signs, whose
    // terms would cancel and leave the partials' rounding unbounded by the
    // norm, is not a restart vector and is rejected.
    val (_, random) = pullGraphs.head
    val cases = Seq(random -> LocalCpi.uniformSeed(random.n), rawGraph._2 -> LocalCpi.uniformSeed(rawGraph._2.n))
    for ((g, q) <- cases; k <- Seq(1, 2, 3, 17, 40)) {
      val xk = ReferenceCpi.run(g, q, c, 0.0, k, k)
      var norm = 0.0
      for (v <- 0 until g.n) norm += xk(v)
      for ((tol, stop) <- Seq(norm -> (k + 1), Math.nextUp(norm) -> k)) {
        val expected = ReferenceCpi.run(g, q, c, tol, 0, Int.MaxValue)
        assertIdentical(expected, ReferenceCpi.run(g, q, c, 0.0, 0, stop))
        assertIdentical(window(g, q, 0, Int.MaxValue, tol), expected)
      }
    }
    val signed = Array.tabulate(random.n)(v => (if (v % 2 == 0) 1e6 else -1e6) + 1.0 / random.n)
    for (tIter <- Seq(40, Int.MaxValue))
      intercept[IllegalArgumentException](window(random, signed, 0, tIter))
  }

  /** True once no common-pool thread runs a task: no helper is left. */
  def poolQuiet(): Boolean = ForkJoinPool.commonPool().awaitQuiescence(30, TimeUnit.SECONDS)

  test("pull hop: scratch is all-zero after a run that throws in pull mode") {
    val (_, g) = pullGraphs.head
    // The same edges, with a pull layout of their own whose first in-list
    // entry of the last node is a position outside the graph.
    val broken = new LocalGraph(g.n, g.offsets, g.targets)
    val layout = broken.pullLayout
    layout.sources(layout.inOffsets(layout.position(g.n - 1))) = g.n + 5
    val unit = LocalCpi.unitSeed(g.n, 3)
    val uniform = LocalCpi.uniformSeed(g.n)
    val expectedUnit = ReferenceCpi.run(g, unit, c, eps, 0, 2)
    val expectedUniform = ReferenceCpi.run(g, uniform, c, eps, 0, 4)
    for (q <- Seq(unit, uniform)) {
      intercept[ArrayIndexOutOfBoundsException](window(broken, q, 0, Int.MaxValue))
      assert(poolQuiet())
      assertIdentical(kernel(g, unit, 0, 2).r, expectedUnit)
      assertIdentical(kernel(g, uniform, 0, 4).r, expectedUniform)
      assertIdentical(window(g, q, 5, Int.MaxValue), ReferenceCpi.run(g, q, c, eps, 5, Int.MaxValue))
    }
  }

  test("team: a range that throws is rethrown by the caller, and the scratch is all-zero after") {
    val (_, clean) = midGraph
    // The same edges with the first in-list entry of the last node, in the
    // pull layout, a position outside the graph: whichever thread pulls that
    // node's chunk throws.
    val broken = new LocalGraph(clean.n, clean.offsets, clean.targets)
    val v = broken.n - 1
    assert(broken.inDeg(v) > 0)
    val layout = broken.pullLayout
    layout.sources(layout.inOffsets(layout.position(v))) = broken.n + 5
    val uniform = LocalCpi.uniformSeed(clean.n)
    for (_ <- 0 until 5) {
      intercept[ArrayIndexOutOfBoundsException](LocalCpi.run(broken, uniform, c, eps, 0, Int.MaxValue))
      assert(poolQuiet())
      assertIdentical(window(clean, uniform, 0, Int.MaxValue), ReferenceCpi.run(clean, uniform, c, eps, 0, Int.MaxValue))
    }
  }

  test("team: a layout block that throws is rethrown, and no half-built layout is kept") {
    val (_, clean) = midGraph
    // The same edges, one of them into a node outside the graph: whichever
    // thread counts that edge's block throws.
    val targets = clean.targets.clone()
    val broken = new LocalGraph(clean.n, clean.offsets, targets)
    val j = targets.length / 2
    targets(j) = clean.n + 5
    val uniform = LocalCpi.uniformSeed(clean.n)
    for (_ <- 0 until 5) {
      intercept[ArrayIndexOutOfBoundsException](LocalCpi.run(broken, uniform, c, eps, 0, Int.MaxValue))
      assert(poolQuiet())
      intercept[ArrayIndexOutOfBoundsException](broken.inDeg(0))
      assert(poolQuiet())
    }
    // Mended, the same graph builds its layout anew.
    targets(j) = clean.targets(j)
    assertIdentical(window(broken, uniform, 0, Int.MaxValue), ReferenceCpi.run(clean, uniform, c, eps, 0, Int.MaxValue))
    for (v <- 0 until clean.n) assert(broken.inDeg(v) == clean.inDeg(v), s"in-degree of $v")
  }

  test("team: Tpa.preprocess returns while every common-pool thread is held") {
    val (_, g) = pullGraphs.head
    val t = 5
    val sequential = Tpa.preprocess(g, c, eps, t).stranger
    val pool = ForkJoinPool.commonPool()
    val held = new CountDownLatch(pool.getParallelism)
    val release = new CountDownLatch(1)
    val caller = Executors.newSingleThreadExecutor()
    try {
      for (_ <- 0 until pool.getParallelism) pool.execute(new Runnable {
        def run(): Unit = { held.countDown(); release.await() }
      })
      assert(held.await(30, TimeUnit.SECONDS), "every pool thread should be held")
      // A fresh graph over the same arrays builds its layout and starts its
      // first team under the held pool too.
      for (graph <- Seq(g, new LocalGraph(g.n, g.offsets, g.targets))) {
        val run = caller.submit(new Callable[Array[Double]] {
          def call(): Array[Double] = Tpa.preprocess(graph, c, eps, t).stranger
        })
        assertIdentical(run.get(120, TimeUnit.SECONDS), sequential)
      }
      // So does a fresh graph's layout built through inDeg.
      val fresh = new LocalGraph(g.n, g.offsets, g.targets)
      val inDeg = caller.submit(new Callable[Int] { def call(): Int = fresh.inDeg(g.n - 1) })
      assert(inDeg.get(120, TimeUnit.SECONDS) == g.inDeg(g.n - 1))
      // So does a fresh CSR build above the floor.
      val src = new Array[Int](g.m)
      for (u <- 0 until g.n; j <- g.offsets(u) until g.offsets(u + 1)) src(j) = u
      assert(g.m > Team.MinEdges)
      val built = caller.submit(new Callable[LocalGraph] { def call(): LocalGraph = LocalGraph.fromEdges(g.n, src, g.targets) })
      val rebuilt = built.get(120, TimeUnit.SECONDS)
      assert(rebuilt.offsets.sameElements(g.offsets) && rebuilt.targets.sameElements(g.targets))
    } finally {
      release.countDown()
      caller.shutdown()
    }
    assert(poolQuiet())
  }

  test("pull hop: Tpa.preprocess on two threads at once equals the sequential runs") {
    val t = 5
    def stranger(i: Int): Array[Double] = Tpa.preprocess(pullGraphs(i)._2, c, eps, t).stranger
    val sequential = pullGraphs.indices.map(stranger)
    val barrier = new CyclicBarrier(2)
    val pool = Executors.newFixedThreadPool(2)
    try {
      val runs = Seq(pullGraphs.indices, pullGraphs.indices.reverse).map { order =>
        pool.submit(new Callable[Seq[(Int, Array[Double])]] {
          def call(): Seq[(Int, Array[Double])] = { barrier.await(); order.map(i => i -> stranger(i)) }
        })
      }
      for (run <- runs; (i, r) <- run.get(120, TimeUnit.SECONDS)) assertIdentical(r, sequential(i))
    } finally pool.shutdown()
  }
}
