package repro.core

import java.util.Arrays
import java.util.concurrent.{Callable, CyclicBarrier, Executors, TimeUnit}

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{GraphGen, LocalGraph}
import repro.metrics.Metrics

/** TPA (Algorithms 2 & 3) correctness: the Lemma 2 / Lemma 4 / Theorem 2
  * accuracy bounds hold on every tested graph and seed, the neighbor
  * scaling factor matches its closed form, TPA decomposes as
  * TPA-NA + stranger, bad queries are rejected, and the online phase
  * equals the plain dense loop bit for bit.
  */
class TpaSpec extends AnyFunSuite {
  val c = 0.15
  val eps = 1e-12

  val graphs = Seq(
    "random-200" -> TestGraphs.random(200, 1200, 11),
    "communities-300" -> GraphGen.communities(300, 10, 2400, 0.9, 12),
    "random-120" -> TestGraphs.random(120, 500, 13))

  for ((name, g) <- graphs; seed <- Seq(0, 3, 7, 15, 21, 33, 47, 59, 61, 83)) {
    test(s"Theorem 2: ‖r_CPI − r_TPA‖₁ ≤ 2(1-c)^S on $name seed ${seed % g.n}") {
      val s = 4; val t = 10
      val sd = seed % g.n
      val model = Tpa.preprocess(g, c, eps, t)
      val tpa = Tpa.online(g, model, s, sd, eps)
      val exact = LocalCpi.rwr(g, sd, c, eps)
      assert(Metrics.l1(exact, tpa) <= Tpa.accuracyBound(c, s) + 1e-9)
    }
  }

  for ((name, g) <- graphs; t <- Seq(5, 10, 15)) {
    test(s"Lemma 2: ‖r_stranger − p_stranger‖₁ ≤ 2(1-c)^T on $name T=$t") {
      val sd = 1
      val rStr = LocalCpi.run(g, LocalCpi.unitSeed(g.n, sd), c, eps, t, Int.MaxValue)
      val pStr = LocalCpi.run(g, LocalCpi.uniformSeed(g.n), c, eps, t, Int.MaxValue)
      assert(Metrics.l1(rStr, pStr) <= 2 * math.pow(1 - c, t) + 1e-9)
    }
  }

  for ((name, g) <- graphs; (s, t) <- Seq((2, 8), (4, 10), (3, 12))) {
    test(s"Lemma 4: ‖r_nbr − r̃_nbr‖₁ ≤ 2((1-c)^S − (1-c)^T) on $name S=$s T=$t") {
      val sd = 2
      val q = LocalCpi.unitSeed(g.n, sd)
      val rNbr = LocalCpi.run(g, q, c, 0.0, s, t - 1)
      val fam = Tpa.family(g, c, s, sd, eps)
      val factor = Tpa.neighborFactor(c, s, t)
      val approx = fam.map(_ * factor)
      val bound = 2 * (math.pow(1 - c, s) - math.pow(1 - c, t))
      assert(Metrics.l1(rNbr, approx) <= bound + 1e-9)
    }
  }

  for ((s, t) <- Seq((1, 2), (2, 5), (4, 10), (4, 40), (3, 20), (2, 15))) {
    test(s"neighborFactor closed form equals Lemma-3 norm ratio (S=$s, T=$t)") {
      val g = graphs.head._2
      val q = LocalCpi.unitSeed(g.n, 9)
      val famN = TestGraphs.norm1(LocalCpi.run(g, q, c, 0.0, 0, s - 1))
      val nbrN = TestGraphs.norm1(LocalCpi.run(g, q, c, 0.0, s, t - 1))
      assert(math.abs(Tpa.neighborFactor(c, s, t) - nbrN / famN) < 1e-9)
    }
  }

  for ((name, g) <- graphs) {
    test(s"TPA = TPA-NA + stranger on $name") {
      val s = 4; val t = 10; val sd = 5
      val model = Tpa.preprocess(g, c, eps, t)
      val tpa = Tpa.online(g, model, s, sd, eps)
      val na = Tpa.onlineNA(g, c, s, t, sd, eps)
      val sum = Array.tabulate(g.n)(i => na(i) + model.stranger(i))
      assert(Metrics.l1(tpa, sum) < 1e-12)
    }
  }

  for ((name, g) <- graphs) {
    test(s"TPA total mass ≈ 1 on dangling-free $name") {
      val model = Tpa.preprocess(g, c, eps, 10)
      val tpa = Tpa.online(g, model, 4, 0, eps)
      // ‖family‖+‖neighbor~‖ = 1-(1-c)^T exactly; ‖stranger~‖ = (1-c)^T
      assert(math.abs(TestGraphs.norm1(tpa) - 1.0) < 1e-7)
    }
  }

  test("stranger vector is seed-independent (depends only on graph, c, T)") {
    val g = graphs.head._2
    val m1 = Tpa.preprocess(g, c, eps, 10)
    val m2 = Tpa.preprocess(g, c, eps, 10)
    assert(Metrics.l1(m1.stranger, m2.stranger) == 0.0)
  }

  test("stranger norm equals (1-c)^T on dangling-free graphs") {
    val g = graphs(1)._2
    val model = Tpa.preprocess(g, c, eps, 8)
    assert(math.abs(TestGraphs.norm1(model.stranger) - math.pow(1 - c, 8)) < 1e-7)
  }

  test("accuracy improves as S grows (bound and measured, averaged over seeds)") {
    val g = graphs(1)._2
    val t = 12
    val model = Tpa.preprocess(g, c, eps, t)
    val seeds = Seq(0, 10, 20, 30, 40)
    def avgErr(s: Int): Double = seeds.map { sd =>
      Metrics.l1(LocalCpi.rwr(g, sd, c, eps), Tpa.online(g, model, s, sd, eps))
    }.sum / seeds.size
    assert(avgErr(6) < avgErr(1))
    assert(Tpa.accuracyBound(c, 6) < Tpa.accuracyBound(c, 1))
  }

  test("neighborFactor rejects invalid S/T") {
    intercept[IllegalArgumentException](Tpa.neighborFactor(c, 0, 5))
    intercept[IllegalArgumentException](Tpa.neighborFactor(c, 5, 4))
  }

  test("Model.memoryBytes is 8 bytes per node") {
    val g = graphs.head._2
    val model = Tpa.preprocess(g, c, eps, 10)
    assert(model.memoryBytes == 8L * g.n)
  }

  test("preprocess rejects T < 1") {
    val (_, g) = graphs.head
    for (t <- Seq(0, -1)) intercept[IllegalArgumentException](Tpa.preprocess(g, c, eps, t))
  }

  test("online, onlineNA and family reject a seed out of range") {
    val (_, g) = graphs.head
    val model = Tpa.preprocess(g, c, eps, 10)
    for (seed <- Seq(-1, g.n)) {
      intercept[IllegalArgumentException](Tpa.online(g, model, 4, seed, eps))
      intercept[IllegalArgumentException](Tpa.onlineNA(g, c, 4, 10, seed, eps))
      intercept[IllegalArgumentException](Tpa.family(g, c, 4, seed, eps))
    }
  }

  test("online, onlineNA and family reject S < 1") {
    val (_, g) = graphs.head
    val model = Tpa.preprocess(g, c, eps, 10)
    intercept[IllegalArgumentException](Tpa.online(g, model, 0, 1, eps))
    intercept[IllegalArgumentException](Tpa.onlineNA(g, c, 0, 10, 1, eps))
    intercept[IllegalArgumentException](Tpa.family(g, c, 0, 1, eps))
  }

  test("online and onlineNA reject S > T") {
    val (_, g) = graphs.head
    val model = Tpa.preprocess(g, c, eps, 5)
    intercept[IllegalArgumentException](Tpa.online(g, model, 6, 1, eps))
    intercept[IllegalArgumentException](Tpa.onlineNA(g, c, 6, 5, 1, eps))
  }

  test("online rejects a model built for a graph with another node count") {
    val (_, g) = graphs.head
    val other = Tpa.preprocess(graphs(2)._2, c, eps, 10)
    intercept[IllegalArgumentException](Tpa.online(g, other, 4, 1, eps))
  }

  test("a query answered after rejected ones is bit-identical to one answered before") {
    val (_, g) = graphs.head
    val model = Tpa.preprocess(g, c, eps, 10)
    val before = Tpa.online(g, model, 4, 7, eps)
    val wrongModel = Tpa.preprocess(graphs(2)._2, c, eps, 10)
    intercept[IllegalArgumentException](Tpa.online(g, model, 4, g.n, eps))
    intercept[IllegalArgumentException](Tpa.online(g, model, 11, 7, eps))
    intercept[IllegalArgumentException](Tpa.online(g, wrongModel, 4, 7, eps))
    assert(Arrays.equals(Tpa.online(g, model, 4, 7, eps), before))
  }

  for ((name, g) <- graphs; s <- Seq(1, 2, 4)) {
    test(s"online, onlineNA and family equal the dense loop bit for bit on $name S=$s") {
      val t = 10
      val model = Tpa.preprocess(g, c, eps, t)
      for (seed <- Seq(0, 7, 33)) {
        val fam = ReferenceCpi.run(g, LocalCpi.unitSeed(g.n, seed), c, eps, 0, s - 1)
        val scale = 1.0 + Tpa.neighborFactor(c, s, t)
        assert(Arrays.equals(Tpa.family(g, c, s, seed, eps), fam))
        assert(Arrays.equals(Tpa.onlineNA(g, c, s, t, seed, eps), fam.map(_ * scale)))
        assert(Arrays.equals(Tpa.online(g, model, s, seed, eps), ReferenceCpi.tpa(g, c, s, t, seed, eps)))
      }
    }
  }

  test("concurrent online calls on two threads equal the sequential answers") {
    // Two graphs with different n, so each thread's scratch is also rebuilt.
    val work = Seq(graphs(0)._2, graphs(1)._2).map(g => (g, Tpa.preprocess(g, c, eps, 10)))
    val queries = for (seed <- 0 until 150; (g, model) <- work) yield (g, model, seed % g.n)
    def answer(i: Int): Array[Double] = {
      val (g, model, seed) = queries(i)
      Tpa.online(g, model, 1 + i % 5, seed, eps)
    }
    val sequential = queries.indices.map(answer)
    val barrier = new CyclicBarrier(2)
    val pool = Executors.newFixedThreadPool(2)
    try {
      val runs = Seq(queries.indices, queries.indices.reverse).map { order =>
        pool.submit(new Callable[Seq[(Int, Array[Double])]] {
          def call(): Seq[(Int, Array[Double])] = { barrier.await(); order.map(i => i -> answer(i)) }
        })
      }
      for (run <- runs; (i, r) <- run.get(60, TimeUnit.SECONDS))
        assert(Arrays.equals(r, sequential(i)), s"query $i differs")
    } finally pool.shutdown()
  }

  /** A random small digraph (self-loops, duplicate edges and dangling nodes
    * allowed) with a query on it.
    */
  final class Query(val g: LocalGraph, val s: Int, val t: Int, val c: Double, val seed: Int) {
    override def toString = s"Query(n=${g.n}, m=${g.m}, S=$s, T=$t, c=$c, seed=$seed)"
  }

  val queryGen: Gen[Query] = for {
    n <- Gen.choose(2, 40)
    m <- Gen.choose(0, 4 * n)
    edges <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    s <- Gen.choose(1, 6)
    t <- Gen.choose(s, 14)
    c <- Gen.choose(0.05, 0.9)
    seed <- Gen.choose(0, n - 1)
  } yield new Query(LocalGraph.fromEdges(n, edges.map(_._1).toArray, edges.map(_._2).toArray), s, t, c, seed)

  test("property: Theorem 2 holds and online equals the dense loop on random small graphs") {
    val prop = Prop.forAll(queryGen) { q =>
      val model = Tpa.preprocess(q.g, q.c, eps, q.t)
      val tpa = Tpa.online(q.g, model, q.s, q.seed, eps)
      val exact = LocalCpi.rwr(q.g, q.seed, q.c, eps)
      val exactRef = ReferenceCpi.run(q.g, LocalCpi.unitSeed(q.g.n, q.seed), q.c, eps, 0, Int.MaxValue)
      Metrics.l1(exact, tpa) <= Tpa.accuracyBound(q.c, q.s) + 1e-9 &&
        Arrays.equals(exact, exactRef) &&
        Arrays.equals(tpa, ReferenceCpi.tpa(q.g, q.c, q.s, q.t, q.seed, eps))
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(20180416L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }
}
