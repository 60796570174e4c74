package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.LocalCpi
import repro.graph.GraphGen
import repro.metrics.Metrics

/** NB-LIN correctness: the Sherman–Morrison–Woodbury closed form is
  * exact at full rank and degrades gracefully as the rank shrinks.
  */
class NbLinSpec extends AnyFunSuite {
  val c = 0.15

  val graphs = Seq(
    "random-40" -> TestGraphs.random(40, 240, 31),
    "communities-48" -> GraphGen.communities(48, 4, 300, 0.85, 32),
    "clique-12" -> TestGraphs.clique(12))

  for ((name, g) <- graphs; seed <- Seq(0, 3)) {
    test(s"full-rank NB-LIN matches exact RWR on $name seed $seed") {
      val model = NbLin.preprocess(g, c, rank = g.n)
      val exact = LocalCpi.rwr(g, seed, c, 1e-13)
      assert(Metrics.l1(NbLin.query(model, seed), exact) < 1e-6)
    }
  }

  for ((name, g) <- graphs.take(2)) {
    test(s"low-rank NB-LIN is worse than full-rank on $name") {
      val exact = LocalCpi.rwr(g, 1, c, 1e-13)
      val full = Metrics.l1(NbLin.query(NbLin.preprocess(g, c, g.n), 1), exact)
      val low = Metrics.l1(NbLin.query(NbLin.preprocess(g, c, 3), 1), exact)
      assert(full <= low + 1e-9)
    }
  }

  test("denseW is column stochastic on dangling-free graphs") {
    val g = graphs.head._2
    val w = NbLin.denseW(g)
    for (u <- 0 until g.n) {
      var s = 0.0
      for (v <- 0 until g.n) s += w(v, u)
      assert(math.abs(s - 1.0) < 1e-12)
    }
  }

  test("query puts at least the restart mass c on the seed") {
    val g = graphs.head._2
    val model = NbLin.preprocess(g, c, g.n)
    assert(NbLin.query(model, 5)(5) >= c - 1e-9)
  }

  for (bad <- Seq(0.0, 1.0, 1.5, -0.1, Double.NaN)) {
    test(s"preprocess rejects c = $bad") {
      intercept[IllegalArgumentException](NbLin.preprocess(TestGraphs.cycle(6), bad, 6))
    }
  }

  test("query rejects a seed outside [0, n)") {
    val g = TestGraphs.cycle(6)
    val model = NbLin.preprocess(g, c, g.n)
    for (seed <- Seq(-1, 6)) intercept[IllegalArgumentException](NbLin.query(model, seed))
  }

  test("memoryBytes counts dense U, Λ, V") {
    val g = graphs.head._2
    val k = 7
    val model = NbLin.preprocess(g, c, k)
    val kEff = model.lambda.rows
    assert(kEff <= k)
    assert(model.memoryBytes ==
      8L * (g.n * kEff + kEff * kEff + kEff * g.n))
  }

  test("rank is capped by the number of significant singular values") {
    val g = TestGraphs.cycle(10) // permutation matrix: all σ = 1
    val model = NbLin.preprocess(g, c, rank = 30)
    assert(model.lambda.rows <= 10)
  }
}
