package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.LocalCpi
import repro.graph.GraphGen
import repro.metrics.Metrics

/** BEAR-APPROX correctness: block elimination is exact at drop
  * tolerance 0, the hub/spoke permutation is a true permutation, and
  * dropping trades memory for bounded error.
  */
class BearApproxSpec extends AnyFunSuite {
  val c = 0.15

  val graphs = Seq(
    "random-60" -> TestGraphs.random(60, 360, 41),
    "communities-80" -> GraphGen.communities(80, 4, 480, 0.85, 42),
    "cycle-30" -> TestGraphs.cycle(30))

  for ((name, g) <- graphs; seed <- Seq(0, 9)) {
    test(s"drop tolerance 0 reproduces exact RWR on $name seed $seed") {
      val model = BearApprox.preprocess(g, c, hubFrac = 0.2, dropTol = 0.0)
      val exact = LocalCpi.rwr(g, seed, c, 1e-13)
      assert(Metrics.l1(BearApprox.query(model, seed), exact) < 1e-8)
    }
  }

  for ((name, g) <- graphs) {
    test(s"hub/spoke ordering is a permutation on $name") {
      val model = BearApprox.preprocess(g, c, 0.2, 0.0)
      assert(model.order.sorted.sameElements(Array.range(0, g.n)))
    }
  }

  test("hubs are the highest-degree nodes") {
    val g = graphs.head._2
    val model = BearApprox.preprocess(g, c, 0.1, 0.0)
    val hubs = model.order.drop(model.n1).toSet
    val minHubDeg = hubs.map(u => g.outDeg(u) + g.inDeg(u)).min
    val maxSpokeDeg = model.order.take(model.n1)
      .map(u => g.outDeg(u) + g.inDeg(u)).max
    assert(minHubDeg >= maxSpokeDeg)
  }

  test("dropping reduces memory and keeps error bounded") {
    val g = graphs(1)._2
    val noDrop = BearApprox.preprocess(g, c, 0.2, 0.0)
    val dropped = BearApprox.preprocess(g, c, 0.2, 1.0 / math.sqrt(g.n.toDouble))
    assert(dropped.memoryBytes <= noDrop.memoryBytes)
    val exact = LocalCpi.rwr(g, 2, c, 1e-13)
    val err = Metrics.l1(BearApprox.query(dropped, 2), exact)
    assert(err < 1.0) // loose sanity: dropped model still roughly correct
  }

  test("different hub fractions both remain exact at drop tolerance 0") {
    val g = graphs.head._2
    val exact = LocalCpi.rwr(g, 4, c, 1e-13)
    for (frac <- Seq(0.05, 0.3, 0.5)) {
      val model = BearApprox.preprocess(g, c, frac, 0.0)
      assert(Metrics.l1(BearApprox.query(model, 4), exact) < 1e-8)
    }
  }

  test("query is a probability vector at drop tolerance 0 (dangling-free)") {
    val g = graphs.head._2
    val model = BearApprox.preprocess(g, c, 0.2, 0.0)
    val r = BearApprox.query(model, 7)
    assert(math.abs(TestGraphs.norm1(r) - 1.0) < 1e-8)
    assert(r.forall(_ >= -1e-12))
  }

  for (bad <- Seq(0.0, 1.0, 1.5, -0.1, Double.NaN)) {
    test(s"preprocess rejects c = $bad") {
      intercept[IllegalArgumentException](BearApprox.preprocess(TestGraphs.cycle(6), bad, 0.2, 0.0))
    }
  }

  test("query rejects a seed outside [0, n)") {
    val g = TestGraphs.cycle(6)
    val model = BearApprox.preprocess(g, c, 0.2, 0.0)
    for (seed <- Seq(-1, 6)) intercept[IllegalArgumentException](BearApprox.query(model, seed))
  }
}
