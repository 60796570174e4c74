package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.LocalCpi
import repro.graph.GraphGen
import repro.metrics.Metrics

/** HubPPR correctness: the backward-push invariant holds against exact
  * RWR vectors, the bidirectional estimator converges with the walk
  * budget, and the hub index works.
  */
class HubPprSpec extends AnyFunSuite {
  val c = 0.15
  val g = TestGraphs.random(50, 300, 51)
  val gComm = GraphGen.communities(60, 3, 360, 0.85, 52)

  for (t <- Seq(0, 7, 13, 21, 33)) {
    test(s"backward-push invariant: π(s,t) = p_t(s) + Σ res_t(v)·π(s,v), t=$t") {
      val pr = HubPpr.backwardPush(g, t, c, rMax = 1e-3)
      for (s <- Seq(1, 5, 9)) {
        val exact = LocalCpi.rwr(g, s, c, 1e-12)
        var rhs = pr.p.getOrElse(s.toLong, 0.0) // p_t(s)
        pr.res.foreachEntry((v, rv) => rhs += rv * exact(v.toInt))
        assert(math.abs(exact(t) - rhs) < 1e-6)
      }
    }
  }

  test("backward push with rMax → 0 recovers the exact column") {
    val pr = HubPpr.backwardPush(g, 4, c, rMax = 1e-10)
    for (s <- Seq(0, 2, 8)) {
      val exact = LocalCpi.rwr(g, s, c, 1e-12)
      assert(math.abs(exact(4) - pr.p.getOrElse(s.toLong, 0.0)) < 1e-6)
    }
  }

  test("walk endpoints distribute as the RWR vector (MC soundness)") {
    val rng = new scala.util.Random(1)
    val walks = 200000
    val ep = HubPpr.sampleEndpoints(g, 3, c, walks, rng)
    val exact = LocalCpi.rwr(g, 3, c, 1e-12)
    val emp = new Array[Double](g.n)
    ep.foreachEntry((v, cnt) => emp(v.toInt) = cnt.toDouble / walks)
    assert(Metrics.l1(emp, exact) < 0.05)
  }

  test("full-vector estimate approaches exact RWR") {
    val model = HubPpr.preprocess(g, c, rMax = 1e-3, numHubs = 10)
    val rng = new scala.util.Random(2)
    val est = HubPpr.fullVector(model, g, 3, walks = 50000, rng)
    val exact = LocalCpi.rwr(g, 3, c, 1e-12)
    assert(Metrics.l1(est, exact) < 0.1)
    assert(Metrics.spearman(est, exact) > 0.9)
  }

  test("full-vector estimate works on community graphs too") {
    val model = HubPpr.preprocess(gComm, c, rMax = 1e-3, numHubs = 10)
    val rng = new scala.util.Random(3)
    val est = HubPpr.fullVector(model, gComm, 7, walks = 50000, rng)
    val exact = LocalCpi.rwr(gComm, 7, c, 1e-12)
    assert(Metrics.l1(est, exact) < 0.1)
  }

  test("hub index stores the requested number of targets") {
    val model = HubPpr.preprocess(g, c, 1e-3, numHubs = 7)
    assert(model.index.size == 7)
    // hubs are top in-degree nodes
    val minHubInDeg = model.index.keys.map(g.inDeg).min
    val nonHubs = (0 until g.n).filterNot(model.index.contains)
    assert(nonHubs.forall(u => g.inDeg(u) <= minHubInDeg))
  }

  test("indexed estimate equals fresh-push estimate for a hub target") {
    val model = HubPpr.preprocess(g, c, 1e-3, numHubs = 5)
    val hub = model.index.keys.head
    val rng = new scala.util.Random(4)
    val ep = HubPpr.sampleEndpoints(g, 1, c, 20000, rng)
    val viaIndex = HubPpr.estimate(model, g, 1, hub, ep, 20000)
    val fresh = HubPpr.estimate(model.copy(index = Map.empty), g, 1, hub, ep, 20000)
    assert(math.abs(viaIndex - fresh) < 1e-12)
  }

  test("fullVector rejects a seed outside [0, n)") {
    val model = HubPpr.Model(Map.empty, c, 1e-3)
    for (seed <- Seq(-1, g.n)) {
      intercept[IllegalArgumentException](HubPpr.fullVector(model, g, seed, 10, new scala.util.Random(6)))
      intercept[IllegalArgumentException](HubPpr.backwardPush(g, seed, c, 1e-3))
    }
  }

  for (bad <- Seq(0.0, 1.0, 1.5, -0.1, Double.NaN)) {
    test(s"backwardPush rejects c = $bad") {
      intercept[IllegalArgumentException](HubPpr.backwardPush(g, 0, bad, 1e-3))
    }
    test(s"preprocess rejects c = $bad") {
      intercept[IllegalArgumentException](HubPpr.preprocess(g, bad, 1e-3, 3))
    }
    test(s"sampleEndpoints rejects c = $bad") {
      intercept[IllegalArgumentException](HubPpr.sampleEndpoints(g, 0, bad, 10, new scala.util.Random(7)))
    }
  }

  for (bad <- Seq(-1.0, Double.NaN)) {
    test(s"backwardPush rejects rMax = $bad") {
      intercept[IllegalArgumentException](HubPpr.backwardPush(g, 0, c, bad))
    }
    test(s"preprocess rejects rMax = $bad") {
      intercept[IllegalArgumentException](HubPpr.preprocess(g, c, bad, 3))
    }
  }

  test("sampleEndpoints rejects a negative walk count and a seed outside [0, n), and takes 0 walks") {
    intercept[IllegalArgumentException](HubPpr.sampleEndpoints(g, 0, c, -1, new scala.util.Random(7)))
    for (s <- Seq(-1, g.n))
      intercept[IllegalArgumentException](HubPpr.sampleEndpoints(g, s, c, 10, new scala.util.Random(7)))
    assert(HubPpr.sampleEndpoints(g, 0, c, 0, new scala.util.Random(7)).isEmpty)
  }

  test("memoryBytes counts stored index entries") {
    val model = HubPpr.preprocess(g, c, 1e-3, numHubs = 3)
    val expected = model.index.values.map(pr => 12L * (pr.p.size + pr.res.size)).sum
    assert(model.memoryBytes == expected)
  }
}
