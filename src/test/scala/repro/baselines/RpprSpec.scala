package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.LocalCpi
import repro.graph.GraphGen
import repro.metrics.Metrics

/** RPPR/BRPPR push correctness: both converge to the exact RWR as their
  * expansion thresholds go to zero, with the analytic error bounds of
  * the push invariant (residual mass bounds the L1 error).
  */
class RpprSpec extends AnyFunSuite {
  val c = 0.15

  val graphs = Seq(
    "random-150" -> TestGraphs.random(150, 900, 21),
    "communities-200" -> GraphGen.communities(200, 5, 1200, 0.85, 22),
    "cycle-40" -> TestGraphs.cycle(40))

  for ((name, g) <- graphs; seed <- Seq(0, 7, 13)) {
    test(s"RPPR converges to exact RWR as θ→0 on $name seed $seed") {
      val exact = LocalCpi.rwr(g, seed, c, 1e-12)
      val approx = Rppr.rppr(g, seed, c, theta = 1e-10)
      // residual ≤ θ per node ⇒ total error ≤ n·θ
      assert(Metrics.l1(exact, approx) <= g.n * 1e-10 + 1e-9)
    }
  }

  for ((name, g) <- graphs; seed <- Seq(0, 5)) {
    test(s"RPPR error shrinks with θ on $name seed $seed") {
      val exact = LocalCpi.rwr(g, seed, c, 1e-12)
      val coarse = Metrics.l1(exact, Rppr.rppr(g, seed, c, 1e-2))
      val fine = Metrics.l1(exact, Rppr.rppr(g, seed, c, 1e-6))
      assert(fine <= coarse + 1e-12)
    }
  }

  for ((name, g) <- graphs; kappa <- Seq(1e-1, 1e-2, 1e-4); seed = 3) {
    test(s"BRPPR error ≤ κ=$kappa on $name (push invariant)") {
      val exact = LocalCpi.rwr(g, seed, c, 1e-12)
      val approx = Rppr.brppr(g, seed, c, kappa)
      // r_exact − p = Σ_v res(v)·rwr_v, and each rwr_v has L1 norm ≤ 1,
      // so ‖error‖₁ ≤ total residual < κ at termination.
      assert(Metrics.l1(exact, approx) <= kappa + 1e-9)
    }
  }

  for ((name, g) <- graphs) {
    test(s"RPPR estimate is a sub-probability vector on $name") {
      val r = Rppr.rppr(g, 1, c, 1e-4)
      assert(r.forall(_ >= 0.0))
      assert(TestGraphs.norm1(r) <= 1.0 + 1e-9)
    }
  }

  test("BRPPR with κ ≥ 1 does almost no work") {
    val g = graphs.head._2
    val r = Rppr.brppr(g, 0, c, kappa = 1.0)
    // one push, of the seed: c stays there, the rest is left as residual
    assert(r(0) == c && r.count(_ != 0.0) == 1)
  }

  test("RPPR and BRPPR reject a seed outside [0, n)") {
    val g = graphs.head._2
    for (seed <- Seq(-1, g.n)) {
      intercept[IllegalArgumentException](Rppr.rppr(g, seed, c, 1e-4))
      intercept[IllegalArgumentException](Rppr.brppr(g, seed, c, 1e-3))
    }
  }

  for (bad <- Seq(0.0, 1.0, 1.5, -0.1, Double.NaN)) {
    test(s"RPPR rejects c = $bad") {
      intercept[IllegalArgumentException](Rppr.rppr(graphs.head._2, 0, bad, 1e-4))
    }
    test(s"BRPPR rejects c = $bad") {
      intercept[IllegalArgumentException](Rppr.brppr(graphs.head._2, 0, bad, 1e-3))
    }
  }

  for (bad <- Seq(-1.0, Double.NaN)) {
    test(s"RPPR rejects θ = $bad") {
      intercept[IllegalArgumentException](Rppr.rppr(graphs.head._2, 0, c, bad))
    }
    test(s"BRPPR rejects κ = $bad") {
      intercept[IllegalArgumentException](Rppr.brppr(graphs.head._2, 0, c, bad))
    }
  }

  test("θ = 0, κ = 0 and rMax = 0 are rejected") {
    val g = GraphGen.rmat(8, 600, 7)
    intercept[IllegalArgumentException](Rppr.rppr(g, 0, c, 0.0))
    intercept[IllegalArgumentException](Rppr.brppr(g, 0, c, 0.0))
    intercept[IllegalArgumentException](HubPpr.backwardPush(g, 0, c, 0.0))
  }

  test("coarse RPPR concentrates mass near the seed (locality)") {
    val g = GraphGen.communities(200, 5, 1200, 0.9, 23)
    val r = Rppr.rppr(g, 0, c, 1e-3)
    // the seed retains the single largest score
    assert(r(0) == r.max)
  }
}
