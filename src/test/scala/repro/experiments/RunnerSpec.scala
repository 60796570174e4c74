package repro.experiments

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{LocalCpi, Tpa}
import repro.graph.{DatasetSpec, GraphGen}
import repro.metrics.Metrics

/** Harness plumbing: table rendering, formatting, timing, the exact
  * cache, the model memo and the evaluation loop, and the Section IV-A
  * defaults in ExpConfig.
  */
class RunnerSpec extends AnyFunSuite {

  test("table renders a markdown table with header separator") {
    val t = Runner.table(Seq("a", "b"), Seq(Seq("1", "2"), Seq("3", "4")))
    val lines = t.trim.split("\n")
    assert(lines.length == 4)
    assert(lines(0) == "| a | b |")
    assert(lines(1) == "| --- | --- |")
    assert(lines(3) == "| 3 | 4 |")
  }

  test("fmtBytes switches units at 1 MB") {
    assert(Runner.fmtBytes(512) == "0.5 KB")
    assert(Runner.fmtBytes(2L * 1024 * 1024) == "2.00 MB")
  }

  test("fmtMs and fmtSci format plainly") {
    assert(Runner.fmtMs(12.345) == "12.3 ms")
    assert(Runner.fmtMs(1.0) == "1.0 ms")
    assert(Runner.fmtSci(0.00123).startsWith("1.230e"))
  }

  test("fmtMs keeps three significant digits below 1 ms") {
    assert(Runner.fmtMs(0.98765) == "0.988 ms")
    assert(Runner.fmtMs(0.5) == "0.500 ms")
    assert(Runner.fmtMs(0.012345) == "0.0123 ms")
    assert(Runner.fmtMs(0.0) == "0.00 ms")
  }

  test("time measures a thunk and returns its value") {
    val t = Runner.time { Thread.sleep(10); 42 }
    assert(t.value == 42)
    assert(t.ms >= 5.0)
  }

  test("exact is cached per graph: one seed on two graphs gives each graph's vector") {
    val (g1, g2) = (GraphGen.rmat(6, 300, 1), GraphGen.rmat(6, 300, 2))
    val (r1, r2) = (Runner.exact(g1, 3), Runner.exact(g2, 3))
    assert(r1.sameElements(LocalCpi.rwr(g1, 3, ExpConfig.c, ExpConfig.eps)))
    assert(r2.sameElements(LocalCpi.rwr(g2, 3, ExpConfig.c, ExpConfig.eps)))
    assert(!r1.sameElements(r2))
    assert(Runner.exact(g1, 3) eq r1)
  }

  test("evaluate averages time, L1 and Spearman over the seeds") {
    val g = GraphGen.rmat(6, 300, 1)
    val approx = (s: Int) => Tpa.onlineNA(g, ExpConfig.c, 2, 5, s, ExpConfig.eps)
    val e = Runner.evaluate(g, Seq(4, 9)) { s => Thread.sleep(5); approx(s) }
    val ex = Seq(4, 9).map(LocalCpi.rwr(g, _, ExpConfig.c, ExpConfig.eps))
    val (a4, a9) = (approx(4), approx(9))
    assert(e.l1 == (Metrics.l1(a4, ex(0)) + Metrics.l1(a9, ex(1))) / 2)
    assert(e.spearman == (Metrics.spearman(a4, ex(0)) + Metrics.spearman(a9, ex(1))) / 2)
    assert(e.l1 > 0 && e.spearman > 0 && e.ms >= 5.0)
  }

  test("models memoizes one model set per spec, with every method on a small spec") {
    val spec = DatasetSpec("models-s", 5, 150L, 2, 5, 0L, 0L, 11)
    val m = Runner.models(spec)
    assert(Runner.models(spec) eq m)
    assert(m.tpa.value.stranger.length == spec.n && m.tpa.value.t == spec.t)
    assert(m.nbLin.nonEmpty && m.bear.nonEmpty && m.hubPpr.value.index.nonEmpty)
  }

  test("above the NB-LIN and BEAR gates both models are None and neither is built") {
    // mTarget < 0 makes the graph throw when built, so a model that reads it fails
    val spec = DatasetSpec("gated-s", 12, -1L, 2, 5, 0L, 0L, 12)
    assert(spec.n > ExpConfig.nbLinMaxN && spec.n > ExpConfig.bearMaxN)
    val m = Runner.models(spec)
    assert(m.nbLin.isEmpty && m.bear.isEmpty)
    intercept[IllegalArgumentException](m.tpa)
  }

  test("ExpConfig defaults follow Section IV-A") {
    assert(ExpConfig.c == 0.15)
    assert(ExpConfig.eps == 1e-9)
    assert(ExpConfig.rpprTheta == 1e-4)
    assert(ExpConfig.numSeeds > 0)
  }

  test("feasibility gates are ordered: BEAR ≤ NB-LIN (paper failure order)") {
    // BEAR fails from Google onward, NB-LIN from Pokec onward — so the
    // BEAR gate must not exceed the NB-LIN gate.
    assert(ExpConfig.bearMaxN <= ExpConfig.nbLinMaxN)
  }
}
