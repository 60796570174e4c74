package repro.bench

import repro.core.Tpa
import repro.experiments.{Experiments, ExpConfig}
import repro.graph.Datasets

/** Figures 1(c) and 4: L1 error and Spearman rank accuracy of every
  * method against the exact RWR. Paper claims TPA is the most accurate
  * approximate method (up to 6× lower L1, 3.5× lower rank error), and
  * Theorem 2 bounds TPA's L1 error by 2(1-c)^S.
  */
class Fig1cAccuracyBench extends BenchBase {

  test("Fig 1(c): TPA L1 error obeys the Theorem 2 bound on every dataset") {
    val rows = Experiments.online
    banner("Fig 1(c): L1 error", Experiments.fig1cTable(rows))
    for ((spec, r) <- Datasets.all.zip(rows)) {
      val l1 = r.stats("TPA").get.l1
      assert(l1 <= Tpa.accuracyBound(ExpConfig.c, spec.s) + 1e-6,
        s"${r.dataset}: $l1 > bound ${Tpa.accuracyBound(ExpConfig.c, spec.s)}")
    }
  }

  test("Fig 4: TPA rank accuracy is high on every dataset") {
    val rows = Experiments.online
    banner("Fig 4: Spearman rank accuracy", Experiments.fig4Table(rows))
    for (r <- rows) {
      val sp = r.stats("TPA").get.spearman
      assert(sp > 0.8, s"${r.dataset}: TPA Spearman $sp")
    }
  }
}
