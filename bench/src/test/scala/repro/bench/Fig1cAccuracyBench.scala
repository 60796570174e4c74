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
    banner("Fig 1(c): L1 error", Experiments.fig1cL1())
    for (spec <- Datasets.all) {
      val st = Experiments.onlineStats(spec).map(s => s.method -> s).toMap
      assert(st("TPA").avgL1 <= Tpa.accuracyBound(ExpConfig.c, spec.s) + 1e-6,
        s"${spec.name}: ${st("TPA").avgL1} > bound ${Tpa.accuracyBound(ExpConfig.c, spec.s)}")
    }
  }

  test("Fig 4: TPA rank accuracy is high on every dataset") {
    banner("Fig 4: Spearman rank accuracy", Experiments.fig4Spearman())
    for (spec <- Datasets.all) {
      val st = Experiments.onlineStats(spec).map(s => s.method -> s).toMap
      assert(st("TPA").avgSpearman > 0.8,
        s"${spec.name}: TPA Spearman ${st("TPA").avgSpearman}")
    }
  }
}
