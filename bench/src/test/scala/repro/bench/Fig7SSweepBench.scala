package repro.bench

import repro.core.Tpa
import repro.experiments.{ExpConfig, Experiments}
import repro.graph.Datasets

/** Figure 7: effect of S (T fixed at 10) on LiveJournal and Pokec.
  * Paper: online time grows sharply with S while L1 error falls — S
  * trades accuracy for speed.
  */
class Fig7SSweepBench extends BenchBase {

  test("Fig 7: growing S lowers L1 error and raises online cost") {
    val rows = Experiments.fig7SSweep()
    banner("Fig 7: effect of S (T=10)", Experiments.fig7Table(rows))
    for (spec <- Seq(Datasets.livejournal, Datasets.pokec)) {
      val l1 = rows.filter(_.dataset == spec.name).map(r => r.s -> r.l1).toMap
      // L1 error decreases from S=1 to S=8; work grows with S
      assert(l1(8) < l1(1), s"${spec.name}: L1 did not fall (S=1 ${l1(1)} vs S=8 ${l1(8)})")
      // analytic bound falls monotonically
      assert(Tpa.accuracyBound(ExpConfig.c, 8) < Tpa.accuracyBound(ExpConfig.c, 1))
    }
  }
}
