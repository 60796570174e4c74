package repro.bench

import repro.experiments.Experiments
import repro.graph.Datasets

/** Figure 5: effectiveness of the stranger approximation — TPA vs
  * TPA-NA. Paper claims the stranger term mostly improves *ranking*
  * (TPA-NA has no information about faraway nodes), while the L1
  * improvement is small.
  */
class Fig5StrangerBench extends BenchBase {

  test("Fig 5: stranger approximation lifts rank accuracy over TPA-NA") {
    val rows = Experiments.online
    banner("Fig 5: TPA vs TPA-NA", Experiments.fig5Table(rows))
    val wins = rows.count(r => r.stats("TPA").get.spearman > r.stats("TPA-NA").get.spearman)
    // the ranking improvement is the paper's headline claim for Fig 5
    assert(wins == Datasets.all.size,
      s"TPA beat TPA-NA in Spearman on only $wins/${Datasets.all.size} datasets")
  }
}
