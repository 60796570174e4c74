package repro.bench

import repro.experiments.Experiments
import repro.graph.Datasets

/** Figure 3: memory for preprocessed data. Paper claims TPA needs up to
  * 20× less space than the other preprocessing methods (O(n) stranger
  * vector vs dense low-rank factors / block inverses / push indexes).
  */
class Fig3MemoryBench extends BenchBase {

  test("Fig 3: TPA stores the least preprocessed data") {
    val rows = Experiments.fig3Memory()
    banner("Fig 3: preprocessed-data memory", Experiments.fig3Table(rows))
    for ((spec, r) <- Datasets.all.zip(rows)) {
      val tpa = r.tpaBytes
      assert(tpa == 8L * spec.n) // O(n), exactly one double per node
      r.nbLinBytes.foreach(nb => assert(tpa < nb, s"${r.dataset}: TPA $tpa !< NB-LIN $nb"))
      r.bearBytes.foreach(bear => assert(tpa < bear, s"${r.dataset}: TPA $tpa !< BEAR $bear"))
      assert(tpa < r.hubPprBytes, s"${r.dataset}: TPA $tpa !< HubPPR ${r.hubPprBytes}")
    }
  }
}
