package repro.bench

import repro.experiments.{Experiments, Runner}
import repro.graph.Datasets

/** Figure 3: memory for preprocessed data. Paper claims TPA needs up to
  * 20× less space than the other preprocessing methods (O(n) stranger
  * vector vs dense low-rank factors / block inverses / push indexes).
  */
class Fig3MemoryBench extends BenchBase {

  test("Fig 3: TPA stores the least preprocessed data") {
    banner("Fig 3: preprocessed-data memory", Experiments.fig3Memory())
    for (spec <- Datasets.all) {
      val tpa = Runner.tpaModel(spec).value.memoryBytes
      assert(tpa == 8L * spec.n) // O(n), exactly one double per node
      Runner.nbLinModel(spec).foreach(nb =>
        assert(tpa < nb.value.memoryBytes,
          s"${spec.name}: TPA $tpa !< NB-LIN ${nb.value.memoryBytes}"))
      Runner.bearModel(spec).foreach(bear =>
        assert(tpa < bear.value.memoryBytes,
          s"${spec.name}: TPA $tpa !< BEAR ${bear.value.memoryBytes}"))
      val hub = Runner.hubPprModel(spec).value.memoryBytes
      assert(tpa < hub, s"${spec.name}: TPA $tpa !< HubPPR $hub")
    }
  }
}
