package repro.bench

import repro.experiments.{Experiments, ExpConfig, Runner}
import repro.graph.Datasets

/** Figure 1(a): preprocessing time. Paper claims TPA preprocesses up to
  * 1140× faster than the other preprocessing methods and is the only
  * one to finish on the billion-scale graphs; here the dense methods
  * are feasibility-gated exactly where the paper reports OOT.
  */
class Fig1aPreprocessBench extends BenchBase {

  test("Fig 1(a): TPA preprocesses everywhere; dense methods only at the bottom") {
    banner("Fig 1(a): preprocessing time", Experiments.fig1aPreprocess())
    for (spec <- Datasets.all) {
      val tpa = Runner.tpaModel(spec)
      assert(tpa.ms > 0, s"${spec.name}: TPA preprocessing did not run")
      // TPA is faster than every preprocessing competitor that ran at all
      Runner.nbLinModel(spec).foreach(nb =>
        assert(tpa.ms < nb.ms, s"${spec.name}: TPA ${tpa.ms} !< NB-LIN ${nb.ms}"))
      Runner.bearModel(spec).foreach(bear =>
        assert(tpa.ms < bear.ms, s"${spec.name}: TPA ${tpa.ms} !< BEAR ${bear.ms}"))
    }
    // paper: NB-LIN fails from Pokec onward, BEAR from Google onward
    assert(Runner.nbLinModel(Datasets.pokec).isEmpty)
    assert(Runner.bearModel(Datasets.google).isEmpty)
    assert(Runner.nbLinModel(Datasets.slashdot).nonEmpty)
    assert(Runner.bearModel(Datasets.slashdot).nonEmpty)
  }
}
