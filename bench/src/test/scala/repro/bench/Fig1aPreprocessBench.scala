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
    val rows = Experiments.preprocess
    banner("Fig 1(a): preprocessing time", Experiments.fig1aTable(rows))
    for (r <- rows) {
      val tpaMs = r.stats("TPA").get.ms
      assert(tpaMs > 0, s"${r.dataset}: TPA preprocessing did not run")
      // TPA is faster than every preprocessing competitor that ran at all
      for (m <- Seq("NB-LIN", "BEAR-APPROX"); p <- r.stats(m))
        assert(tpaMs < p.ms, s"${r.dataset}: TPA $tpaMs !< $m ${p.ms}")
    }
    // paper: NB-LIN fails from Pokec onward, BEAR from Google onward
    val byName = rows.map(r => r.dataset -> r.stats).toMap
    assert(byName(Datasets.pokec.name)("NB-LIN").isEmpty)
    assert(byName(Datasets.google.name)("BEAR-APPROX").isEmpty)
    assert(byName(Datasets.slashdot.name)("NB-LIN").nonEmpty)
    assert(byName(Datasets.slashdot.name)("BEAR-APPROX").nonEmpty)
  }
}
