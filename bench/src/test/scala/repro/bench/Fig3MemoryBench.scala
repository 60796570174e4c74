package repro.bench

import repro.experiments.Experiments
import repro.graph.Datasets

/** Figure 3: memory for preprocessed data. Paper claims TPA needs up to
  * 20× less space than the other preprocessing methods (O(n) stranger
  * vector vs dense low-rank factors / block inverses / push indexes).
  */
class Fig3MemoryBench extends BenchBase {

  test("Fig 3: TPA stores the least preprocessed data") {
    val rows = Experiments.preprocess
    banner("Fig 3: preprocessed-data memory", Experiments.fig3Table(rows))
    for ((spec, r) <- Datasets.all.zip(rows)) {
      val tpa = r.stats("TPA").get.bytes
      assert(tpa == 8L * spec.n) // O(n), exactly one double per node
      assert(r.stats("HubPPR").nonEmpty)
      // TPA stores less than every preprocessing competitor that ran at all
      for (m <- Seq("NB-LIN", "BEAR-APPROX", "HubPPR"); p <- r.stats(m))
        assert(tpa < p.bytes, s"${r.dataset}: TPA $tpa !< $m ${p.bytes}")
    }
  }
}
