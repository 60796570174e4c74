package repro.bench

import repro.experiments.Experiments
import repro.graph.Datasets

/** Figure 6: effectiveness of the neighbor approximation — TPA-NA on
  * block-structured (RMAT) graphs vs Erdős–Rényi graphs with the same
  * n and m. Paper claims lower L1 error on the real(-like) graphs
  * (block-wise revisits make the family part a good proxy) but lower
  * ranking accuracy there (scores stay trapped in the community).
  */
class Fig6NeighborBench extends BenchBase {

  test("Fig 6: neighbor approximation exploits block structure") {
    val rows = Experiments.fig6Neighbor()
    banner("Fig 6: TPA-NA on real-like vs random graphs", Experiments.fig6Table(rows))
    val l1Wins = rows.count(r => r.l1Real < r.l1Random)
    assert(l1Wins >= (Datasets.all.size + 1) / 2,
      s"TPA-NA had lower L1 on real-like graphs only $l1Wins/${Datasets.all.size} times")
  }
}
