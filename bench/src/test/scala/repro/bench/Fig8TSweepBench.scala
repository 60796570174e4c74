package repro.bench

import repro.experiments.Experiments
import repro.graph.Datasets

/** Figure 8: effect of T (S fixed at 4). Paper (LiveJournal/Pokec):
  * L1 error falls as T grows toward ~10 then rebounds for large T,
  * while Spearman stays essentially flat in T.
  *
  * Our RMAT analogs mix much faster than the paper's multi-million-node
  * graphs (tiny diameter), so the PageRank tail is already accurate at
  * T = S and only the *large-T* penalty appears on them. The full
  * U-shape — both penalties, minimum at T ≈ 10 — reproduces on a
  * strong-community SBM graph, which has the locality the paper's
  * argument (and its real graphs) rely on. Both are printed; see
  * EXPERIMENTS.md for the discussion.
  */
class Fig8TSweepBench extends BenchBase {

  test("Fig 8: T sweep — large-T penalty on analogs, full U-shape on SBM") {
    val rows = Experiments.fig8TSweep()
    banner("Fig 8: effect of T (S=4)", Experiments.fig8Table(rows))
    def sweep(name: String) = rows.filter(_.dataset == name)

    for (name <- Seq(Datasets.livejournal, Datasets.pokec).map(_.name)) {
      val sw = sweep(name)
      val l1 = sw.map(r => r.t -> r.l1).toMap
      // large-T penalty: the tuned T=10 beats the largest swept T
      assert(l1(10) <= l1(30) + 1e-9, s"$name: L1(T=10) ${l1(10)} !<= L1(T=30) ${l1(30)}")
      // Spearman stays high and essentially flat in T
      assert(sw.forall(_.spearman > 0.8), s"$name: Spearman dipped below 0.8")
      assert(sw.map(_.spearman).max - sw.map(_.spearman).min < 0.1,
        s"$name: Spearman varied by more than 0.1 across T")
    }
    // full U-shape on the strong-community graph, minimum at the tuned T=10
    val sbm = sweep("sbm-community")
    val sbmL1 = sbm.map(r => r.t -> r.l1).toMap
    assert(sbmL1(10) < sbmL1(4), s"sbm: L1(T=10) ${sbmL1(10)} !< L1(T=4) ${sbmL1(4)}")
    assert(sbmL1(10) < sbmL1(30), s"sbm: L1(T=10) ${sbmL1(10)} !< L1(T=30) ${sbmL1(30)}")
    // Spearman flat in T on the SBM as well (level is tie-depressed)
    assert(sbm.map(_.spearman).max - sbm.map(_.spearman).min < 0.1)
  }
}
