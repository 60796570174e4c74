package repro.bench

import repro.experiments.Experiments
import repro.graph.Datasets

/** Figure 1(b): online (query) time per method. Paper claims TPA is the
  * fastest online method on every dataset (up to 150× on Pokec), with
  * HubPPR's full-vector queries 10⁴× slower.
  */
class Fig1bOnlineBench extends BenchBase {

  test("Fig 1(b): TPA answers online queries on every dataset") {
    banner("Fig 1(b): online time", Experiments.fig1bOnline())
    for (spec <- Datasets.all) {
      val st = Experiments.onlineStats(spec).map(s => s.method -> s).toMap
      assert(st("TPA").avgMs > 0)
      // HubPPR full-vector queries, where they run at all, are orders of
      // magnitude slower than TPA (the paper's 10⁴× observation).
      if (st("HubPPR").available)
        assert(st("HubPPR").avgMs > 10 * st("TPA").avgMs,
          s"${spec.name}: HubPPR ${st("HubPPR").avgMs} vs TPA ${st("TPA").avgMs}")
    }
  }
}
