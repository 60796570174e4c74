package repro.bench

import repro.experiments.Experiments

/** Figure 1(b): online (query) time per method. Paper claims TPA is the
  * fastest online method on every dataset (up to 150× on Pokec), with
  * HubPPR's full-vector queries 10⁴× slower.
  */
class Fig1bOnlineBench extends BenchBase {

  test("Fig 1(b): TPA answers online queries on every dataset") {
    val rows = Experiments.online
    banner("Fig 1(b): online time", Experiments.fig1bTable(rows))
    for (r <- rows) {
      val tpa = r.stats("TPA").get
      assert(tpa.ms > 0)
      // HubPPR full-vector queries, where they run at all, are orders of
      // magnitude slower than TPA (the paper's 10⁴× observation).
      r.stats("HubPPR").foreach(hub =>
        assert(hub.ms > 10 * tpa.ms, s"${r.dataset}: HubPPR ${hub.ms} vs TPA ${tpa.ms}"))
    }
  }
}
