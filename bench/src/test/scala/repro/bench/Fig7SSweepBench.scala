package repro.bench

import repro.core.{LocalCpi, Tpa}
import repro.experiments.{ExpConfig, Runner}
import repro.graph.Datasets
import repro.metrics.Metrics

/** Figure 7: effect of S (T fixed at 10) on LiveJournal and Pokec.
  * Paper: online time grows sharply with S while L1 error falls — S
  * trades accuracy for speed.
  */
class Fig7SSweepBench extends BenchBase {

  test("Fig 7: growing S lowers L1 error and raises online cost") {
    val tFixed = 10
    val specs = Seq(Datasets.livejournal, Datasets.pokec)
    val rows = collection.mutable.ArrayBuffer.empty[Seq[String]]
    for (spec <- specs) {
      val g = Datasets.local(spark, spec)
      val model = Tpa.Model(Runner.tpaModel(spark, spec).value.stranger, ExpConfig.c, tFixed)
      val seeds = Datasets.seedNodes(spec, ExpConfig.numSeeds)
      val sweep = (1 to 8).map { sVal =>
        val runs = seeds.map { s =>
          val t = Runner.time(Tpa.online(g, model, sVal, s, ExpConfig.eps))
          (t.ms, Metrics.l1(t.value, Runner.exact(g, spec, s)))
        }
        (sVal, runs.map(_._1).sum / runs.size, runs.map(_._2).sum / runs.size)
      }
      sweep.foreach { case (sVal, ms, l1) =>
        rows += Seq(spec.name, sVal.toString, Runner.fmtMs(ms), Runner.fmtSci(l1))
      }
      // L1 error decreases from S=1 to S=8; work grows with S
      assert(sweep.last._3 < sweep.head._3,
        s"${spec.name}: L1 did not fall (S=1 ${sweep.head._3} vs S=8 ${sweep.last._3})")
      // analytic bound falls monotonically
      assert(Tpa.accuracyBound(ExpConfig.c, 8) < Tpa.accuracyBound(ExpConfig.c, 1))
    }
    banner("Fig 7: effect of S (T=10)",
      Runner.table(Seq("dataset", "S", "online time", "L1 error"), rows.toSeq))
  }
}
