package repro.jobs

import repro.experiments.{Experiments, SparkScale}
import repro.graph.Datasets

/** Table II — dataset statistics of the scaled analogs. */
object DatasetStatsJob extends JobBase {
  val title = "Table II: datasets"
  def run(): String = Experiments.tableIITable(Experiments.tableII())
}

/** Figure 1(a) — preprocessing time per method. */
object PreprocessJob extends JobBase {
  val title = "Fig 1(a): preprocessing time"
  def run(): String = Experiments.fig1aTable(Experiments.preprocess)
}

/** Figure 1(b) — online time per method. */
object OnlineJob extends JobBase {
  val title = "Fig 1(b): online time"
  def run(): String = Experiments.fig1bTable(Experiments.online)
}

/** Figures 1(c) and 4 — L1 error and Spearman rank accuracy. */
object AccuracyJob extends JobBase {
  val title = "Fig 1(c): L1 error / Fig 4: Spearman"
  def run(): String =
    Experiments.fig1cTable(Experiments.online) + "\n" + Experiments.fig4Table(Experiments.online)
}

/** Figure 3 — preprocessed-data memory per method. */
object MemoryJob extends JobBase {
  val title = "Fig 3: preprocessed-data memory"
  def run(): String = Experiments.fig3Table(Experiments.preprocess)
}

/** Figure 5 — stranger approximation effectiveness (TPA vs TPA-NA). */
object StrangerJob extends JobBase {
  val title = "Fig 5: stranger approximation"
  def run(): String = Experiments.fig5Table(Experiments.online)
}

/** Figure 6 — neighbor approximation on real-like vs random graphs. */
object NeighborJob extends JobBase {
  val title = "Fig 6: neighbor approximation"
  def run(): String = Experiments.fig6Table(Experiments.fig6Neighbor())
}

/** Figure 7 — effect of S on online time and L1 error. */
object SSweepJob extends JobBase {
  val title = "Fig 7: effect of S"
  def run(): String = Experiments.fig7Table(Experiments.fig7SSweep())
}

/** Figure 8 — effect of T on L1 error and Spearman (analogs and SBM). */
object TSweepJob extends JobBase {
  val title = "Fig 8: effect of T"
  def run(): String = Experiments.fig8Table(Experiments.fig8TSweep())
}

/** Distributed TPA (DataFrame + GraphX engines) on a large analog; the
  * one job that starts Spark.
  */
object SparkScaleJob extends JobBase {
  val title = "Distributed TPA (DataFrame / GraphX)"
  def run(): String = {
    val spark = SparkScale.session("SparkScaleJob")
    try SparkScale.report(Datasets.wikilink, SparkScale.run(spark, Datasets.wikilink))
    finally spark.stop()
  }
}
