package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.{Cpi, CpiGraphX, TpaSpark}
import repro.graph.{Datasets, DatasetSpec, GraphGen}

import scala.collection.mutable

/** Distributed-dataflow reproduction of the scalability claim: TPA's
  * two phases run as Spark jobs — the stranger phase (PageRank-like CPI
  * tail) and the family phase as either DataFrame join–aggregate
  * supersteps or GraphX message passing. Accuracy is checked against
  * the driver-side exact RWR; times show both engines complete the
  * phases on the largest analogs, where the dense competitors are
  * gated out entirely.
  */
object SparkScale {
  import Runner._

  /** The session of the tests and `SparkScaleJob`: master `SPARK_MASTER`
    * or `local[*]`, and one SQL shuffle partition per unit of default
    * parallelism, the partition count [[GraphGen.edgeFrame]] gives every
    * edge table. Join planning keeps Spark's defaults.
    */
  def session(appName: String): SparkSession = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .getOrCreate()
    spark.conf.set("spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism.toLong)
    spark
  }

  /** One engine's preprocess and online wall time, and its online
    * vector's accuracy against the driver-side exact RWR.
    */
  final case class Row(engine: String, prepMs: Double, onlineMs: Double,
                       l1: Double, spearman: Double)

  /** Both engines on `spec` through [[TpaSpark]], DataFrame first, over
    * the edges of the driver graph `spec.graph`. Every DataFrame and
    * graph it caches is released before it returns, also on failure.
    */
  def run(spark: SparkSession, spec: DatasetSpec): Seq[Row] = {
    val c = ExpConfig.c; val eps = ExpConfig.eps
    val release = mutable.ArrayBuffer.empty[() => Unit]
    try {
      val g = spec.graph
      val edges = GraphGen.edgeFrame(spark, g).persist()
      release += (() => edges.unpersist())
      val norm = GraphGen.normalize(edges).persist()
      release += (() => norm.unpersist())
      norm.count()
      val seed = Datasets.seedNodes(spec, 1).head

      val graph = CpiGraphX.build(spark, edges).cache()
      release += (() => graph.unpersist())
      graph.vertices.count(); graph.edges.count()

      Seq("DataFrame" -> Cpi.engine(spark, norm), "GraphX" -> CpiGraphX.engine(spark, graph)).map { case (name, engine) =>
        val prep = time {
          val df = TpaSpark.preprocess(engine, spec.n.toLong, c, eps, spec.t).persist()
          release += (() => df.unpersist())
          df.count(); df
        }
        val online = evaluate(g, Seq(seed)) { s =>
          Cpi.toDense(TpaSpark.online(engine, prep.value, c, spec.s, spec.t, s.toLong, eps), spec.n)
        }
        Row(name, prep.ms, online.ms, online.l1, online.spearman)
      }
    } finally release.foreach(_())
  }

  /** The rows as a markdown table under a line naming the dataset. */
  def report(spec: DatasetSpec, rows: Seq[Row]): String =
    s"dataset: ${spec.name} (n=${spec.n})\n\n" +
      table(Seq("engine", "prep time", "online time", "L1 vs exact", "Spearman"),
        rows.map(r => Seq(r.engine, fmtMs(r.prepMs), fmtMs(r.onlineMs),
                          fmtSci(r.l1), f"${r.spearman}%.4f")))
}
