package repro.perfbench

import java.nio.file.Paths
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import org.apache.spark.sql.functions.{col, lit}
import repro.core.{Cpi, CpiGraphX, Tpa, TpaSpark}
import repro.graph.{GraphGen, LocalGraph}
import repro.metrics.Metrics

/** Spark work counted by a listener. `joins` counts SQL executions whose
  * plan joins, which is one per CPI superstep in the DataFrame engine.
  */
final case class SparkCounts(jobs: Long, stages: Long, tasks: Long, shuffleRead: Long,
                             shuffleWrite: Long, taskMs: Long, joins: Long) {
  def -(o: SparkCounts): SparkCounts =
    SparkCounts(jobs - o.jobs, stages - o.stages, tasks - o.tasks, shuffleRead - o.shuffleRead,
      shuffleWrite - o.shuffleWrite, taskMs - o.taskMs, joins - o.joins)
  def +(o: SparkCounts): SparkCounts =
    SparkCounts(jobs + o.jobs, stages + o.stages, tasks + o.tasks, shuffleRead + o.shuffleRead,
      shuffleWrite + o.shuffleWrite, taskMs + o.taskMs, joins + o.joins)
}

object SparkCounts {
  val zero = SparkCounts(0, 0, 0, 0, 0, 0, 0)
}

final class SparkCounters(spark: SparkSession) extends SparkListener {
  private val jobs, stages, tasks, shuffleRead, shuffleWrite, taskMs, joins = new AtomicLong
  spark.sparkContext.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      taskMs.addAndGet(m.executorRunTime)
      shuffleRead.addAndGet(m.shuffleReadMetrics.totalBytesRead)
      shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }
  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart if s.physicalPlanDescription.contains("Join") =>
      joins.incrementAndGet()
    case _ =>
  }

  /** Counts after every event posted so far has been delivered. */
  def snapshot(): SparkCounts = {
    org.apache.spark.PerfbenchBus.drain(spark.sparkContext)
    SparkCounts(jobs.get, stages.get, tasks.get, shuffleRead.get, shuffleWrite.get, taskMs.get, joins.get)
  }
}

/** The Spark layers, measured inside the traced run of a driver workload
  * on the same graph: `TpaSpark.preprocess` at a truncated ε, then
  * `TpaSpark.online` queries collected with `Cpi.toDense`, each checked
  * against the driver's `Tpa.online` on the same graph and ε, and a few
  * GraphX family runs. Spark's timings are not end-to-end metrics: on a
  * shared 4-core machine their run-to-run spread exceeds every bound.
  */
object SparkBench {
  import DriverBench.{timedS, C}

  /** Truncates the stranger's CPI so that preprocessing runs 17
    * supersteps (c = 0.15, T = 10); the driver cross-check uses the same ε.
    */
  val Eps = 1e-2

  final case class Config(cores: Int, queries: Int = 3)

  /** Two executor threads leave the driver thread and the collector a core
    * of their own on a 4-core machine.
    */
  val dataFrame = Config(cores = math.min(2, Runtime.getRuntime.availableProcessors))

  /** A session with the spark-submit jobs' defaults (`JobBase`). Spark's
    * scratch space is `SPARK_LOCAL_DIRS`, which run.py sets per run.
    */
  def session(cores: Int): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", Paths.get(System.getProperty("java.io.tmpdir"), "warehouse").toString)
      .getOrCreate()

  def edgeFrame(spark: SparkSession, e: EdgeList): DataFrame = {
    import spark.implicits._
    val pairs = Array.tabulate(e.m)(i => (e.src(i).toLong, e.dst(i).toLong))
    spark.sparkContext.parallelize(pairs.toSeq, spark.sparkContext.defaultParallelism).toDF("src", "dst")
  }

  private def put(rep: Report, p: String, k: SparkCounts, per: Double): Unit = {
    rep.put(s"spark.$p.jobs", k.jobs / per, "count")
    rep.put(s"spark.$p.stages", k.stages / per, "count")
    rep.put(s"spark.$p.tasks", k.tasks / per, "count")
    rep.put(s"spark.$p.shuffle_read_bytes", k.shuffleRead / per, "bytes")
    rep.put(s"spark.$p.shuffle_write_bytes", k.shuffleWrite / per, "bytes")
    rep.put(s"spark.$p.task_time_ms", k.taskMs / per, "ms")
  }

  private val timedLayers = Seq("graph.GraphGen.normalize_ms", "core.TpaSpark.preprocess_ms",
    "core.TpaSpark.query_ms", "core.Cpi.supersteps", "core.Cpi.superstep_ms", "core.TpaSpark.family_ms",
    "core.TpaSpark.merge_ms", "core.Cpi.toDense_ms", "core.CpiGraphX.build_ms", "core.CpiGraphX.superstep_ms")

  /** The Spark layers report 0 on a workload whose traced run starts no Spark job. */
  def putIdleLayers(rep: Report): Unit = {
    timedLayers.foreach(k => rep.put(k, 0.0, if (k.endsWith("supersteps")) "count" else "ms"))
    Seq("preprocess", "query").foreach(p => put(rep, p, SparkCounts.zero, 1.0))
    rep.put("spark.executor_busy_fraction", 0.0, "fraction")
  }

  def run(w: Config, a: Analog, edges: EdgeList, g: LocalGraph, seeds: Iterator[Int], firstQuery: Int,
          tr: Tracer, rep: Report, corrupt: Boolean): Unit = {
    val n = edges.n
    val spark = tr("spark.session")(session(w.cores))
    try {
      val sc = spark.sparkContext
      println(s"spark: master=${sc.master} shuffle.partitions=${spark.conf.get("spark.sql.shuffle.partitions")} " +
        s"autoBroadcastJoinThreshold=${spark.conf.get("spark.sql.autoBroadcastJoinThreshold")} eps=$Eps")
      val counters = new SparkCounters(spark)

      // Set-up: edge DataFrame, normalized and persisted, as the jobs use it.
      val raw = tr("spark.edgeFrame")(edgeFrame(spark, edges))
      val norm = tr("graph.GraphGen.normalize") {
        val df = GraphGen.normalize(raw).persist()
        df.count()
        df
      }
      rep.attempt("edge DataFrame fingerprint") {
        val rows = norm.select("src", "dst", "w").collect()
        val hash = Inputs.edgeHash(n, rows.iterator.map(r => (r.getLong(0).toInt, r.getLong(1).toInt)))
        val deg = new Array[Int](n)
        edges.src.foreach(u => deg(u) += 1)
        val badW = rows.count(r => math.abs(r.getDouble(2) - 1.0 / deg(r.getLong(0).toInt)) > 1e-15)
        if (rows.length == edges.m && hash == edges.hash && badW == 0) None
        else Some(f"DataFrame has ${rows.length} edges, hash $hash%016x, $badW wrong weights")
      }

      // Preprocessing, persisted as the jobs keep it; the first of the
      // session, so it includes compiling the superstep plans.
      val c0 = counters.snapshot()
      val (served, prepS) = timedS(tr("core.TpaSpark.preprocess") {
        val df = TpaSpark.preprocess(spark, norm, n.toLong, C, Eps, a.t).persist()
        df.count()
        df
      })
      val prepCounts = counters.snapshot() - c0
      val stranger = if (corrupt) served.select(col("node"), lit(0.0).as("score")) else served
      val driverModel = Tpa.preprocess(g, C, Eps, a.t)
      val acc = new Accuracy(a, Eps, tr, rep)

      // Queries; the first one is a warm-up. Each is checked against the
      // driver's answer and, through exact RWR, against Theorem 2.
      var queryCounts = SparkCounts.zero
      var queryWallMs = 0.0
      val family, merged = scala.collection.mutable.ArrayBuffer.empty[Double]
      for (i <- 0 to w.queries) {
        val s = seeds.next()
        val q = firstQuery + i
        rep.attempt(s"spark query seed=$s") {
          val famMs = timedS(tr("core.TpaSpark.family", q) {
            Cpi.toDense(Cpi.run(spark, norm, Cpi.unitSeed(spark, s.toLong), C, Eps, 0, a.s - 1), n)
          })._2 * 1e3
          val k0 = counters.snapshot()
          val (r, sec) = timedS(tr("query", q) {
            val df = tr("core.TpaSpark.online", q)(TpaSpark.online(spark, norm, stranger, C, a.s, a.t, s.toLong, Eps))
            tr("core.Cpi.toDense", q)(Cpi.toDense(df, n))
          })
          if (i > 0) {
            queryCounts = queryCounts + (counters.snapshot() - k0)
            queryWallMs += sec * 1e3
            family += famMs
            merged += sec * 1e3 - famMs
          }
          val vsDriver = Metrics.l1(r, Tpa.online(g, driverModel, a.s, s, Eps))
          acc.verify(g, s, q)(r)
          if (vsDriver <= 1e-9) None else Some(s"L1 vs driver Tpa.online $vsDriver > 1e-9")
        }
      }

      def p50(name: String): Double = Stats.median(tr.named(name).map(_.ms))
      rep.put("graph.GraphGen.normalize_ms", p50("graph.GraphGen.normalize"), "ms")
      rep.put("core.TpaSpark.preprocess_ms", prepS * 1e3, "ms")
      rep.put("core.TpaSpark.query_ms", Stats.median(family.indices.map(i => family(i) + merged(i))), "ms")
      rep.put("core.Cpi.supersteps", prepCounts.joins.toDouble, "count")
      rep.put("core.Cpi.superstep_ms", prepS * 1e3 / prepCounts.joins.max(1L), "ms")
      rep.put("core.TpaSpark.family_ms", Stats.median(family.toSeq), "ms")
      rep.put("core.TpaSpark.merge_ms", Stats.median(merged.toSeq), "ms")
      rep.put("core.Cpi.toDense_ms", Stats.median(tr.named("core.Cpi.toDense").drop(1).map(_.ms)), "ms")
      put(rep, "preprocess", prepCounts, 1.0)
      put(rep, "query", queryCounts, w.queries.toDouble)
      rep.put("spark.executor_busy_fraction",
        (prepCounts.taskMs + queryCounts.taskMs) / ((prepS * 1e3 + queryWallMs) * w.cores), "fraction")

      // GraphX, for the engine comparison only: build once, then one family run.
      val graph = tr("core.CpiGraphX.build") {
        val gx = CpiGraphX.build(spark, raw).cache()
        gx.vertices.count(); gx.edges.count()
        gx
      }
      val s = seeds.next()
      val (fam, gxS) = timedS(tr("core.CpiGraphX.family", firstQuery + w.queries + 1) {
        CpiGraphX.toDense(CpiGraphX.run(spark, graph, id => if (id == s) 1.0 else 0.0, C, Eps, 0, a.s - 1), n)
      })
      rep.attempt(s"GraphX family seed=$s") {
        val l1 = Metrics.l1(fam, Tpa.family(g, C, a.s, s, Eps))
        if (l1 <= 1e-9) None else Some(s"L1 vs driver Tpa.family $l1 > 1e-9")
      }
      rep.put("core.CpiGraphX.build_ms", p50("core.CpiGraphX.build"), "ms")
      rep.put("core.CpiGraphX.superstep_ms", gxS * 1e3 / (a.s - 1), "ms")
    } finally spark.stop()
  }
}
