package repro.core

import org.apache.spark.sql.functions.{col, udf}
import repro.SparkSpec
import repro.graph.{GraphGen, LocalGraph}
import repro.metrics.Metrics

/** The distributed CPI engines (DataFrame and GraphX) agree with the
  * driver-side reference implementation iteration-for-iteration and at
  * convergence, and the distributed TPA phases match the local ones.
  */
class CpiSparkSpec extends SparkSpec {
  val c = 0.15

  private lazy val edges = GraphGen.rmatGraph(spark, 7, 600, 17).cache()
  private lazy val norm = GraphGen.normalize(edges).cache()
  private lazy val g: LocalGraph = LocalGraph.fromDF(edges, 128)
  private lazy val graphx = CpiGraphX.build(spark, edges).cache()

  for (tIter <- Seq(0, 1, 2, 4, 8)) {
    test(s"DataFrame CPI equals local CPI for iterations 0..$tIter") {
      val df = Cpi.run(spark, norm, Cpi.unitSeed(spark, 5), c, 0.0, 0, tIter)
      val local = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 5), c, 0.0, 0, tIter)
      assert(Metrics.l1(Cpi.toDense(df, g.n), local) < 1e-10)
    }
  }

  for ((s, t) <- Seq((2, 5), (4, 9))) {
    test(s"DataFrame CPI partial window [$s,$t] equals local") {
      val df = Cpi.run(spark, norm, Cpi.unitSeed(spark, 9), c, 0.0, s, t)
      val local = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 9), c, 0.0, s, t)
      assert(Metrics.l1(Cpi.toDense(df, g.n), local) < 1e-10)
    }
  }

  test("DataFrame CPI converges to exact RWR (ε=1e-4 window)") {
    val eps = 1e-4
    val df = Cpi.rwr(spark, norm, 3, c, eps)
    val local = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 3), c, eps, 0, Int.MaxValue)
    assert(Metrics.l1(Cpi.toDense(df, g.n), local) < 1e-9)
  }

  test("DataFrame PageRank equals local PageRank (ε=1e-4 window)") {
    val eps = 1e-4
    val df = Cpi.pagerank(spark, norm, g.n.toLong, c, eps)
    val local = LocalCpi.run(g, LocalCpi.uniformSeed(g.n), c, eps, 0, Int.MaxValue)
    assert(Metrics.l1(Cpi.toDense(df, g.n), local) < 1e-9)
  }

  test("DataFrame CPI with tIter < 0 returns an empty score vector") {
    val df = Cpi.run(spark, norm, Cpi.unitSeed(spark, 0), c, 0.0, 0, -1)
    assert(df.count() == 0)
  }

  for (tIter <- Seq(0, 2, 8)) {
    test(s"GraphX CPI equals local CPI for iterations 0..$tIter") {
      val rdd = CpiGraphX.run(spark, graphx, id => if (id == 5L) 1.0 else 0.0,
                              c, 0.0, 0, tIter)
      val local = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 5), c, 0.0, 0, tIter)
      assert(Metrics.l1(CpiGraphX.toDense(rdd, g.n), local) < 1e-10)
    }
  }

  test("GraphX CPI partial window [3,7] equals local") {
    val rdd = CpiGraphX.run(spark, graphx, id => if (id == 2L) 1.0 else 0.0,
                            c, 0.0, 3, 7)
    val local = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 2), c, 0.0, 3, 7)
    assert(Metrics.l1(CpiGraphX.toDense(rdd, g.n), local) < 1e-10)
  }

  test("GraphX CPI converges to exact RWR (ε=1e-4 window)") {
    val eps = 1e-4
    val rdd = CpiGraphX.rwr(spark, graphx, 7, c, eps)
    val local = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 7), c, eps, 0, Int.MaxValue)
    assert(Metrics.l1(CpiGraphX.toDense(rdd, g.n), local) < 1e-9)
  }

  test("GraphX PageRank equals local PageRank (ε=1e-4 window)") {
    val eps = 1e-4
    val rdd = CpiGraphX.pagerank(spark, graphx, g.n.toLong, c, eps)
    val local = LocalCpi.run(g, LocalCpi.uniformSeed(g.n), c, eps, 0, Int.MaxValue)
    assert(Metrics.l1(CpiGraphX.toDense(rdd, g.n), local) < 1e-9)
  }

  test("TpaSpark preprocess equals local stranger vector (ε=1e-4)") {
    val eps = 1e-4
    val t = 6
    val df = TpaSpark.preprocess(spark, norm, g.n.toLong, c, eps, t)
    val local = LocalCpi.run(g, LocalCpi.uniformSeed(g.n), c, eps, t, Int.MaxValue)
    assert(Metrics.l1(Cpi.toDense(df, g.n), local) < 1e-9)
  }

  test("TpaSpark online equals local TPA online (shared ε=1e-4 stranger)") {
    val eps = 1e-4
    val s = 3; val t = 6; val seed = 11
    val strangerDf = TpaSpark.preprocess(spark, norm, g.n.toLong, c, eps, t)
    val sparkTpa = Cpi.toDense(
      TpaSpark.online(spark, norm, strangerDf, c, s, t, seed.toLong, eps), g.n)
    val localModel = Tpa.Model(
      LocalCpi.run(g, LocalCpi.uniformSeed(g.n), c, eps, t, Int.MaxValue), c, t)
    val localTpa = Tpa.online(g, localModel, s, seed, eps)
    assert(Metrics.l1(sparkTpa, localTpa) < 1e-9)
  }

  test("TpaSpark onlineNA equals local TPA-NA") {
    val s = 3; val t = 6; val seed = 4
    val sparkNa = Cpi.toDense(
      TpaSpark.onlineNA(spark, norm, c, s, t, seed.toLong, 0.0), g.n)
    val localNa = Tpa.onlineNA(g, c, s, t, seed, 0.0)
    assert(Metrics.l1(sparkNa, localNa) < 1e-10)
  }

  /** Inputs that fail any job that reads their edges, so a call that is
    * not rejected up front fails with a SparkException at its first
    * superstep instead of an IllegalArgumentException.
    */
  private lazy val unreadableEdges = {
    val fail = udf((w: Double) => if (w >= 0) throw new IllegalStateException("edge table read") else w)
    norm.withColumn("w", fail(col("w")))
  }
  private lazy val unreadableGraph =
    graphx.mapEdges(e => if (e.attr >= 0) throw new IllegalStateException("edge read") else e.attr)

  /** Runs `body`, which must throw IllegalArgumentException, and checks
    * that it started no Spark job.
    */
  private def rejectedWithoutJobs(body: => Any): Unit = {
    val sc = spark.sparkContext
    val group = s"rejected-${java.util.UUID.randomUUID}"
    sc.setJobGroup(group, "input that must be rejected")
    try intercept[IllegalArgumentException](body)
    finally sc.clearJobGroup()
    assert(sc.statusTracker.getJobIdsForGroup(group).isEmpty)
  }

  test("DataFrame CPI rejects an unbounded run with eps <= 0 or NaN before any job") {
    val edges = unreadableEdges
    for (e <- Seq(0.0, -1.0, Double.NaN)) {
      rejectedWithoutJobs(Cpi.run(spark, edges, Cpi.unitSeed(spark, 0), c, e, 0, Int.MaxValue))
      rejectedWithoutJobs(Cpi.rwr(spark, edges, 0, c, e))
      rejectedWithoutJobs(Cpi.pagerank(spark, edges, g.n.toLong, c, e))
      rejectedWithoutJobs(TpaSpark.preprocess(spark, edges, g.n.toLong, c, e, 5))
    }
  }

  test("GraphX CPI rejects an unbounded run with eps <= 0 or NaN before any job") {
    val graph = unreadableGraph
    for (e <- Seq(0.0, -1.0, Double.NaN)) {
      rejectedWithoutJobs(CpiGraphX.run(spark, graph, _ => 1.0, c, e, 0, Int.MaxValue))
      rejectedWithoutJobs(CpiGraphX.rwr(spark, graph, 0L, c, e))
    }
  }

  test("TpaSpark.preprocess rejects T < 1") {
    val edges = unreadableEdges
    for (t <- Seq(0, -1)) rejectedWithoutJobs(TpaSpark.preprocess(spark, edges, g.n.toLong, c, 1e-4, t))
  }

  test("TpaSpark.preprocess rejects n < 1") {
    val edges = unreadableEdges
    for (n <- Seq(0L, -1L)) rejectedWithoutJobs(TpaSpark.preprocess(spark, edges, n, c, 1e-4, 5))
  }

  test("TpaSpark.online and onlineNA reject a negative seed") {
    val edges = unreadableEdges
    rejectedWithoutJobs(TpaSpark.online(spark, edges, spark.emptyDataFrame, c, 3, 6, -1L, 1e-4))
    rejectedWithoutJobs(TpaSpark.onlineNA(spark, edges, c, 3, 6, -1L, 1e-4))
  }

  test("TpaSpark.online and onlineNA reject S < 1") {
    val edges = unreadableEdges
    rejectedWithoutJobs(TpaSpark.online(spark, edges, spark.emptyDataFrame, c, 0, 6, 1L, 1e-4))
    rejectedWithoutJobs(TpaSpark.onlineNA(spark, edges, c, 0, 6, 1L, 1e-4))
  }

  test("TpaSpark.online and onlineNA reject S > T") {
    val edges = unreadableEdges
    rejectedWithoutJobs(TpaSpark.online(spark, edges, spark.emptyDataFrame, c, 6, 5, 1L, 1e-4))
    rejectedWithoutJobs(TpaSpark.onlineNA(spark, edges, c, 6, 5, 1L, 1e-4))
  }

  test("distributed TPA satisfies the Theorem 2 bound (ε=1e-4)") {
    val eps = 1e-4
    val s = 3; val t = 8; val seed = 21
    val strangerDf = TpaSpark.preprocess(spark, norm, g.n.toLong, c, eps, t)
    val sparkTpa = Cpi.toDense(
      TpaSpark.online(spark, norm, strangerDf, c, s, t, seed.toLong, eps), g.n)
    val exact = LocalCpi.rwr(g, seed, c, 1e-12)
    assert(Metrics.l1(exact, sparkTpa) <= Tpa.accuracyBound(c, s) + 1e-3)
  }
}
