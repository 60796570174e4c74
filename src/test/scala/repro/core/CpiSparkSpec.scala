package repro.core

import org.apache.spark.sql.functions.{col, udf}
import repro.{SparkSpec, TestGraphs}
import repro.graph.{GraphGen, LocalGraph}
import repro.metrics.Metrics

/** The conformance suite of the [[CpiEngine]] contract: both distributed
  * engines (DataFrame and GraphX) agree with the driver-side CPI
  * iteration-for-iteration, at convergence and on a graph with a dangling
  * node, and reject bad input before any job; the distributed TPA phases
  * match the local ones.
  */
class CpiSparkSpec extends SparkSpec {
  import CpiEngine.{Node, Uniform}
  val c = 0.15

  private lazy val g: LocalGraph = GraphGen.rmat(7, 600, 17)
  private lazy val edges = GraphGen.edgeFrame(spark, g).cache()
  private lazy val norm = GraphGen.normalize(edges).cache()
  private lazy val graphx = CpiGraphX.build(spark, edges).cache()

  private val engineNames = Seq("DataFrame", "GraphX")
  private lazy val engines = Map("DataFrame" -> Cpi.engine(spark, norm), "GraphX" -> CpiGraphX.engine(spark, graphx))

  /** An unpatched graph: node n-1 has in-edges but no out-edges, so mass
    * leaks there. Every node is an edge endpoint, since the GraphX engine
    * takes its vertices from the edges (DESIGN §2).
    */
  private lazy val dg = TestGraphs.withDangling(100, 500, 3)
  private lazy val danglingEngines = {
    val edges = GraphGen.edgeFrame(spark, dg).cache()
    Map("DataFrame" -> Cpi.engine(spark, GraphGen.normalize(edges).cache()),
        "GraphX" -> CpiGraphX.engine(spark, CpiGraphX.build(spark, edges).cache()))
  }

  for (engine <- engineNames) {
    def run(seed: CpiEngine.Seed, eps: Double, sIter: Int, tIter: Int): Array[Double] =
      Cpi.toDense(engines(engine).run(seed, c, eps, sIter, tIter), g.n)

    for (tIter <- Seq(0, 1, 2, 4, 8)) {
      test(s"$engine CPI equals local CPI for iterations 0..$tIter") {
        val local = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 5), c, 0.0, 0, tIter)
        assert(Metrics.l1(run(Node(5), 0.0, 0, tIter), local) < 1e-10)
      }
    }

    for ((s, t, seed) <- Seq((2, 5, 9), (4, 9, 9), (3, 7, 2))) {
      test(s"$engine CPI partial window [$s,$t] equals local") {
        val local = LocalCpi.run(g, LocalCpi.unitSeed(g.n, seed), c, 0.0, s, t)
        assert(Metrics.l1(run(Node(seed), 0.0, s, t), local) < 1e-10)
      }
    }

    test(s"$engine CPI converges to exact RWR (ε=1e-4 window)") {
      val eps = 1e-4
      val local = LocalCpi.run(g, LocalCpi.unitSeed(g.n, 3), c, eps, 0, Int.MaxValue)
      assert(Metrics.l1(run(Node(3), eps, 0, Int.MaxValue), local) < 1e-9)
    }

    test(s"$engine PageRank equals local PageRank (ε=1e-4 window)") {
      val eps = 1e-4
      val local = LocalCpi.run(g, LocalCpi.uniformSeed(g.n), c, eps, 0, Int.MaxValue)
      assert(Metrics.l1(run(Uniform(g.n.toLong), eps, 0, Int.MaxValue), local) < 1e-9)
    }

    test(s"$engine CPI with tIter < 0 returns an empty score vector") {
      assert(engines(engine).run(Node(0), c, 0.0, 0, -1).count() == 0)
    }

    test(s"$engine CPI leaks the mass local CPI leaks at a dangling node") {
      val eps = 1e-4
      assert((0 until dg.n).forall(v => dg.outDeg(v) > 0 || dg.targets.contains(v)))
      val feeder = (0 until dg.n).find(u => (dg.offsets(u) until dg.offsets(u + 1)).exists(dg.targets(_) == dg.n - 1)).get
      val window = LocalCpi.run(dg, LocalCpi.unitSeed(dg.n, feeder), c, 0.0, 0, 4)
      val pagerank = LocalCpi.run(dg, LocalCpi.uniformSeed(dg.n), c, eps, 0, Int.MaxValue)
      assert(window.sum < 1 - math.pow(1 - c, 5) - 1e-6) // the window does leak
      val e = danglingEngines(engine)
      assert(Metrics.l1(Cpi.toDense(e.run(Node(feeder), c, 0.0, 0, 4), dg.n), window) < 1e-10)
      assert(Metrics.l1(Cpi.toDense(e.run(Uniform(dg.n.toLong), c, eps, 0, Int.MaxValue), dg.n), pagerank) < 1e-9)
    }

    test(s"$engine TpaSpark onlineNA equals local TPA-NA") {
      val s = 3; val t = 6; val seed = 4
      val sparkNa = Cpi.toDense(TpaSpark.onlineNA(engines(engine), c, s, t, seed.toLong, 0.0), g.n)
      val localNa = Tpa.onlineNA(g, c, s, t, seed, 0.0)
      assert(Metrics.l1(sparkNa, localNa) < 1e-10)
    }

    test(s"$engine distributed TPA satisfies the Theorem 2 bound (ε=1e-4)") {
      val eps = 1e-4
      val s = 3; val t = 8; val seed = 21
      val e = engines(engine)
      val strangerDf = TpaSpark.preprocess(e, g.n.toLong, c, eps, t)
      val sparkTpa = Cpi.toDense(TpaSpark.online(e, strangerDf, c, s, t, seed.toLong, eps), g.n)
      val exact = LocalCpi.rwr(g, seed, c, 1e-12)
      assert(Metrics.l1(exact, sparkTpa) <= Tpa.accuracyBound(c, s) + 1e-3)
    }
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

  test("GraphX TpaSpark online equals local TPA online (shared ε=1e-4 stranger)") {
    val eps = 1e-4
    val s = 3; val t = 6; val seed = 11
    val gx = engines("GraphX")
    val strangerDf = TpaSpark.preprocess(gx, g.n.toLong, c, eps, t)
    val sparkTpa = Cpi.toDense(TpaSpark.online(gx, strangerDf, c, s, t, seed.toLong, eps), g.n)
    val localTpa = Tpa.online(g, Tpa.preprocess(g, c, eps, t), s, seed, eps)
    assert(Metrics.l1(sparkTpa, localTpa) < 1e-9)
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
  private lazy val unreadable = Map(
    "DataFrame" -> Cpi.engine(spark, unreadableEdges), "GraphX" -> CpiGraphX.engine(spark, unreadableGraph))

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

  for (engine <- engineNames) {
    test(s"$engine CPI rejects an unbounded run with eps <= 0 or NaN before any job") {
      val e = unreadable(engine)
      for (eps <- Seq(0.0, -1.0, Double.NaN)) {
        rejectedWithoutJobs(e.run(Node(0), c, eps, 0, Int.MaxValue))
        rejectedWithoutJobs(e.run(Uniform(g.n.toLong), c, eps, 0, Int.MaxValue))
        rejectedWithoutJobs(TpaSpark.preprocess(e, g.n.toLong, c, eps, 5))
      }
    }
  }

  test("TpaSpark.preprocess rejects T < 1") {
    for (e <- unreadable.values; t <- Seq(0, -1))
      rejectedWithoutJobs(TpaSpark.preprocess(e, g.n.toLong, c, 1e-4, t))
  }

  test("TpaSpark.preprocess rejects n < 1") {
    for (e <- unreadable.values; n <- Seq(0L, -1L))
      rejectedWithoutJobs(TpaSpark.preprocess(e, n, c, 1e-4, 5))
  }

  /** `TpaSpark.online` and `onlineNA` on both engines reject (S, T, seed). */
  private def onlineRejects(s: Int, t: Int, seed: Long): Unit =
    for (e <- unreadable.values) {
      rejectedWithoutJobs(TpaSpark.online(e, spark.emptyDataFrame, c, s, t, seed, 1e-4))
      rejectedWithoutJobs(TpaSpark.onlineNA(e, c, s, t, seed, 1e-4))
    }

  test("TpaSpark.online and onlineNA reject a negative seed") { onlineRejects(3, 6, -1L) }

  test("TpaSpark.online and onlineNA reject S < 1") { onlineRejects(0, 6, 1L) }

  test("TpaSpark.online and onlineNA reject S > T") { onlineRejects(6, 5, 1L) }
}
