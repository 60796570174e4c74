package repro.graph

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestGraphs}

/** Generator invariants: determinism, id ranges, dedup, dangling patch,
  * normalization, and the structural differences (skew, blocks) that the
  * Figure 6 experiment relies on.
  */
class GraphGenSpec extends SparkSpec {

  private lazy val rmatE = GraphGen.rmat(spark, 8, 1500, 7).cache()
  private lazy val erE = GraphGen.erdosRenyi(spark, 256, 1500, 7).cache()
  private lazy val sbmE = GraphGen.sbm(spark, 256, 8, 1500, 0.9, 7).cache()

  for ((name, df) <- Seq("rmat" -> (() => rmatE), "er" -> (() => erE),
                         "sbm" -> (() => sbmE))) {
    test(s"$name: node ids lie in [0, n)") {
      val mm = df().agg(min("src"), max("src"), min("dst"), max("dst")).first()
      assert(mm.getLong(0) >= 0 && mm.getLong(1) < 256)
      assert(mm.getLong(2) >= 0 && mm.getLong(3) < 256)
    }
    test(s"$name: no self-loops") {
      assert(df().filter(col("src") === col("dst")).count() == 0)
    }
    test(s"$name: edges are distinct") {
      assert(df().count() == df().distinct().count())
    }
    test(s"$name: realized edge count is near the target") {
      val m = df().count()
      assert(m <= 1500 && m > 1000, s"m=$m")
    }
  }

  test("rmat is deterministic in its seed") {
    val again = GraphGen.rmat(spark, 8, 1500, 7)
    assert(rmatE.exceptAll(again).count() == 0 &&
           again.exceptAll(rmatE).count() == 0)
  }

  test("different seeds give different graphs") {
    val other = GraphGen.rmat(spark, 8, 1500, 8)
    assert(rmatE.exceptAll(other).count() > 0)
  }

  // n, m and java.util.Arrays.hashCode of offsets and targets, recorded
  // from the test-only builders these driver-side generators replaced:
  // the same draw order gives the same graph, edge for edge.
  for ((name, g, fp) <- Seq(
      ("communities(4096, 32, 40000, 0.95, 77)",
       () => GraphGen.communities(4096, 32, 40000, 0.95, 77), (4096, 40000, -1648983318, -1798612947)),
      ("communities(240, 6, 1400, 0.85, 2)",
       () => GraphGen.communities(240, 6, 1400, 0.85, 2), (240, 1400, -812112300, 1173052443)),
      ("TestGraphs.random(200, 1200, 1)",
       () => TestGraphs.random(200, 1200, 1), (200, 1201, -120664215, -1343258058)),
      ("TestGraphs.withDangling(100, 500, 3)",
       () => TestGraphs.withDangling(100, 500, 3), (100, 501, 1826927961, -886028584))))
    test(s"$name matches its recorded fingerprint") {
      val gr = g()
      assert((gr.n, gr.m, java.util.Arrays.hashCode(gr.offsets),
              java.util.Arrays.hashCode(gr.targets)) == fp)
    }

  test("fixDangling leaves no node without out-edges") {
    val fixed = GraphGen.fixDangling(spark, rmatE, 256)
    val withOut = fixed.select("src").distinct().count()
    assert(withOut == 256)
  }

  test("fixDangling is a no-op when nothing dangles") {
    val fixed = GraphGen.fixDangling(spark, rmatE, 256)
    val fixedTwice = GraphGen.fixDangling(spark, fixed, 256)
    assert(fixedTwice.count() == fixed.count())
  }

  test("normalize: per-source weights sum to 1") {
    val norm = GraphGen.normalize(GraphGen.fixDangling(spark, rmatE, 256))
    val bad = norm.groupBy("src").agg(sum("w").as("s"))
      .filter(abs(col("s") - 1.0) > 1e-9).count()
    assert(bad == 0)
  }

  test("normalize: weight is 1/outdeg on each edge") {
    val fixed = GraphGen.fixDangling(spark, rmatE, 256)
    val norm = GraphGen.normalize(fixed)
    val deg = fixed.groupBy("src").count()
    val bad = norm.join(deg, "src")
      .filter(abs(col("w") * col("count") - 1.0) > 1e-9).count()
    assert(bad == 0)
  }

  test("rmat has heavier degree skew than er (power-law proxy)") {
    def maxInDeg(df: org.apache.spark.sql.DataFrame): Long =
      df.groupBy("dst").count().agg(max("count")).first().getLong(0)
    assert(maxInDeg(rmatE) > 2 * maxInDeg(erE))
  }

  test("sbm keeps most edges within blocks") {
    val bs = 256 / 8
    val within = sbmE.filter((col("src") / bs).cast("long") ===
                             (col("dst") / bs).cast("long")).count()
    val total = sbmE.count()
    assert(within.toDouble / total > 0.6, s"within=$within total=$total")
  }

  test("er spreads edges across blocks") {
    val bs = 256 / 8
    val within = erE.filter((col("src") / bs).cast("long") ===
                            (col("dst") / bs).cast("long")).count()
    val total = erE.count()
    assert(within.toDouble / total < 0.3)
  }

  test("LocalGraph.fromDF preserves edge count and degrees") {
    val fixed = GraphGen.fixDangling(spark, rmatE, 256)
    val g = LocalGraph.fromDF(fixed, 256)
    assert(g.m == fixed.count())
    val sparkDeg = fixed.groupBy("src").count().collect()
      .map(r => r.getLong(0).toInt -> r.getLong(1).toInt).toMap
    for (u <- 0 until 256)
      assert(g.outDeg(u) == sparkDeg.getOrElse(u, 0))
  }

  test("dataset registry analogs materialize with expected density") {
    val spec = Datasets.slashdot
    val m = Datasets.edges(spark, spec).count()
    assert(m > spec.mTarget * 0.7 && m <= spec.mTarget + spec.n)
    val g = Datasets.local(spark, spec)
    assert(g.n == spec.n && g.m == m)
    assert((0 until g.n).forall(g.outDeg(_) >= 1)) // dangling-patched
  }

  test("random counterpart has approximately the same m as its analog") {
    val spec = Datasets.slashdot
    val m = Datasets.edges(spark, spec).count()
    val mEr = Datasets.randomCounterpart(spark, spec).count()
    assert(math.abs(mEr - m).toDouble / m < 0.1)
  }

  test("seedNodes is deterministic and in range") {
    val s1 = Datasets.seedNodes(Datasets.slashdot, 10)
    val s2 = Datasets.seedNodes(Datasets.slashdot, 10)
    assert(s1 == s2)
    assert(s1.forall(s => s >= 0 && s < Datasets.slashdot.n))
  }
}
