package repro.graph

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestGraphs}

/** Generator invariants: determinism, id ranges, dedup, dangling patch,
  * normalization, the structural differences (skew, blocks) that the
  * Figure 6 experiment relies on, and the pinned fingerprints of the
  * dataset analogs.
  */
class GraphGenSpec extends SparkSpec {
  import GraphGenSpec._

  private lazy val rmatG = GraphGen.rmat(8, 1500, 7)
  private lazy val erG = GraphGen.erdosRenyi(256, 1500, 7)
  private lazy val sbmG = GraphGen.communities(256, 8, 1500, 0.9, 7)

  private def edges(g: LocalGraph): Seq[(Int, Int)] =
    for (u <- 0 until g.n; k <- g.offsets(u) until g.offsets(u + 1)) yield (u, g.targets(k))

  for ((name, g) <- Seq("rmat" -> (() => rmatG), "er" -> (() => erG), "sbm" -> (() => sbmG))) {
    test(s"$name: node ids lie in [0, n)") {
      assert(g().n == 256 && edges(g()).forall { case (_, v) => v >= 0 && v < 256 })
    }
    test(s"$name: no self-loops") {
      assert(edges(g()).forall { case (u, v) => u != v })
    }
    test(s"$name: edges are distinct") {
      assert(edges(g()).distinct.size == g().m)
    }
    test(s"$name: realized edge count is near the target") {
      val m = g().m
      assert(m <= 1500 && m > 1000, s"m=$m")
    }
    test(s"$name: every node has an out-edge") {
      assert((0 until 256).forall(g().outDeg(_) >= 1))
    }
  }

  test("rmat is deterministic in its seed") {
    for ((g, again) <- Seq(rmatG -> GraphGen.rmat(8, 1500, 7),
                           sbmG -> GraphGen.communities(256, 8, 1500, 0.9, 7)))
      assert(java.util.Arrays.equals(again.offsets, g.offsets) &&
             java.util.Arrays.equals(again.targets, g.targets))
  }

  test("communities rejects n < 1 and pIn outside [0, 1]") {
    for ((n, k, pIn) <- Seq((0, 1, 0.9), (-4, 2, 0.9), (8, 2, -0.1), (8, 2, 1.5), (8, 2, Double.NaN)))
      intercept[IllegalArgumentException](GraphGen.communities(n, k, 10, pIn, 1))
  }

  test("different seeds give different graphs") {
    assert(edges(rmatG).diff(edges(GraphGen.rmat(8, 1500, 8))).nonEmpty)
  }

  // n, m and java.util.Arrays.hashCode of offsets and targets. The two
  // `communities` entries pin the SBM's SplitMix64 draws; the TestGraphs
  // entries pin its `scala.util.Random` builders, edge for edge.
  for ((name, g, fp) <- Seq(
      ("communities(4096, 32, 40000, 0.95, 77)",
       () => GraphGen.communities(4096, 32, 40000, 0.95, 77), (4096, 38329, -283545713, 1827306690)),
      ("communities(240, 6, 1400, 0.85, 2)",
       () => GraphGen.communities(240, 6, 1400, 0.85, 2), (240, 1317, -1471203901, 1633158492)),
      ("TestGraphs.random(200, 1200, 1)",
       () => TestGraphs.random(200, 1200, 1), (200, 1201, -120664215, -1343258058)),
      ("TestGraphs.withDangling(100, 500, 3)",
       () => TestGraphs.withDangling(100, 500, 3), (100, 501, 1826927961, -886028584))))
    test(s"$name matches its recorded fingerprint") {
      val gr = g()
      assert((gr.n, gr.m, java.util.Arrays.hashCode(gr.offsets),
              java.util.Arrays.hashCode(gr.targets)) == fp)
    }

  for (spec <- Datasets.all) {
    test(s"${spec.name} analog matches its pinned fingerprint") {
      assert(spec.graph.fingerprint == analogFingerprints(spec.name))
    }
    test(s"${spec.name} random counterpart matches its pinned fingerprint") {
      assert(spec.randomCounterpart.fingerprint == counterpartFingerprints(spec.name))
    }
  }

  // RMAT, ER and the SBM merge their dangling-node patches into the sorted,
  // deduped keys, so every out-list is strictly ascending and reaches
  // fromEdges sorted.
  test("every analog's and random counterpart's out-lists are strictly ascending") {
    val graphs = Datasets.all.flatMap { spec =>
      Seq(s"${spec.name} analog" -> spec.graph, s"${spec.name} counterpart" -> spec.randomCounterpart)
    } ++ Seq("Fig 8 SBM" -> GraphGen.communities(4096, 32, 40000, 0.95, 77), "sbm" -> sbmG)
    for ((name, g) <- graphs) {
      val ascending = (0 until g.n).forall { u =>
        (g.offsets(u) + 1 until g.offsets(u + 1)).forall(k => g.targets(k - 1) < g.targets(k))
      }
      assert(ascending, name)
    }
  }

  test("the edge DataFrame of slashdot-s has the driver fingerprint on 1, 3 and 8 partitions") {
    val g = Datasets.slashdot.graph
    val df = GraphGen.edgeFrame(spark, g)
    for (k <- Seq(1, 3, 8)) {
      val rows = df.repartition(k).collect()
      val back = LocalGraph.fromEdges(g.n, rows.map(_.getLong(0).toInt), rows.map(_.getLong(1).toInt))
      assert(back.fingerprint == analogFingerprints("slashdot-s"), s"on $k partitions")
    }
  }

  test("edgeFrame partition p holds CSR edges [p·m/P, (p+1)·m/P) on 1, 3 and 8 partitions") {
    // the slices `parallelize` cuts from the edge list in CSR order
    for (g <- Seq(Datasets.slashdot.graph, TestGraphs.withDangling(100, 500, 3)); k <- Seq(1, 3, 8)) {
      val pairs = edges(g).map { case (u, v) => (u.toLong, v.toLong) }
      val want = spark.sparkContext.parallelize(pairs, k).glom().collect().map(_.toSeq).toSeq
      val got = GraphGen.edgeFrame(spark, g, k).rdd.map(r => (r.getLong(0), r.getLong(1)))
        .glom().collect().map(_.toSeq).toSeq
      assert(got == want, s"n=${g.n} on $k partitions")
    }
  }

  private lazy val rmatDF = GraphGen.edgeFrame(spark, rmatG).cache()

  test("normalize: per-source weights sum to 1") {
    val bad = GraphGen.normalize(rmatDF).groupBy("src").agg(sum("w").as("s"))
      .filter(abs(col("s") - 1.0) > 1e-9).count()
    assert(bad == 0)
  }

  test("normalize: weight is 1/outdeg on each edge") {
    val bad = GraphGen.normalize(rmatDF).collect()
      .count(r => math.abs(r.getDouble(2) * rmatG.outDeg(r.getLong(0).toInt) - 1.0) > 1e-9)
    assert(bad == 0)
  }

  private def maxInDeg(g: LocalGraph): Int = (0 until g.n).map(g.inDeg).max
  private def withinBlocks(g: LocalGraph): Double =
    edges(g).count { case (u, v) => u / 32 == v / 32 }.toDouble / g.m

  test("rmat has heavier degree skew than er (power-law proxy)") {
    assert(maxInDeg(rmatG) > 2 * maxInDeg(erG))
  }

  test("sbm keeps most edges within blocks") {
    assert(withinBlocks(sbmG) > 0.6, s"within=${withinBlocks(sbmG)}")
  }

  test("er spreads edges across blocks") {
    assert(withinBlocks(erG) < 0.3)
  }

  test("dataset registry analogs materialize with expected density") {
    val spec = Datasets.slashdot
    val g = spec.graph
    assert(g.m > spec.mTarget * 0.7 && g.m <= spec.mTarget + spec.n)
    assert(g.n == spec.n)
    assert((0 until g.n).forall(g.outDeg(_) >= 1)) // dangling-patched
  }

  test("random counterpart has approximately the same m as its analog") {
    val spec = Datasets.slashdot
    val m = spec.graph.m
    val mEr = spec.randomCounterpart.m
    assert(math.abs(mEr - m).toDouble / m < 0.1)
  }

  test("a spec builds its graph and its random counterpart once") {
    val spec = DatasetSpec("memo-s", 6, 300L, 2, 5, 0L, 0L, 9)
    assert(spec.graph eq spec.graph)
    assert(spec.randomCounterpart eq spec.randomCounterpart)
  }

  test("seedNodes is deterministic and in range") {
    val s1 = Datasets.seedNodes(Datasets.slashdot, 10)
    val s2 = Datasets.seedNodes(Datasets.slashdot, 10)
    assert(s1 == s2)
    assert(s1.forall(s => s >= 0 && s < Datasets.slashdot.n))
  }
}

object GraphGenSpec {

  /** Each analog's fingerprint, as `perfbench/src`'s `Inputs.rmat` draws it
    * with the analog's scale, mTarget and seed.
    */
  val analogFingerprints: Map[String, String] = Map(
    "slashdot-s"    -> "n=1024 m=6086 edge_hash=64dd5a2d09be8a2f",
    "google-s"      -> "n=2048 m=11238 edge_hash=7f67ec634527493a",
    "pokec-s"       -> "n=8192 m=130053 edge_hash=793c3390dab840f9",
    "livejournal-s" -> "n=8192 m=101562 edge_hash=6be4414439d7f7a6",
    "wikilink-s"    -> "n=16384 m=419961 edge_hash=cc42479bbe9addb5",
    "twitter-s"     -> "n=32768 m=971823 edge_hash=3728012eaf7fceb1",
    "friendster-s"  -> "n=32768 m=1033598 edge_hash=376d0357605d8fc5")

  /** Each analog's Erdős–Rényi counterpart's fingerprint (Fig 6). */
  val counterpartFingerprints: Map[String, String] = Map(
    "slashdot-s"    -> "n=1024 m=6181 edge_hash=3afb0a3a95c6714b",
    "google-s"      -> "n=2048 m=11443 edge_hash=b889b8e19df84897",
    "pokec-s"       -> "n=8192 m=132523 edge_hash=62b0fd292bc4010f",
    "livejournal-s" -> "n=8192 m=103495 edge_hash=4194d09719720c5b",
    "wikilink-s"    -> "n=16384 m=427992 edge_hash=9596b05f42214c2d",
    "twitter-s"     -> "n=32768 m=990783 edge_hash=6343f58fd769e1f5",
    "friendster-s"  -> "n=32768 m=1053729 edge_hash=6e54ca638fc3868e")
}
