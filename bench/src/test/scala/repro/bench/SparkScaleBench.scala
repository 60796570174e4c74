package repro.bench

import repro.SparkSpec
import repro.core.Tpa
import repro.experiments.{ExpConfig, SparkScale}
import repro.graph.Datasets

/** Distributed-dataflow scalability: both Spark engines (DataFrame
  * join–aggregate and GraphX message passing) run TPA's two phases on a
  * large analog where every dense competitor is feasibility-gated out —
  * the reproduction of "only TPA successfully preprocesses billion-scale
  * graphs" at our scale.
  */
class SparkScaleBench extends BenchBase with SparkSpec {

  test("distributed TPA (DataFrame + GraphX) completes on a large analog") {
    val spec = Datasets.wikilink
    val rows = SparkScale.run(spark, spec)
    banner("Distributed TPA on wikilink-s", SparkScale.report(spec, rows))
    // Theorem 2: each engine's online vector is within 2(1-c)^S of exact.
    val bound = Tpa.accuracyBound(ExpConfig.c, spec.s)
    assert(rows.map(_.engine) == Seq("DataFrame", "GraphX") &&
           rows.forall(_.l1 <= bound + 1e-6),
      s"L1 values ${rows.map(_.l1)} exceed bound $bound")
  }
}
