package repro.bench

import repro.experiments.Experiments
import repro.graph.GraphGenSpec

/** Table II: dataset statistics of the scaled-down analogs next to the
  * paper's originals. Asserts each analog keeps its original's edge
  * density (the scaling invariant of DESIGN.md §4), has no dangling node
  * and realizes its pinned fingerprint, and that `fromEdges` gives the
  * analog's own arrays from its sorted and its shuffled edge list.
  */
class TableIIDatasetsBench extends BenchBase {

  test("Table II: analog datasets materialize and keep paper densities") {
    val rows = Experiments.tableII()
    banner("Table II: datasets (analog vs paper)", Experiments.tableIITable(rows))
    for (r <- rows) {
      val name = r.spec.name
      val density = r.m.toDouble / r.spec.n
      val paperDensity = r.spec.paperEdges.toDouble / r.spec.paperNodes
      assert(density > paperDensity * 0.6 && density < paperDensity * 1.4,
        s"$name: density $density vs paper $paperDensity")
      assert(r.dangling == 0, s"$name has dangling nodes")
      assert(r.fingerprint == GraphGenSpec.analogFingerprints(name), s"$name: ${r.fingerprint}")
      for ((order, b) <- Seq("sorted" -> r.sorted, "shuffled" -> r.shuffled))
        assert(b.graph.offsets.sameElements(r.spec.graph.offsets) && b.graph.targets.sameElements(r.spec.graph.targets),
          s"$name: the $order build differs from the analog")
    }
  }
}
