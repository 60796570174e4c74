package repro.bench

import repro.experiments.Experiments
import repro.graph.{Datasets, GraphGenSpec}

/** Table II: dataset statistics of the scaled-down analogs next to the
  * paper's originals. Asserts each analog keeps its original's edge
  * density (the scaling invariant of DESIGN.md §4), has no dangling node
  * and realizes its pinned fingerprint.
  */
class TableIIDatasetsBench extends BenchBase {

  test("Table II: analog datasets materialize and keep paper densities") {
    banner("Table II: datasets (analog vs paper)", Experiments.tableII())
    for (spec <- Datasets.all) {
      val g = Datasets.local(spec)
      val density = g.m.toDouble / spec.n
      val paperDensity = spec.paperEdges.toDouble / spec.paperNodes
      assert(density > paperDensity * 0.6 && density < paperDensity * 1.4,
        s"${spec.name}: density $density vs paper $paperDensity")
      assert((0 until g.n).forall(g.outDeg(_) >= 1), s"${spec.name} has dangling nodes")
      assert(g.fingerprint == GraphGenSpec.analogFingerprints(spec.name), s"${spec.name}: ${g.fingerprint}")
    }
  }
}
