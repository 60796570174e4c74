package repro.experiments

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Experiments.{Fig6Row, Fig7Row, Fig8Row}
import repro.graph.Datasets

/** The markdown the typed rows of Figs 6–8 and the Spark scale run
  * render to: headers, column order and cell formats, as EXPERIMENTS.md
  * quotes them.
  */
class ExperimentsSpec extends AnyFunSuite {

  test("Fig 6 table: TPA-NA L1 and Spearman, real-like then random") {
    assert(Experiments.fig6Table(Seq(Fig6Row("slashdot-s", 1.234e-3, 5.6789e-2, 0.91234, 0.5))) ==
      "| dataset | TPA-NA L1 (real-like) | TPA-NA L1 (random) | Spearman (real-like) | Spearman (random) |\n" +
      "| --- | --- | --- | --- | --- |\n" +
      "| slashdot-s | 1.234e-03 | 5.679e-02 | 0.9123 | 0.5000 |\n")
  }

  test("Fig 7 table: S, online time in ms, L1 error") {
    assert(Experiments.fig7Table(Seq(Fig7Row("pokec-s", 3, 0.456, 2.5e-4))) ==
      "| dataset | S | online time | L1 error |\n" +
      "| --- | --- | --- | --- |\n" +
      "| pokec-s | 3 | 0.5 ms | 2.500e-04 |\n")
  }

  test("Fig 8 table: T, L1 error, Spearman") {
    assert(Experiments.fig8Table(Seq(Fig8Row("sbm-community", 10, 1.5e-2, 0.87654))) ==
      "| dataset | T | L1 error | Spearman |\n" +
      "| --- | --- | --- | --- |\n" +
      "| sbm-community | 10 | 1.500e-02 | 0.8765 |\n")
  }

  test("Spark scale report: dataset line, then one row per engine") {
    val row = SparkScale.Row("GraphX", 410812.34, 850.21, 1.0e-3, 0.99)
    assert(SparkScale.report(Datasets.wikilink, Seq(row)) ==
      "dataset: wikilink-s (n=16384)\n\n" +
      "| engine | prep time | online time | L1 vs exact | Spearman |\n" +
      "| --- | --- | --- | --- | --- |\n" +
      "| GraphX | 410812.3 ms | 850.2 ms | 1.000e-03 | 0.9900 |\n")
  }
}
