package repro.experiments

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Experiments._
import repro.experiments.Runner.Eval
import repro.graph.Datasets

/** The markdown every exhibit's typed rows render to: headers, column
  * order and cell formats, as EXPERIMENTS.md quotes them. Each expected
  * data line is a line of the bench output, and a gated method's `None`
  * renders as OOT.
  */
class ExperimentsSpec extends AnyFunSuite {

  test("Table II table: realized n and m, the paper's graph, S, T and the fingerprint") {
    val g = Datasets.slashdot.graph
    val row = TableIIRow(Datasets.slashdot, 1024, 6086, 0, "n=1024 m=6086 edge_hash=64dd5a2d09be8a2f",
      Build(0.01234, g), Build(0.0456, g))
    assert(Experiments.tableIITable(Seq(row)) ==
      "| dataset | n | m | paper n | paper m | S | T | build (sorted) | build (shuffled) | fingerprint |\n" +
      "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |\n" +
      "| slashdot-s | 1024 | 6086 | 82144 | 549202 | 4 | 15 | 0.0123 ms | 0.0456 ms | n=1024 m=6086 edge_hash=64dd5a2d09be8a2f |\n")
  }

  /** Fig 1(a)'s and Fig 3's data line for google-s: NB-LIN ran, BEAR-APPROX is gated. */
  private val preprocessRow = PreprocessRow("google-s", 89904L, Map(
    "TPA" -> Some(Prep(12.41, 16384L)), "NB-LIN" -> Some(Prep(30622.0, 3356800L)),
    "BEAR-APPROX" -> None, "HubPPR" -> Some(Prep(340.6, 3083000L))))

  test("Fig 1(a) table: preprocessing time per method, OOT where gated") {
    assert(Experiments.fig1aTable(Seq(preprocessRow)) ==
      "| dataset | TPA | NB-LIN | BEAR-APPROX | HubPPR |\n" +
      "| --- | --- | --- | --- | --- |\n" +
      "| google-s | 12.4 ms | 30622.0 ms | OOT | 340.6 ms |\n")
  }

  test("Fig 1(b), 1(c) and 4 tables: one column per online method, OOT where gated") {
    val rows = Seq(OnlineRow("google-s", Map(
      "TPA" -> Some(Eval(0.2, 0.8436, 0.964)), "TPA-NA" -> Some(Eval(0.3, 0.8449, 0.5179)),
      "RPPR" -> Some(Eval(1.7, 0.06157, 0.988)), "BRPPR" -> Some(Eval(41.1, 9.99e-4, 1.0)),
      "NB-LIN" -> Some(Eval(0.4, 0.7245, 0.4592)), "BEAR-APPROX" -> None, "HubPPR" -> None)))
    val header = " | TPA | RPPR | BRPPR | NB-LIN | BEAR-APPROX | HubPPR (3 seeds) |\n" +
      "| --- | --- | --- | --- | --- | --- | --- |\n"
    assert(Experiments.fig1bTable(rows) == "| dataset (online time)" + header +
      "| google-s | 0.200 ms | 1.7 ms | 41.1 ms | 0.400 ms | OOT | OOT |\n")
    assert(Experiments.fig1cTable(rows) == "| dataset (L1 error)" + header +
      "| google-s | 8.436e-01 | 6.157e-02 | 9.990e-04 | 7.245e-01 | OOT | OOT |\n")
    assert(Experiments.fig4Table(rows) == "| dataset (Spearman)" + header +
      "| google-s | 0.9640 | 0.9880 | 1.0000 | 0.4592 | OOT | OOT |\n")
  }

  test("Fig 3 table: CSR input bytes, then each method's preprocessed bytes") {
    assert(Experiments.fig3Table(Seq(preprocessRow)) ==
      "| dataset | (graph) | TPA | NB-LIN | BEAR-APPROX | HubPPR |\n" +
      "| --- | --- | --- | --- | --- | --- |\n" +
      "| google-s | 87.8 KB | 16.0 KB | 3.20 MB | OOT | 2.94 MB |\n")
  }

  test("Fig 5 table: TPA and TPA-NA, L1 then Spearman") {
    val row = OnlineRow("slashdot-s", Map(
      "TPA" -> Some(Eval(0.7, 0.6264, 0.9788)), "TPA-NA" -> Some(Eval(0.5, 0.7014, 0.6611))))
    assert(Experiments.fig5Table(Seq(row)) ==
      "| dataset | TPA L1 | TPA-NA L1 | TPA Spearman | TPA-NA Spearman |\n" +
      "| --- | --- | --- | --- | --- |\n" +
      "| slashdot-s | 6.264e-01 | 7.014e-01 | 0.9788 | 0.6611 |\n")
  }

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
      "| pokec-s | 3 | 0.456 ms | 2.500e-04 |\n")
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
