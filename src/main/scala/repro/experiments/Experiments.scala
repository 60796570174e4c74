package repro.experiments

import repro.baselines.{HubPpr, NbLin, BearApprox, Rppr}
import repro.core.Tpa
import repro.graph.{Datasets, DatasetSpec, GraphGen, LocalGraph}

/** One function per reproduced paper exhibit (Table II and Figures 1,
  * 3–8 rendered as tables of numbers). Each returns typed rows, which the
  * bench suites assert on and the matching `…Table` renders for jobs and
  * bench banners alike. Every online method is scored by
  * [[Runner.evaluate]]. See DESIGN.md §6 and EXPERIMENTS.md for
  * paper-vs-measured.
  */
object Experiments {
  import Runner._

  private def orOot[A](a: Option[A])(fmt: A => String): String = a.map(fmt).getOrElse("OOT")

  // ---- Table II ----

  /** `fromEdges`'s median time over [[BuildRuns]] builds of one edge list,
    * and the graph the last one built.
    */
  final case class Build(p50Ms: Double, graph: LocalGraph)

  /** A realized analog next to its paper graph; `dangling` counts nodes
    * without an out-edge. `sorted` builds the analog's edges in CSR order,
    * the order `GraphGen` hands them over in; `shuffled` builds the same
    * edges in a random order of sources, each source's edges still in CSR
    * order, so both builds give the analog's own arrays.
    */
  final case class TableIIRow(spec: DatasetSpec, n: Int, m: Int, dangling: Int, fingerprint: String,
                              sorted: Build, shuffled: Build)

  /** Timed builds per edge list, after as many untimed ones. */
  private val BuildRuns = 21

  private def build(n: Int, src: Array[Int], dst: Array[Int]): Build = {
    for (_ <- 0 until BuildRuns) LocalGraph.fromEdges(n, src, dst)
    val runs = Seq.fill(BuildRuns)(time(LocalGraph.fromEdges(n, src, dst)))
    Build(runs.map(_.ms).sorted.apply(BuildRuns / 2), runs.last.value)
  }

  /** Table II: realized analog statistics next to the paper's graphs. */
  def tableII(): Seq[TableIIRow] =
    Datasets.all.map { spec =>
      val g = spec.graph
      val src = new Array[Int](g.m)
      for (u <- 0 until g.n) java.util.Arrays.fill(src, g.offsets(u), g.offsets(u + 1), u)
      // Shuffle the sources by a fixed seed, then deal each source's
      // targets out in CSR order.
      val rng = new java.util.SplittableRandom(spec.seed)
      val shuffledSrc = src.clone()
      for (i <- shuffledSrc.indices.reverse) {
        val j = rng.nextInt(i + 1)
        val u = shuffledSrc(i); shuffledSrc(i) = shuffledSrc(j); shuffledSrc(j) = u
      }
      val next = g.offsets.clone()
      val shuffledDst = shuffledSrc.map { u => next(u) += 1; g.targets(next(u) - 1) }
      TableIIRow(spec, g.n, g.m, (0 until g.n).count(g.outDeg(_) == 0), g.fingerprint,
        build(g.n, src, g.targets), build(g.n, shuffledSrc, shuffledDst))
    }

  def tableIITable(rows: Seq[TableIIRow]): String =
    table(Seq("dataset", "n", "m", "paper n", "paper m", "S", "T", "build (sorted)", "build (shuffled)", "fingerprint"),
      rows.map(r => Seq(r.spec.name, r.n.toString, r.m.toString,
                        r.spec.paperNodes.toString, r.spec.paperEdges.toString,
                        r.spec.s.toString, r.spec.t.toString,
                        fmtMs(r.sorted.p50Ms), fmtMs(r.shuffled.p50Ms), r.fingerprint)))

  // ---- Figures 1(a) and 3: preprocessing time and memory ----

  /** One method's preprocessing time and preprocessed bytes. */
  final case class Prep(ms: Double, bytes: Long)

  /** Every preprocessing method's [[Prep]] on one dataset, by method name,
    * next to the bytes of the CSR input; None where the method's gate
    * rules it out (OOT).
    */
  final case class PreprocessRow(dataset: String, graphBytes: Long, stats: Map[String, Option[Prep]])

  /** The preprocessing rows of every analog, computed once: Figs 1(a) and
    * 3 both read them.
    */
  lazy val preprocess: Seq[PreprocessRow] = Datasets.all.map { spec =>
    val m = models(spec)
    PreprocessRow(spec.name,
      8L * spec.graph.m, // shared input (CSR edges), charged to all
      Map("TPA" -> Some(Prep(m.tpa.ms, m.tpa.value.memoryBytes)),
          "NB-LIN" -> m.nbLin.map(t => Prep(t.ms, t.value.memoryBytes)),
          "BEAR-APPROX" -> m.bear.map(t => Prep(t.ms, t.value.memoryBytes)),
          "HubPPR" -> Some(Prep(m.hubPpr.ms, m.hubPpr.value.memoryBytes))))
  }

  private val preprocessMethods = Seq("TPA", "NB-LIN", "BEAR-APPROX", "HubPPR")

  private def cells(r: PreprocessRow)(col: Prep => String): Seq[String] =
    preprocessMethods.map(m => orOot(r.stats(m))(col))

  /** Figure 1(a): preprocessing time. */
  def fig1aTable(rows: Seq[PreprocessRow]): String =
    table("dataset" +: preprocessMethods, rows.map(r => r.dataset +: cells(r)(p => fmtMs(p.ms))))

  /** Figure 3: preprocessed-data memory, after the CSR input's. */
  def fig3Table(rows: Seq[PreprocessRow]): String =
    table(Seq("dataset", "(graph)") ++ preprocessMethods,
      rows.map(r => Seq(r.dataset, fmtBytes(r.graphBytes)) ++ cells(r)(p => fmtBytes(p.bytes))))

  // ---- Figure 1(b)/(c), Figures 4 and 5: online time / L1 / Spearman ----

  /** Every online method's [[Runner.Eval]] on one dataset, by method name;
    * None where the method's gate rules it out (OOT).
    */
  final case class OnlineRow(dataset: String, stats: Map[String, Option[Eval]])

  /** The online rows of every analog, computed once: Figs 1(b), 1(c), 4
    * and 5 all read them.
    */
  lazy val online: Seq[OnlineRow] = Datasets.all.map(onlineRow)

  private def onlineRow(spec: DatasetSpec): OnlineRow = {
    val g = spec.graph
    val seeds = Datasets.seedNodes(spec, ExpConfig.numSeeds)
    def on(run: Int => Array[Double]): Option[Eval] = Some(evaluate(g, seeds)(run))
    val m = models(spec)
    OnlineRow(spec.name, Map(
      "TPA" -> on(Tpa.online(g, m.tpa.value, spec.s, _, ExpConfig.eps)),
      "TPA-NA" -> on(Tpa.onlineNA(g, ExpConfig.c, spec.s, spec.t, _, ExpConfig.eps)),
      "RPPR" -> on(Rppr.rppr(g, _, ExpConfig.c, ExpConfig.rpprTheta)),
      "BRPPR" -> on(Rppr.brppr(g, _, ExpConfig.c, ExpConfig.brpprKappa)),
      "NB-LIN" -> m.nbLin.flatMap(nb => on(NbLin.query(nb.value, _))),
      "BEAR-APPROX" -> m.bear.flatMap(bear => on(BearApprox.query(bear.value, _))),
      "HubPPR" -> Option.when(spec.n <= ExpConfig.hubPprOnlineMaxN) {
        val hub = m.hubPpr.value
        val rng = new scala.util.Random(7)
        evaluate(g, seeds.take(ExpConfig.hubPprSeeds)) { s =>
          HubPpr.fullVector(hub, g, s, ExpConfig.hubPprWalks, rng)
        }
      }))
  }

  /** HubPPR averages [[ExpConfig.hubPprSeeds]] seeds, not [[ExpConfig.numSeeds]], and its header says so. */
  private def onlineTable(rows: Seq[OnlineRow], metric: String)(col: Eval => String): String = {
    val methods = Seq("TPA", "RPPR", "BRPPR", "NB-LIN", "BEAR-APPROX", "HubPPR")
    val headers = methods.map(m => if (m == "HubPPR") s"$m (${ExpConfig.hubPprSeeds} seeds)" else m)
    table(s"dataset ($metric)" +: headers,
      rows.map(r => r.dataset +: methods.map(m => orOot(r.stats(m))(col))))
  }

  def fig1bTable(rows: Seq[OnlineRow]): String = onlineTable(rows, "online time")(e => fmtMs(e.ms))

  def fig1cTable(rows: Seq[OnlineRow]): String = onlineTable(rows, "L1 error")(e => fmtSci(e.l1))

  def fig4Table(rows: Seq[OnlineRow]): String = onlineTable(rows, "Spearman")(e => f"${e.spearman}%.4f")

  /** Figure 5: stranger approximation effectiveness (TPA vs TPA-NA). */
  def fig5Table(rows: Seq[OnlineRow]): String =
    table(Seq("dataset", "TPA L1", "TPA-NA L1", "TPA Spearman", "TPA-NA Spearman"),
      rows.map { r =>
        val (tpa, na) = (r.stats("TPA").get, r.stats("TPA-NA").get)
        Seq(r.dataset, fmtSci(tpa.l1), fmtSci(na.l1), f"${tpa.spearman}%.4f", f"${na.spearman}%.4f")
      })

  // ---- Figure 6: neighbor approximation, real-like vs random graphs ----

  /** TPA-NA's mean L1 error and Spearman on an analog and on its
    * Erdős–Rényi counterpart with the same n and m.
    */
  final case class Fig6Row(dataset: String, l1Real: Double, l1Random: Double,
                           spearmanReal: Double, spearmanRandom: Double)

  def fig6Neighbor(): Seq[Fig6Row] =
    Datasets.all.map { spec =>
      val seeds = Datasets.seedNodes(spec, ExpConfig.numSeeds)
      def tpaNA(g: LocalGraph): Eval =
        evaluate(g, seeds)(Tpa.onlineNA(g, ExpConfig.c, spec.s, spec.t, _, ExpConfig.eps))
      val real = tpaNA(spec.graph)
      val rand = tpaNA(spec.randomCounterpart)
      Fig6Row(spec.name, real.l1, rand.l1, real.spearman, rand.spearman)
    }

  def fig6Table(rows: Seq[Fig6Row]): String =
    table(Seq("dataset", "TPA-NA L1 (real-like)", "TPA-NA L1 (random)",
              "Spearman (real-like)", "Spearman (random)"),
      rows.map(r => Seq(r.dataset, fmtSci(r.l1Real), fmtSci(r.l1Random),
                        f"${r.spearmanReal}%.4f", f"${r.spearmanRandom}%.4f")))

  // ---- Figure 7: effect of S (T = 10) on online time and L1 ----

  /** TPA's mean online time and L1 error at one S, with T = 10. */
  final case class Fig7Row(dataset: String, s: Int, onlineMs: Double, l1: Double)

  /** The S sweep on the LiveJournal and Pokec analogs, whose Table II T
    * is the fixed 10, so their registry models serve every S.
    */
  def fig7SSweep(): Seq[Fig7Row] =
    Seq(Datasets.livejournal, Datasets.pokec).flatMap { spec =>
      val g = spec.graph
      val model = models(spec).tpa.value
      require(model.t == 10, s"${spec.name}: Fig 7 fixes T = 10, the model has T = ${model.t}")
      val seeds = Datasets.seedNodes(spec, ExpConfig.numSeeds)
      (1 to 8).map { sVal =>
        val e = evaluate(g, seeds)(Tpa.online(g, model, sVal, _, ExpConfig.eps))
        Fig7Row(spec.name, sVal, e.ms, e.l1)
      }
    }

  def fig7Table(rows: Seq[Fig7Row]): String =
    table(Seq("dataset", "S", "online time", "L1 error"),
      rows.map(r => Seq(r.dataset, r.s.toString, fmtMs(r.onlineMs), fmtSci(r.l1))))

  // ---- Figure 8: effect of T (S = 4) on L1 and Spearman ----

  /** TPA's mean L1 error and Spearman at one T, with S = 4. */
  final case class Fig8Row(dataset: String, t: Int, l1: Double, spearman: Double)

  /** The strong-community SBM of Fig 8 (n = 4096, 32 blocks, 95 % in-block
    * draws), built once so its exact vectors are cached with it.
    */
  private lazy val sbm = GraphGen.communities(4096, 32, 40000, 0.95, 77)

  /** The T sweep on the LiveJournal and Pokec analogs, then on [[sbm]].
    * The analogs mix too fast for the small-T penalty to show; the SBM
    * has the locality behind the paper's full U-shape (EXPERIMENTS.md).
    */
  def fig8TSweep(): Seq[Fig8Row] =
    Seq(Datasets.livejournal, Datasets.pokec).flatMap { spec =>
      tSweep(spec.name, spec.graph, Datasets.seedNodes(spec, ExpConfig.numSeeds))
    } ++ tSweep("sbm-community", sbm, Seq(1, 100, 2000, 3000, 4001))

  private def tSweep(name: String, g: LocalGraph, seeds: Seq[Int]): Seq[Fig8Row] =
    Seq(4, 5, 6, 8, 10, 15, 20, 30).map { tVal =>
      val model = Tpa.preprocess(g, ExpConfig.c, ExpConfig.eps, tVal)
      val e = evaluate(g, seeds)(Tpa.online(g, model, 4, _, ExpConfig.eps))
      Fig8Row(name, tVal, e.l1, e.spearman)
    }

  def fig8Table(rows: Seq[Fig8Row]): String =
    table(Seq("dataset", "T", "L1 error", "Spearman"),
      rows.map(r => Seq(r.dataset, r.t.toString, fmtSci(r.l1), f"${r.spearman}%.4f")))
}
