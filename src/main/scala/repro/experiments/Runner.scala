package repro.experiments

import repro.core.{LocalCpi, Tpa}
import repro.graph.{DatasetSpec, LocalGraph}
import repro.baselines.{BearApprox, HubPpr, NbLin}
import repro.metrics.Metrics

import scala.collection.mutable

/** Shared measurement machinery: wall-clock timing, markdown table
  * formatting, the one evaluation loop every exhibit scores a method
  * with, and memos of exact vectors and of each analog's preprocessed
  * models so the per-figure experiments don't redo work.
  */
object Runner {

  /** A value plus the wall-clock milliseconds it took to produce. */
  final case class Timed[T](value: T, ms: Double)

  /** Time a thunk (single-shot wall clock, as in the paper). */
  def time[T](f: => T): Timed[T] = {
    val t0 = System.nanoTime()
    val v = f
    Timed(v, (System.nanoTime() - t0) / 1e6)
  }

  /** Render a markdown table. */
  def table(headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val sb = new StringBuilder
    sb.append(headers.mkString("| ", " | ", " |\n"))
    sb.append(headers.map(_ => "---").mkString("| ", " | ", " |\n"))
    rows.foreach(r => sb.append(r.mkString("| ", " | ", " |\n")))
    sb.toString
  }

  /** Arithmetic mean, summed in order. */
  def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  /** One decimal at or above 1 ms, three significant digits below. */
  def fmtMs(ms: Double): String = if (ms >= 1) f"$ms%.1f ms" else f"$ms%.3g ms"
  def fmtSci(x: Double): String = f"$x%.3e"
  def fmtBytes(b: Long): String =
    if (b >= (1L << 20)) f"${b / 1048576.0}%.2f MB" else f"${b / 1024.0}%.1f KB"

  /** A method's mean query time, L1 error and Spearman against exact RWR. */
  final case class Eval(ms: Double, l1: Double, spearman: Double)

  /** Score `run` on `g` from each of `seeds`, the paper's way: time one
    * query per seed and compare its vector with the exact RWR. Every exact
    * vector is in hand before the first query is timed.
    */
  def evaluate(g: LocalGraph, seeds: Seq[Int])(run: Int => Array[Double]): Eval = {
    val exacts = seeds.map(exact(g, _))
    val timed = seeds.map(s => time(run(s)))
    val pairs = timed.map(_.value).zip(exacts)
    Eval(mean(timed.map(_.ms)),
         mean(pairs.map { case (v, ex) => Metrics.l1(v, ex) }),
         mean(pairs.map { case (v, ex) => Metrics.spearman(v, ex) }))
  }

  // ---- memos (benches run sequentially in one JVM) ----

  private val exactCache = mutable.Map.empty[(LocalGraph, Int), Array[Double]]
  private val modelCache = mutable.Map.empty[DatasetSpec, Models]

  /** Exact RWR vector (ground truth; CPI to ε = 1e-9), cached per graph
    * object and seed. [[LocalGraph]] compares by reference, and each
    * [[DatasetSpec]] builds its graphs once.
    */
  def exact(g: LocalGraph, seed: Int): Array[Double] =
    exactCache.getOrElseUpdate((g, seed), LocalCpi.rwr(g, seed, ExpConfig.c, ExpConfig.eps))

  /** The analog's model set, one per spec. */
  private[experiments] def models(spec: DatasetSpec): Models =
    modelCache.getOrElseUpdate(spec, new Models(spec))

  /** Every preprocessing method's model on one analog's graph, each built
    * and timed on first read. A method whose gate rules the analog out is
    * None (OOT in the paper) and never built.
    */
  final class Models private[Runner] (spec: DatasetSpec) {
    import ExpConfig._
    private def g = spec.graph

    /** Times `build` once the graph's in-lists exist, so they are charged
      * to the graph, like its CSR, and not to whichever method reads them
      * first.
      */
    private def timed[T](build: => T): Timed[T] = { g.pullLayout; time(build) }

    lazy val tpa: Timed[Tpa.Model] = timed(Tpa.preprocess(g, c, eps, spec.t))

    lazy val nbLin: Option[Timed[NbLin.Model]] =
      Option.when(spec.n <= nbLinMaxN)(timed(NbLin.preprocess(g, c, nbLinRank)))

    /** The drop tolerance is the paper's n^-1/2. */
    lazy val bear: Option[Timed[BearApprox.Model]] =
      Option.when(spec.n <= bearMaxN)(timed(BearApprox.preprocess(g, c, bearHubFrac, 1.0 / math.sqrt(spec.n.toDouble))))

    lazy val hubPpr: Timed[HubPpr.Model] = timed(HubPpr.preprocess(g, c, hubPprRmax, hubPprHubs))
  }
}
