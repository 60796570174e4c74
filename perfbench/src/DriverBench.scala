package repro.perfbench

import repro.core.{LocalCpi, Tpa}
import repro.graph.LocalGraph
import repro.metrics.Metrics
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Exact RWR (CPI to 1e-9) as ground truth, and TPA's accuracy against
  * it, over the verified seeds of one run.
  */
final class Accuracy(a: Analog, eps: Double, tr: Tracer, rep: Report) {
  import DriverBench.{C, Eps}
  val l1s, rhos = ArrayBuffer.empty[Double]

  /** Checks TPA's answer `r` for `seed`: L1 mass and the Theorem 2 bound. */
  def verify(g: LocalGraph, seed: Int, query: Int)(r: => Array[Double]): Unit =
    rep.attempt(s"verified query seed=$seed") {
      val x = tr("core.LocalCpi.rwr", query)(LocalCpi.rwr(g, seed, C, Eps))
      val answer = r
      val l1 = Metrics.l1(answer, x)
      l1s += l1
      rhos += Metrics.spearman(answer, x)
      Checks.all(Checks.vector(answer, g.n, C, eps), Checks.bound(l1, C, a.s, eps))
    }

  def put(): Unit = {
    rep.put("l1_mean", Stats.mean(l1s.toSeq), "L1")
    rep.put("spearman_mean", Stats.mean(rhos.toSeq), "rho")
  }
}

/** The driver-engine workloads: build the CSR graph, preprocess once,
  * then answer full-vector `Tpa.online` queries in a closed loop with one
  * client, checking every answer.
  *
  * The timed window is a sequence of rounds. Each round rebuilds the
  * graph once, preprocesses once, verifies one seed against exact RWR and
  * then answers queries for `QueryBatchS`, so every metric samples the
  * whole window and not one phase of a machine whose speed drifts. The
  * p99 is taken per round and its median reported, so that one slow
  * stretch of the machine does not decide it.
  */
object DriverBench {

  /** Restart probability and CPI tolerance of the paper (Section IV-A). */
  val C = 0.15
  val Eps = 1e-9

  val QueryBatchS = 0.3

  /** One driver workload: its analog, how many query seeds are checked
    * against exact RWR, how many untimed queries warm the JIT, and the
    * Spark layers its traced run measures on the same graph, if any.
    */
  final case class Config(name: String, analog: Analog, verified: Int, warmupQueries: Int = 3000,
                          spark: Option[SparkBench.Config] = None)

  val sparse = Config("driver-sparse", Inputs.twitter, verified = 24)
  val dense = Config("driver-dense", Inputs.pokec, verified = 48, spark = Some(SparkBench.dataFrame))

  def timedS[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val v = f
    (v, (System.nanoTime() - t0) / 1e9)
  }

  /** Family support size and out-edges the family kernel scans, from
    * single-iteration `LocalCpi.run` windows: iterations 1..S-1 scan the
    * out-edges of the support of x^(0)..x^(S-2).
    */
  def familyInput(g: LocalGraph, seed: Int, s: Int): (Int, Long) = {
    val inSupport = new Array[Boolean](g.n)
    var nodes = 0
    var touched = 0L
    for (i <- 0 until s) {
      val x = LocalCpi.run(g, LocalCpi.unitSeed(g.n, seed), C, Eps, i, i)
      var u = 0
      while (u < g.n) {
        if (x(u) != 0.0) {
          if (!inSupport(u)) { inSupport(u) = true; nodes += 1 }
          if (i < s - 1) touched += g.outDeg(u)
        }
        u += 1
      }
    }
    (nodes, touched)
  }

  /** With `trace`, odd rounds record spans and even rounds do not; the
    * difference of their `Tpa.online` medians is the tracing overhead.
    * In traced rounds every other query times `Tpa.family` alone, on a
    * seed of its own, so a traced online query differs from an untraced
    * one only by its spans and not by a cache warmed on its seed. The
    * Spark layers run after the rounds.
    */
  def run(w: Config, seed: Long, seconds: Double, trace: Boolean, tr: Tracer, rep: Report,
          corrupt: Boolean = false): Unit = {
    val a = w.analog
    val edges = Inputs.rmat(a, seed)
    val n = edges.n
    println(s"input ${w.name}: ${a.name} S=${a.s} T=${a.t} c=$C eps=$Eps ${edges.fingerprint}")
    tr.on = false
    def build(): LocalGraph = tr("graph.LocalGraph.fromEdges")(LocalGraph.fromEdges(n, edges.src, edges.dst))

    val g = build()
    rep.attempt("graph build") {
      if (g.n == n && g.m == edges.m) None else Some(s"built n=${g.n} m=${g.m}")
    }
    val built = Tpa.preprocess(g, C, Eps, a.t)
    val model = if (corrupt) built.copy(stranger = new Array[Double](n)) else built
    val modelBytes = Probe.deepSize(model)

    // JIT warm-up on seeds outside the workload's stream.
    val warmSeeds = Inputs.querySeeds(n, ~seed)
    for (_ <- 0 until 3) { build(); LocalCpi.rwr(g, warmSeeds.next(), C, Eps) }
    for (_ <- 0 until w.warmupQueries) Tpa.online(g, model, a.s, warmSeeds.next(), Eps)

    val seeds = Inputs.querySeeds(n, seed)
    val verifiedSeeds = Array.fill(w.verified)(seeds.next())
    val acc = new Accuracy(a, Eps, tr, rep)
    var query = w.verified
    val seedOf = mutable.Map.empty[Int, Int]
    val setupS, prepS, plainMs, tracedMs, roundP99 = ArrayBuffer.empty[Double]
    var loopS = 0.0
    var gcMs = 0L

    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var round = 0
    while (round < 2 || System.nanoTime() < deadline) {
      val traced = trace && round % 2 == 1
      tr.on = traced
      val latencyMs = if (traced) tracedMs else plainMs
      // The round works on its own build: where the arrays land in memory
      // changes the kernels' speed, and a run should sample many layouts.
      val (gr, buildS) = timedS(build())
      setupS += buildS
      prepS += timedS(tr("core.Tpa.preprocess")(Tpa.preprocess(gr, C, Eps, a.t)))._2
      if (round < w.verified) {
        val s = verifiedSeeds(round)
        acc.verify(gr, s, round + 1)(Tpa.online(gr, model, a.s, s, Eps))
      }

      // Closed loop, one client: the next query is sent when the last
      // returns. Latency is the call alone; the output check runs between.
      val gc0 = Probe.gcMs()
      val roundStart = plainMs.length
      val loopStart = System.nanoTime()
      val batchEnd = loopStart + (QueryBatchS * 1e9).toLong
      while (System.nanoTime() < batchEnd) {
        val s = seeds.next()
        query += 1
        if (traced && query % 2 == 0) rep.attempt(s"family seed=$s") {
          seedOf(query) = s
          val f = tr("query", query)(tr("core.Tpa.family", query)(Tpa.family(gr, C, a.s, s, Eps)))
          Checks.family(f, n, C, a.s, Eps)
        }
        else rep.attempt(s"query seed=$s") {
          val t0 = System.nanoTime()
          val r = tr("query", query)(tr("core.Tpa.online", query)(Tpa.online(gr, model, a.s, s, Eps)))
          latencyMs += (System.nanoTime() - t0) / 1e6
          Checks.vector(r, n, C, Eps)
        }
      }
      if (!traced) {
        loopS += (System.nanoTime() - loopStart) / 1e9
        gcMs += Probe.gcMs() - gc0
        roundP99 += Stats.percentile(plainMs.takeRight(plainMs.length - roundStart).toSeq, 0.99)
      }
      round += 1
    }
    tr.on = trace
    for (i <- round until w.verified)
      acc.verify(g, verifiedSeeds(i), i + 1)(Tpa.online(g, model, a.s, verifiedSeeds(i), Eps))
    println(s"rounds: $round, queries: ${plainMs.length} untraced, ${tracedMs.length} traced, " +
      s"${w.verified} seeds verified")

    if (!trace) {
      rep.put("setup_s", Stats.median(setupS.toSeq), "s")
      rep.put("preprocess_s", Stats.median(prepS.toSeq), "s")
      rep.put("query_p50_ms", Stats.median(plainMs.toSeq), "ms")
      rep.put("query_p99_ms", Stats.median(roundP99.toSeq), "ms")
      rep.put("queries_per_s", plainMs.length / loopS, "1/s")
      acc.put()
      rep.put("model_bytes", modelBytes.toDouble, "bytes")
    } else {
      putDriverLayers(tr, rep, g, a, seedOf.toMap)
      rep.put("jvm.gc_ms_per_1k_queries", gcMs * 1000.0 / plainMs.length, "ms")
      rep.put("trace.overhead_query_p50_ms", Stats.median(tracedMs.toSeq) - Stats.median(plainMs.toSeq), "ms")
      w.spark match {
        case Some(sc) => SparkBench.run(sc, a, edges, g, seeds, query + 1, tr, rep, corrupt)
        case None => SparkBench.putIdleLayers(rep)
      }
    }
  }

  /** Per-layer metrics of the driver engine, from the recorded spans. */
  def putDriverLayers(tr: Tracer, rep: Report, g: LocalGraph, a: Analog, seedOf: Map[Int, Int]): Unit = {
    def p50(name: String): Double = Stats.median(tr.named(name).map(_.ms))
    def alloc(name: String): Double = Stats.median(tr.named(name).map(_.allocBytes.toDouble))
    rep.put("graph.LocalGraph.fromEdges_ms", p50("graph.LocalGraph.fromEdges"), "ms")
    rep.put("core.Tpa.preprocess_ms", p50("core.Tpa.preprocess"), "ms")
    rep.put("core.Tpa.preprocess.alloc_bytes", alloc("core.Tpa.preprocess"), "bytes")
    rep.put("core.LocalCpi.rwr_ms", p50("core.LocalCpi.rwr"), "ms")

    // Family and online are timed on different queries of the same seed
    // stream, so the merge is the difference of their medians.
    val family = tr.named("core.Tpa.family")
    rep.put("core.Tpa.family_ms", p50("core.Tpa.family"), "ms")
    rep.put("core.Tpa.family.alloc_bytes", alloc("core.Tpa.family"), "bytes")
    rep.put("core.Tpa.merge_ms", p50("core.Tpa.online") - p50("core.Tpa.family"), "ms")
    rep.put("core.Tpa.online.alloc_bytes", alloc("core.Tpa.online"), "bytes")

    // Input properties of the queried seeds; they are the denominators.
    val sample = family.take(1000)
    val inputs = sample.map(s => s -> familyInput(g, seedOf(s.query), a.s))
    rep.put("input.family_support_nodes_p50", Stats.median(inputs.map(_._2._1.toDouble)), "count")
    rep.put("input.family_edges_touched_p50", Stats.median(inputs.map(_._2._2.toDouble)), "count")
    rep.put("core.Tpa.family.ns_per_touched_edge",
      Stats.median(inputs.map { case (s, (_, e)) => (s.endNs - s.startNs).toDouble / e.max(1L) }), "ns")
  }
}
