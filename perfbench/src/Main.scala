package repro.perfbench

import java.nio.file.Paths

/** Benchmark entry point.
  *
  * {{{
  *   Main --workload <driver-sparse|driver-dense|selfcheck> --seed <n>
  *        --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * Prints the input fingerprint and configuration, then as its last line
  * one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
  * `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
  * per-layer ones, and the spans are written to `<out>/trace-*.json`.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val workload = opts("workload")
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val trace = opts("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val out = opts("out")
    if (workload == "selfcheck") SelfCheck.run(seed)
    else {
      val tr = new Tracer
      val rep = new Report
      runWorkload(workload, seed, seconds, trace, tr, rep)
      if (trace) {
        val self = tr.selfMs.toSeq.sortBy(-_._2).map { case (k, v) => f""""$k": $v%.3f""" }
        println(s"trace self_ms: {${self.mkString(", ")}}")
        tr.write(Paths.get(out, s"trace-$workload-seed$seed.json"))
      }
      println(rep.json)
    }
  }

  def runWorkload(workload: String, seed: Long, seconds: Double, trace: Boolean, tr: Tracer,
                  rep: Report): Unit = workload match {
    case "driver-sparse" => DriverBench.run(DriverBench.sparse, seed, seconds, trace, tr, rep)
    case "driver-dense" => DriverBench.run(DriverBench.dense, seed, seconds, trace, tr, rep)
    case w => throw new IllegalArgumentException(s"unknown workload $w")
  }
}

/** The benchmark's own check, on tiny graphs: every code path prints
  * its metrics in both modes, a corrupted result (zeroed stranger vector)
  * is counted as failed, and the Spark edge table matches the generator's
  * fingerprint under several core counts. Prints one
  * `selfcheck <trace0|trace1>.<case> <json>` line per case;
  * `run.py --selfcheck` compares them with BENCHMARK.json.
  */
object SelfCheck {
  private def tiny(cores: Int) = DriverBench.Config("tiny", Analog("tiny-8", 8, 2000, 2, 5),
    verified = 4, warmupQueries = 10, spark = Some(SparkBench.Config(cores = cores, queries = 2)))

  def run(seed: Long): Unit = {
    def one(name: String, trace: Boolean, cores: Int, corrupt: Boolean): Unit = {
      val rep = new Report
      DriverBench.run(tiny(cores), seed, 0.5, trace, new Tracer, rep, corrupt)
      println(s"selfcheck $name ${rep.json}")
    }
    one("trace0.clean", trace = false, cores = 1, corrupt = false)
    one("trace0.corrupt", trace = false, cores = 1, corrupt = true)
    one("trace1.local1", trace = true, cores = 1, corrupt = false)
    one("trace1.local3", trace = true, cores = 3, corrupt = false)
    one("trace1.corrupt", trace = true, cores = 2, corrupt = true)
  }
}
