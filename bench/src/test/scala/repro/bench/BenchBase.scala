package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Base for bench suites: prints each experiment's table under a
  * recognizable banner so the output of `sbt bench/test` doubles as the
  * measured side of EXPERIMENTS.md. Only [[SparkScaleBench]] starts Spark.
  */
trait BenchBase extends AnyFunSuite {
  def banner(title: String, body: String): Unit = {
    println()
    println(s"==================== $title ====================")
    println(body)
  }
}
