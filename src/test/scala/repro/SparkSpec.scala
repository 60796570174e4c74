package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.SparkScale

/** Base for every Spark test: one session for the whole run, built by
  * [[SparkScale.session]] like `SparkScaleJob`'s, so the tests run the
  * plans the job runs. The driver heap comes from SPARK_DRIVER_MEM through
  * `Test / javaOptions` in build.sbt.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkScale.session("repro")
    // One line in the test output naming the heap and parallelism used.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
