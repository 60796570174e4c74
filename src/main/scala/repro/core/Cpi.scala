package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable.ArrayBuffer

/** Cumulative Power Iteration as a Spark DataFrame (Catalyst) job.
  *
  * Each CPI iteration `x^(i+1) = (1-c) Ã^T x^(i)` is the relational plan
  *
  * {{{
  *   SELECT e.dst AS node, SUM(e.w * x.x) * (1-c) AS x
  *   FROM edges e JOIN x ON e.src = x.node GROUP BY e.dst
  * }}}
  *
  * over the weighted edge table (`w = 1/outdeg(src)`), i.e. a
  * PageRank-style join–aggregate per superstep. Lineage is truncated
  * with an eager `localCheckpoint` each iteration (the ‖x‖₁ convergence
  * check forces an action anyway), and the accumulated score vector is
  * a final union + groupBy-sum over the retained interim vectors.
  */
object Cpi {

  /** Seed DataFrame (`node`, `q`) for RWR from a single seed node. */
  def unitSeed(spark: SparkSession, s: Long): DataFrame =
    spark.range(s, s + 1).select(col("id").as("node"), lit(1.0).as("q"))

  /** Seed DataFrame (`node`, `q = 1/n`) for PageRank. */
  def uniformSeed(spark: SparkSession, n: Long): DataFrame =
    spark.range(n).select(col("id").as("node"), lit(1.0 / n).as("q"))

  /** Run CPI-IMPL distributed.
    *
    * @param normEdges weighted edges (`src`, `dst`, `w`) from [[repro.graph.GraphGen.normalize]]
    * @param seeds     seed vector as (`node`, `q`) rows (zero entries omitted)
    * @param sIter     first accumulated iteration (inclusive)
    * @param tIter     last accumulated iteration (inclusive); Int.MaxValue = ∞
    * @return (`node`, `score`) rows; nodes with zero score are omitted
    */
  def run(spark: SparkSession, normEdges: DataFrame, seeds: DataFrame,
          c: Double, eps: Double, sIter: Int, tIter: Int): DataFrame = {
    require(c > 0 && c < 1, s"restart probability out of range: $c")
    LocalCpi.requireStops(eps, tIter)
    val zero = spark.emptyDataFrame
      .select(lit(0L).as("node"), lit(0.0).as("x")).limit(0)
    if (tIter < 0) return zero.withColumnRenamed("x", "score")

    val parts = ArrayBuffer.empty[DataFrame]
    var x = seeds
      .select(col("node"), (col("q") * c).as("x"))
      .filter(col("x") =!= 0.0)
      .localCheckpoint(true)
    if (sIter <= 0) parts += x

    var iter = 1
    var done = tIter == 0
    while (!done) {
      val nx = normEdges
        .join(x, normEdges("src") === x("node"))
        .groupBy(normEdges("dst").as("node"))
        .agg((sum(col("w") * col("x")) * (1.0 - c)).as("x"))
        .localCheckpoint(true)
      val norm = nx.agg(sum("x")).first() match {
        case row if row.isNullAt(0) => 0.0
        case row                    => row.getDouble(0)
      }
      if (iter >= sIter && iter <= tIter) parts += nx
      x = nx
      if (norm < eps || iter >= tIter) done = true
      iter += 1
    }

    if (parts.isEmpty) zero.withColumnRenamed("x", "score")
    else parts.reduce(_ unionByName _)
      .groupBy("node").agg(sum("x").as("score"))
  }

  /** Exact RWR from seed `s` as a DataFrame job. */
  def rwr(spark: SparkSession, normEdges: DataFrame, s: Long,
          c: Double, eps: Double = 1e-9): DataFrame =
    run(spark, normEdges, unitSeed(spark, s), c, eps, 0, Int.MaxValue)

  /** Exact PageRank as a DataFrame job. */
  def pagerank(spark: SparkSession, normEdges: DataFrame, n: Long,
               c: Double, eps: Double = 1e-9): DataFrame =
    run(spark, normEdges, uniformSeed(spark, n), c, eps, 0, Int.MaxValue)

  /** Collect a (`node`, `score`) DataFrame into a dense array of length n. */
  def toDense(scores: DataFrame, n: Int): Array[Double] = {
    val arr = new Array[Double](n)
    scores.collect().foreach(r => arr(r.getLong(0).toInt) = r.getDouble(1))
    arr
  }
}
