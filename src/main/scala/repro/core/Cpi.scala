package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

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

  /** Run CPI-IMPL distributed over the window [sIter, tIter] of
    * [[CpiEngine.run]], through [[CpiEngine.supersteps]].
    *
    * @param normEdges weighted edges (`src`, `dst`, `w`) from [[repro.graph.GraphGen.normalize]]
    * @param seeds     seed vector as (`node`, `q`) rows (zero entries omitted)
    */
  def run(spark: SparkSession, normEdges: DataFrame, seeds: DataFrame,
          c: Double, eps: Double, sIter: Int, tIter: Int): DataFrame =
    CpiEngine.supersteps[DataFrame](c, eps, sIter, tIter)(
      empty = spark.emptyDataFrame.select(lit(0L).as("node"), lit(0.0).as("score")).limit(0),
      seed = seeds.select(col("node"), (col("q") * c).as("x"))
        .filter(col("x") =!= 0.0)
        .localCheckpoint(true),
      hop = x => normEdges
        .join(x, normEdges("src") === x("node"))
        .groupBy(normEdges("dst").as("node"))
        .agg((sum(col("w") * col("x")) * (1.0 - c)).as("x"))
        .localCheckpoint(true),
      norm = _.agg(sum("x")).first() match {
        case row if row.isNullAt(0) => 0.0
        case row                    => row.getDouble(0)
      },
      sum = _.reduce(_ unionByName _).groupBy("node").agg(sum("x").as("score")))

  /** The DataFrame engine over a weighted edge table. */
  def engine(spark: SparkSession, normEdges: DataFrame): CpiEngine = new CpiEngine {
    def run(seed: CpiEngine.Seed, c: Double, eps: Double, sIter: Int, tIter: Int): DataFrame =
      Cpi.run(spark, normEdges, seed match {
        case CpiEngine.Node(s)    => unitSeed(spark, s)
        case CpiEngine.Uniform(n) => uniformSeed(spark, n)
      }, c, eps, sIter, tIter)
  }

  /** Collect a (`node`, `score`) DataFrame into a dense array of length n. */
  def toDense(scores: DataFrame, n: Int): Array[Double] = {
    val arr = new Array[Double](n)
    scores.collect().foreach(r => arr(r.getLong(0).toInt) = r.getDouble(1))
    arr
  }
}
