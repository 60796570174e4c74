package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** TPA on Spark DataFrames — the distributed formulation of
  * Algorithms 2 and 3, with [[Cpi]] as the iteration engine.
  *
  * Preprocessing runs the PageRank CPI tail (`iterations ≥ T`) as a
  * sequence of join–aggregate supersteps; the resulting stranger vector
  * is a (`node`, `score`) DataFrame that can be persisted/written out.
  * The online phase runs only S supersteps from the seed and merges the
  * three parts with a union + groupBy-sum.
  */
object TpaSpark {

  /** Preprocessing phase (Algorithm 2): stranger vector as a DataFrame. */
  def preprocess(spark: SparkSession, normEdges: DataFrame, n: Long,
                 c: Double, eps: Double, t: Int): DataFrame = {
    require(n >= 1, s"need n >= 1, got n=$n")
    require(t >= 1, s"need T >= 1, got T=$t")
    Cpi.run(spark, normEdges, Cpi.uniformSeed(spark, n), c, eps, t, Int.MaxValue)
  }

  /** Online phase (Algorithm 3): family (S supersteps from the seed),
    * neighbor by Lemma-3 scaling, plus the precomputed stranger vector.
    */
  def online(spark: SparkSession, normEdges: DataFrame, stranger: DataFrame,
             c: Double, s: Int, t: Int, seed: Long, eps: Double): DataFrame = {
    val scale = queryScale(c, s, t, seed)
    val fam = Cpi.run(spark, normEdges, Cpi.unitSeed(spark, seed), c, eps, 0, s - 1)
    fam.select(col("node"), (col("score") * scale).as("score"))
      .unionByName(stranger.select(col("node"), col("score")))
      .groupBy("node").agg(sum("score").as("score"))
  }

  /** TPA-NA online phase: family + scaled neighbor only. */
  def onlineNA(spark: SparkSession, normEdges: DataFrame,
               c: Double, s: Int, t: Int, seed: Long, eps: Double): DataFrame = {
    val scale = queryScale(c, s, t, seed)
    val fam = Cpi.run(spark, normEdges, Cpi.unitSeed(spark, seed), c, eps, 0, s - 1)
    fam.select(col("node"), (col("score") * scale).as("score"))
  }

  /** The family's scale 1 + ‖r_nbr‖₁/‖r_fam‖₁. Computed before the first
    * superstep, so a negative seed or S, T outside 1 ≤ S ≤ T (rejected by
    * [[Tpa.neighborFactor]]) starts no job. The edge table does not give n
    * without a job, so a seed ≥ n is not caught here.
    */
  private def queryScale(c: Double, s: Int, t: Int, seed: Long): Double = {
    require(seed >= 0, s"seed $seed is negative")
    1.0 + Tpa.neighborFactor(c, s, t)
  }
}
