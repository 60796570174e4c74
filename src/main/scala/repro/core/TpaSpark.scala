package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** TPA on Spark — the distributed formulation of Algorithms 2 and 3 over
  * any [[CpiEngine]]: the DataFrame engine [[Cpi]] or GraphX [[CpiGraphX]].
  *
  * Preprocessing runs the PageRank CPI tail (`iterations ≥ T`) as a
  * sequence of supersteps; the resulting stranger vector is a
  * (`node`, `score`) DataFrame that can be persisted/written out.
  * The online phase runs only S supersteps from the seed and merges the
  * three parts with a union + groupBy-sum.
  */
object TpaSpark {

  /** Preprocessing phase (Algorithm 2): stranger vector as a DataFrame. */
  def preprocess(engine: CpiEngine, n: Long, c: Double, eps: Double, t: Int): DataFrame = {
    require(n >= 1, s"need n >= 1, got n=$n")
    require(t >= 1, s"need T >= 1, got T=$t")
    engine.run(CpiEngine.Uniform(n), c, eps, t, Int.MaxValue)
  }

  /** [[preprocess]] on the DataFrame engine. */
  def preprocess(spark: SparkSession, normEdges: DataFrame, n: Long,
                 c: Double, eps: Double, t: Int): DataFrame =
    preprocess(Cpi.engine(spark, normEdges), n, c, eps, t)

  /** Online phase (Algorithm 3): family (S supersteps from the seed),
    * neighbor by Lemma-3 scaling, plus the precomputed stranger vector.
    */
  def online(engine: CpiEngine, stranger: DataFrame,
             c: Double, s: Int, t: Int, seed: Long, eps: Double): DataFrame =
    onlineNA(engine, c, s, t, seed, eps)
      .unionByName(stranger.select(col("node"), col("score")))
      .groupBy("node").agg(sum("score").as("score"))

  /** [[online]] on the DataFrame engine. */
  def online(spark: SparkSession, normEdges: DataFrame, stranger: DataFrame,
             c: Double, s: Int, t: Int, seed: Long, eps: Double): DataFrame =
    online(Cpi.engine(spark, normEdges), stranger, c, s, t, seed, eps)

  /** TPA-NA online phase: family + scaled neighbor only, i.e. the family
    * scaled by 1 + ‖r_nbr‖₁/‖r_fam‖₁. The scale is computed before the
    * first superstep, so a negative seed or S, T outside 1 ≤ S ≤ T
    * (rejected by [[Tpa.neighborFactor]]) starts no job. The edge table
    * does not give n without a job, so a seed ≥ n is not caught here.
    */
  def onlineNA(engine: CpiEngine, c: Double, s: Int, t: Int, seed: Long, eps: Double): DataFrame = {
    require(seed >= 0, s"seed $seed is negative")
    val scale = 1.0 + Tpa.neighborFactor(c, s, t)
    engine.run(CpiEngine.Node(seed), c, eps, 0, s - 1)
      .select(col("node"), (col("score") * scale).as("score"))
  }
}
