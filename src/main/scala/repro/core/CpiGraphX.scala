package repro.core

import org.apache.spark.graphx.{Graph, VertexId}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}

/** Cumulative Power Iteration as GraphX iterative message passing.
  *
  * This is the "neighbor/stranger approximation phases as GraphX
  * PageRank-like message passing" formulation: the interim score vector
  * `x^(i)` lives as a vertex RDD; each superstep ships it onto a
  * *static* weighted base graph (`w = 1/outdeg(src)` as the edge
  * attribute) and sends `x_src · w · (1-c)` along every out-edge,
  * summing messages at the destination.
  *
  * The interim RDD is local-checkpointed every iteration, so lineage is
  * cut at each superstep and ~100-iteration convergence runs (ε = 1e-9)
  * stay O(1) per iteration — chaining `outerJoinVertices` graphs instead
  * produces a recompute cascade.
  */
object CpiGraphX {

  /** Build a weighted GraphX graph (edge attr = 1/outdeg(src)) from a
    * (`src`, `dst`) edge DataFrame.
    */
  def build(spark: SparkSession, edges: DataFrame): Graph[Int, Double] = {
    val tuples: RDD[(VertexId, VertexId)] =
      edges.select("src", "dst").rdd.map(r => (r.getLong(0), r.getLong(1)))
    val g = Graph.fromEdgeTuples(tuples, defaultValue = 0)
    val withDeg = g.outerJoinVertices(g.outDegrees)((_, _, d) => d.getOrElse(0))
    withDeg.mapTriplets(t => if (t.srcAttr > 0) 1.0 / t.srcAttr else 0.0)
      .mapVertices((_, _) => 0)
  }

  /** Run CPI-IMPL over a prebuilt weighted graph and the window
    * [sIter, tIter] of [[CpiEngine.run]], through [[CpiEngine.supersteps]].
    *
    * @param q seed weight per vertex id (zero for absent ids)
    * @return vertex RDD of accumulated scores (zero-score vertices omitted)
    */
  def run(spark: SparkSession, graph: Graph[Int, Double], q: VertexId => Double,
          c: Double, eps: Double, sIter: Int, tIter: Int): RDD[(VertexId, Double)] =
    CpiEngine.supersteps[RDD[(VertexId, Double)]](c, eps, sIter, tIter)(
      empty = spark.sparkContext.emptyRDD[(VertexId, Double)],
      seed = {
        val x0 = graph.vertices
          .mapValues((id, _) => c * q(id))
          .filter(_._2 != 0.0)
          .map(identity) // plain pair RDD so localCheckpoint is clean
          .localCheckpoint()
        x0.count()
        x0
      },
      // Ship x onto the static base graph, then one message-passing round.
      hop = x => graph
        .outerJoinVertices(x)((_, _, xv) => xv.getOrElse(0.0))
        .aggregateMessages[Double](
          ctx => if (ctx.srcAttr != 0.0)
            ctx.sendToDst(ctx.srcAttr * ctx.attr * (1.0 - c)),
          _ + _)
        .map(identity)
        .localCheckpoint(),
      // Materializes the checkpoint; `sum` materializes the last superstep's.
      norm = _.map(_._2).sum(),
      // As many partitions as one iterate: the default, the parts' total,
      // makes every later read of the sum (a TPA merge) run that many tasks.
      sum = parts => spark.sparkContext.union(parts).reduceByKey(_ + _, graph.vertices.getNumPartitions))

  /** The GraphX engine over a graph from [[build]]. Its vertex set is the
    * edge endpoints, so a node with no edges at all carries no seed mass.
    */
  def engine(spark: SparkSession, graph: Graph[Int, Double]): CpiEngine = new CpiEngine {
    def run(seed: CpiEngine.Seed, c: Double, eps: Double, sIter: Int, tIter: Int): DataFrame =
      spark.createDataFrame(CpiGraphX.run(spark, graph, seed.weight, c, eps, sIter, tIter))
        .toDF("node", "score")
  }

  /** Collect vertex scores into a dense array of length n. */
  def toDense(scores: RDD[(VertexId, Double)], n: Int): Array[Double] = {
    val arr = new Array[Double](n)
    scores.collect().foreach { case (id, v) => arr(id.toInt) = v }
    arr
  }
}
