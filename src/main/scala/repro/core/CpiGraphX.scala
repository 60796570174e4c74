package repro.core

import org.apache.spark.graphx.{Graph, VertexId}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable.ArrayBuffer

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

  /** Run CPI-IMPL over a prebuilt weighted graph.
    *
    * @param q     seed weight per vertex id (zero for absent ids)
    * @param sIter first accumulated iteration (inclusive)
    * @param tIter last accumulated iteration (inclusive); Int.MaxValue = ∞
    * @return vertex RDD of accumulated scores (zero-score vertices omitted)
    */
  def run(spark: SparkSession, graph: Graph[Int, Double], q: VertexId => Double,
          c: Double, eps: Double, sIter: Int, tIter: Int): RDD[(VertexId, Double)] = {
    require(c > 0 && c < 1, s"restart probability out of range: $c")
    LocalCpi.requireStops(eps, tIter)
    val sc = spark.sparkContext
    if (tIter < 0) return sc.emptyRDD[(VertexId, Double)]

    val parts = ArrayBuffer.empty[RDD[(VertexId, Double)]]
    var x: RDD[(VertexId, Double)] = graph.vertices
      .mapValues((id, _) => c * q(id))
      .filter(_._2 != 0.0)
      .map(identity) // plain pair RDD so localCheckpoint is clean
    x.localCheckpoint()
    x.count()
    if (sIter <= 0) parts += x

    var iter = 1
    var done = tIter == 0
    while (!done) {
      // Ship x onto the static base graph, then one message-passing round.
      val nx: RDD[(VertexId, Double)] = graph
        .outerJoinVertices(x)((_, _, xv) => xv.getOrElse(0.0))
        .aggregateMessages[Double](
          ctx => if (ctx.srcAttr != 0.0)
            ctx.sendToDst(ctx.srcAttr * ctx.attr * (1.0 - c)),
          _ + _)
        .map(identity)
      nx.localCheckpoint()
      val norm = nx.map(_._2).sum() // materializes the checkpoint
      if (iter >= sIter && iter <= tIter) parts += nx
      x = nx
      if (norm < eps || iter >= tIter) done = true
      iter += 1
    }
    if (parts.isEmpty) sc.emptyRDD[(VertexId, Double)]
    else sc.union(parts.toSeq).reduceByKey(_ + _)
  }

  /** Exact RWR from seed `s` via GraphX. */
  def rwr(spark: SparkSession, graph: Graph[Int, Double], s: Long,
          c: Double, eps: Double = 1e-9): RDD[(VertexId, Double)] =
    run(spark, graph, id => if (id == s) 1.0 else 0.0, c, eps, 0, Int.MaxValue)

  /** Exact PageRank via GraphX (uniform seed over `n` nodes). */
  def pagerank(spark: SparkSession, graph: Graph[Int, Double], n: Long,
               c: Double, eps: Double = 1e-9): RDD[(VertexId, Double)] =
    run(spark, graph, _ => 1.0 / n, c, eps, 0, Int.MaxValue)

  /** Collect vertex scores into a dense array of length n. */
  def toDense(scores: RDD[(VertexId, Double)], n: Int): Array[Double] = {
    val arr = new Array[Double](n)
    scores.collect().foreach { case (id, v) => arr(id.toInt) = v }
    arr
  }
}
