package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.LocalGraph
import scala.collection.mutable.ArrayBuffer

/** A distributed CPI engine: it runs the window [sIter, tIter] of the CPI
  * series from a seed and returns the accumulated (`node`, `score`) rows,
  * omitting zero scores. TPA's two phases are two such windows
  * (Algorithms 2 and 3), so [[TpaSpark]] runs on any engine.
  * Implemented by [[Cpi.engine]] (DataFrame) and [[CpiGraphX.engine]].
  */
trait CpiEngine {
  /** @param sIter first accumulated iteration (inclusive)
    * @param tIter last accumulated iteration (inclusive); Int.MaxValue runs
    *              until ‖x^(i)‖₁ < eps
    */
  def run(seed: CpiEngine.Seed, c: Double, eps: Double, sIter: Int, tIter: Int): DataFrame
}

object CpiEngine {

  /** The seed vector q: a single node, or uniform over n nodes. */
  sealed trait Seed { def weight(id: Long): Double }
  final case class Node(s: Long) extends Seed { def weight(id: Long): Double = if (id == s) 1.0 else 0.0 }
  final case class Uniform(n: Long) extends Seed { def weight(id: Long): Double = 1.0 / n }

  /** The superstep loop both engines share. It checks c and eps before any
    * job, returns `empty` when tIter < 0, keeps the iterates inside the
    * window, and stops after tIter or once ‖x^(i)‖₁ < eps. Each engine
    * supplies its seed x^(0), its hop x^(i) → x^(i+1) (checkpointed), the
    * norm action and the sum of the kept iterates. Superstep tIter runs no
    * norm action: it ends the loop whatever the norm is, and `sum` reads
    * its iterate.
    */
  private[core] def supersteps[V](c: Double, eps: Double, sIter: Int, tIter: Int)(
      empty: => V, seed: => V, hop: V => V, norm: V => Double, sum: Seq[V] => V): V = {
    LocalGraph.requireParams(c)
    LocalCpi.requireStops(eps, tIter)
    if (tIter < 0) return empty

    val parts = ArrayBuffer.empty[V]
    var x = seed
    if (sIter <= 0) parts += x
    var iter = 1
    var done = tIter == 0
    while (!done) {
      x = hop(x)
      if (iter >= sIter && iter <= tIter) parts += x
      done = iter >= tIter || norm(x) < eps
      iter += 1
    }
    if (parts.isEmpty) empty else sum(parts.toSeq)
  }
}
