package repro.perfbench

import java.util.SplittableRandom

/** An RMAT analog of one of the paper's graphs: `n = 2^scale` nodes,
  * `mTarget` edge draws before dedup, and the paper's S and T for it.
  * The sizes are those of `repro.graph.Datasets`.
  */
final case class Analog(name: String, scale: Int, mTarget: Int, s: Int, t: Int) {
  def n: Int = 1 << scale
}

/** A deduplicated, dangling-free edge list, sorted by (src, dst). */
final case class EdgeList(n: Int, src: Array[Int], dst: Array[Int]) {
  def m: Int = src.length

  /** Order-independent hash of the edge set, so the same set collected
    * back from any number of Spark partitions hashes the same.
    */
  lazy val hash: Long = Inputs.edgeHash(n, src.iterator.zip(dst.iterator))

  def fingerprint: String = f"n=$n m=$m edge_hash=$hash%016x"
}

/** Benchmark-owned inputs. The edge list is a pure function of
  * (analog, workload seed): each RMAT draw hashes (seed, edge index,
  * level) with SplitMix64, so it does not depend on the machine, the
  * core count or Spark's per-partition `rand` seeding.
  */
object Inputs {

  val twitter = Analog("twitter-s", 15, 1155000, 2, 5)
  val pokec = Analog("pokec-s", 13, 153600, 4, 10)

  /** RMAT quadrant probabilities, as in `repro.graph.GraphGen`. */
  private val A = 0.57; private val B = 0.19; private val C = 0.19

  /** SplitMix64 finalizer. */
  def mix64(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  private def unit(h: Long): Double = (h >>> 11) * (1.0 / (1L << 53))

  /** RMAT edges for `a` under workload seed `seed`: self-loops and
    * duplicates removed, then every node without an out-edge gets the
    * edge u → (u+1) mod n, as `GraphGen.fixDangling` does.
    */
  def rmat(a: Analog, seed: Long): EdgeList = {
    val n = a.n
    val keys = new Array[Long](a.mTarget + n)
    val seedHash = mix64(seed)
    var k = 0
    var e = 0
    while (e < a.mTarget) {
      val edgeHash = mix64(seedHash ^ mix64(e.toLong))
      var s = 0L; var d = 0L; var level = 0
      while (level < a.scale) {
        val u = unit(mix64(edgeHash + level))
        s = s * 2 + (if (u < A + B) 0 else 1)
        d = d * 2 + (if (u < A || (u >= A + B && u < A + B + C)) 0 else 1)
        level += 1
      }
      if (s != d) { keys(k) = s * n + d; k += 1 }
      e += 1
    }
    java.util.Arrays.sort(keys, 0, k)
    var m = 0
    var i = 0
    while (i < k) {
      if (m == 0 || keys(i) != keys(m - 1)) { keys(m) = keys(i); m += 1 }
      i += 1
    }
    val hasOut = new Array[Boolean](n)
    i = 0
    while (i < m) { hasOut((keys(i) / n).toInt) = true; i += 1 }
    var u = 0
    val deduped = m
    while (u < n) {
      if (!hasOut(u)) { keys(m) = u.toLong * n + (u + 1) % n; m += 1 }
      u += 1
    }
    if (m > deduped) java.util.Arrays.sort(keys, 0, m)
    val src = new Array[Int](m)
    val dst = new Array[Int](m)
    i = 0
    while (i < m) { src(i) = (keys(i) / n).toInt; dst(i) = (keys(i) % n).toInt; i += 1 }
    EdgeList(n, src, dst)
  }

  def edgeHash(n: Int, edges: Iterator[(Int, Int)]): Long =
    edges.foldLeft(0L) { case (h, (s, d)) => h + mix64(s.toLong * n + d) }

  /** Query seeds drawn uniformly from [0, n) by the workload seed. */
  def querySeeds(n: Int, seed: Long): Iterator[Int] = {
    val rng = new SplittableRandom(mix64(seed ^ 0x51ED5EEDL))
    Iterator.continually(rng.nextInt(n))
  }
}
