package repro.core

import java.util.Arrays

import repro.graph.{LocalGraph, PullLayout, Team}

/** Cumulative Power Iteration (Algorithm 1, CPI-IMPL) on a driver-side
  * CSR graph.
  *
  * CPI interprets RWR as score propagation: `x^(0) = c·q`,
  * `x^(i) = (1-c) Ã^T x^(i-1)`, and accumulates
  * `r = Σ_{i=sIter}^{tIter} x^(i)` (bounds inclusive, as in the paper's
  * Algorithm 1). With `sIter = 0, tIter = ∞` this converges to the exact
  * RWR/PageRank vector (Theorem 1) — it is the repo's ground-truth oracle
  * standing in for the paper's use of BePI.
  *
  * A run takes one of two kernels, by its window. A bounded window
  * (`Tpa.online`, `family`) runs on the calling thread's [[Scratch]]: an
  * ascending sparse frontier that switches to dense push hops once its
  * out-edges pass [[DenseFraction]] of m. A converging run (tIter = ∞:
  * `Tpa.preprocess`, `rwr`) runs on a [[PullTeam]] from its first hop:
  * the calling thread, with common-pool helpers on a graph of more than
  * [[Team.MinEdges]] edges, pulls over the graph's in-lists, laid out in
  * one degree order and cut into chunks ([[LocalGraph.pullLayout]]). Both
  * keep their arrays per thread and give the plain dense loop's result
  * bit for bit.
  */
object LocalCpi {

  /** A frontier with more out-edges than this fraction of m is propagated
    * by dense hops, for the rest of the run (the direction-optimizing switch
    * of Beamer et al., SC'12). Below it, the index lists cost less than
    * scanning n slots.
    */
  private val DenseFraction = 1.0 / 16

  /** Unit seed vector e_s (RWR from seed `s`). */
  def unitSeed(n: Int, s: Int): Array[Double] = {
    LocalGraph.requireSeed(n, s)
    val q = new Array[Double](n); q(s) = 1.0; q
  }

  /** Uniform seed vector 1/n (PageRank). */
  def uniformSeed(n: Int): Array[Double] = Array.fill(n)(1.0 / n)

  /** Run CPI-IMPL.
    *
    * @param g      graph (weights are implicit: 1/outdeg(src))
    * @param q      restart vector: finite, non-negative entries of finite
    *               sum (it must sum to 1 for the paper's norm lemmas)
    * @param c      restart probability
    * @param eps    convergence tolerance on ‖x^(i)‖₁; must be > 0 when tIter = ∞
    * @param sIter  first accumulated iteration (inclusive)
    * @param tIter  last accumulated iteration (inclusive); Int.MaxValue = ∞
    * @return accumulated score vector r
    */
  def run(g: LocalGraph, q: Array[Double], c: Double, eps: Double,
          sIter: Int, tIter: Int): Array[Double] = {
    require(q.length == g.n, "seed vector length mismatch")
    var mass = 0.0
    var i = 0
    while (i < q.length && q(i) >= 0.0) { mass += q(i); i += 1 }
    require(i == q.length, s"seed vector entry $i is ${q(i)}, not >= 0")
    require(mass < Double.PositiveInfinity, "seed vector has an infinite entry, or its mass overflows")
    if (tIter != Int.MaxValue)
      return accumulate(g, c, eps, sIter, tIter)(_.startFrom(q))(_.addTo(new Array[Double](g.n), 1.0))
    LocalGraph.requireParams(c); requireStops(eps, tIter)
    val team = Team(g) // first, so the helpers start while the caller builds the layout or starts the run
    try {
      var arrays = pullArrays.get
      if (arrays == null || arrays(0).length != g.n) { arrays = Array.ofDim[Double](4, g.n); pullArrays.set(arrays) }
      new PullTeam(g.pullLayout(team), team, c, eps, arrays).run(q, sIter)
    } finally team.stop()
  }

  /** Exact RWR from seed `s` (CPI to convergence). */
  def rwr(g: LocalGraph, s: Int, c: Double, eps: Double = 1e-9): Array[Double] =
    run(g, unitSeed(g.n, s), c, eps, 0, Int.MaxValue)

  /** Rejects an unbounded window (tIter = ∞) whose tolerance ‖x^(i)‖₁ < eps
    * never holds: eps ≤ 0 or NaN. A finite window stops at tIter, so any
    * eps is legal there. Shared with the Spark engines.
    */
  private[core] def requireStops(eps: Double, tIter: Int): Unit =
    require(tIter != Int.MaxValue || eps > 0, s"an unbounded CPI run needs eps > 0, got $eps")

  /** Runs the bounded window [sIter, tIter] on the calling thread's scratch
    * and lends the accumulated sum to `use`. `start` loads q; the scratch is
    * all-zero again when this returns or throws, so `use` must not keep it.
    */
  private[core] def accumulate[A](g: LocalGraph, c: Double, eps: Double, sIter: Int, tIter: Int)
      (start: Scratch => Unit)(use: Scratch => A): A = {
    LocalGraph.requireParams(c)
    require(tIter != Int.MaxValue, "a converging run (tIter = ∞) goes through LocalCpi.run")
    var sc = scratch.get
    if (sc == null || sc.n != g.n) { sc = new Scratch(g.n); scratch.set(sc) }
    try {
      start(sc)
      sc.propagate(g, c, eps, sIter, tIter)
      use(sc)
    } finally sc.clear()
  }

  private val scratch = new ThreadLocal[Scratch]

  /** A pull team's four position-order arrays, per thread. A run writes each slot before it reads it. */
  private val pullArrays = new ThreadLocal[Array[Array[Double]]]

  /** The hops of one converging run: phases of a [[Team]] whose units are
    * the chunks of the graph's [[LocalGraph.pullLayout]], claimed hubs
    * (highest positions) first. It works in layout positions: `share(p)`
    * holds x(v)·(1−c)/outdeg(v) of x^(i-1) for v = nodes(p) (0 for a
    * dangling v), `nx` and `rPos` hold x^(i) and r. A chunk sums each
    * position's in-list shares (ascending source ids) into x^(i), adds it to
    * r when the hop accumulates and writes the next share: the push scan's
    * expressions and order, so the run is bit-identical to it (DESIGN.md
    * §2). The caller adds the chunks' partial norms, and re-sums ‖x^(i)‖₁ in
    * ascending id order only where rounding could flip `norm < eps`.
    */
  private final class PullTeam(layout: PullLayout, team: Team, c: Double, eps: Double,
                               arrays: Array[Array[Double]]) {
    private val n = layout.nodes.length
    private val chunks = layout.chunks
    private var share = arrays(0); private var nextShare = arrays(1)
    private val nx = arrays(2); private val rPos = arrays(3)
    private val partials = new Array[Double](chunks)
    /** The same n non-negative terms, summed as the chunks do and in
      * ascending order, give sums that differ by at most about
      * (n + chunks)·ulp(1) of their exact sum; this is 4 times that.
      */
    private val slack = 4.0 * (n + chunks) * Math.ulp(1.0)
    private var acc = false
    private val pullChunk: Int => Unit = k => partials(k) = pull(layout.bounds(k), layout.bounds(k + 1))

    /** r = Σ_{i≥sIter} x^(i) from x^(0) = c·q, to the first hop with ‖x^(i)‖₁ < eps. */
    def run(q: Array[Double], sIter: Int): Array[Double] = {
      start(q, sIter <= 0)
      var iter = 1
      while (!(hop(iter >= sIter) < eps)) iter += 1
      finish()
    }

    /** Writes the shares of x^(0) = c·q, and r = 0 + x^(0) if the window
      * holds iteration 0 (else 0), in layout order: the scratch's expressions.
      */
    private def start(q: Array[Double], acc: Boolean): Unit = team.run(chunks) { k =>
      val nodes = layout.nodes; val outDeg = layout.outDeg
      var p = layout.bounds(k)
      val hi = layout.bounds(k + 1)
      while (p < hi) {
        val xv = q(nodes(p)) * c
        val d = outDeg(p)
        share(p) = if (d > 0) xv * (1.0 - c) / d else 0.0
        rPos(p) = if (acc) 0.0 + xv else 0.0
        p += 1
      }
    }

    /** Returns r by node. Each unit writes one run of node ids, so no two
      * threads write one cache line of r but at the runs' ends.
      */
    private def finish(): Array[Double] = {
      val r = new Array[Double](n)
      team.run(chunks) { k =>
        val position = layout.position
        var v = (n.toLong * k / chunks).toInt
        val hi = (n.toLong * (k + 1) / chunks).toInt
        while (v < hi) { r(v) = rPos(position(v)); v += 1 }
      }
      r
    }

    /** One hop; returns ‖x^(i)‖₁, or a sum of the same terms in another
      * order that lies on the same side of eps.
      */
    private def hop(acc: Boolean): Double = {
      this.acc = acc
      team.run(chunks)(pullChunk)
      val s = share; share = nextShare; nextShare = s
      var norm = 0.0
      var k = 0
      while (k < chunks) { norm += partials(k); k += 1 }
      if (!(math.abs(norm - eps) > slack * math.max(norm, eps))) {
        val position = layout.position
        norm = 0.0
        var v = 0
        while (v < n) { norm += nx(position(v)); v += 1 }
      }
      norm
    }

    /** Pulls layout positions [lo, hi); returns the sum of their x^(i). */
    private def pull(lo: Int, hi: Int): Double = {
      val inOffsets = layout.inOffsets; val sources = layout.sources; val outDeg = layout.outDeg
      val share = this.share; val next = this.nextShare; val nx = this.nx; val r = this.rPos
      val acc = this.acc
      var part = 0.0
      var j = inOffsets(lo)
      var p = lo
      while (p < hi) {
        val end = inOffsets(p + 1)
        var sum = 0.0
        while (j < end) { sum += share(sources(j)); j += 1 }
        nx(p) = sum
        if (acc) r(p) += sum
        val d = outDeg(p)
        next(p) = if (d > 0) sum * (1.0 - c) / d else 0.0
        part += sum
        p += 1
      }
      part
    }
  }

  /** Dense per-thread arrays of one CPI run over n nodes.
    *
    * Invariant: every array is all-zero between runs. A sparse run writes
    * only the nodes listed in `touched`, and [[clear]] resets just those; a
    * dense one may write any node, and [[clear]] fills whole arrays.
    *
    * An ascending frontier adds the terms of each entry in the same order as
    * a full ascending scan, and a zero term changes no sum, so both modes
    * give bit-identical results.
    */
  private[core] final class Scratch(val n: Int) {
    private var x = new Array[Double](n)    // x^(i-1); non-zero only on the frontier
    private var nx = new Array[Double](n)   // x^(i) while it is built
    private val r = new Array[Double](n)    // Σ x^(i) over the window
    private var front = new Array[Int](n)   // the frontier, ascending until the last hop
    private var next = new Array[Int](n)
    private var frontLen = 0
    private val mark = new Array[Int](n)    // 0 = untouched, else 1 + last hop that listed the node
    private val listed = new Array[Long]((n + 63) >>> 6) // a sparse hop's next frontier, one bit per node
    private var listing = false             // true while `listed` may hold a bit
    private val touched = new Array[Int](n) // every node listed so far, in first-touch order
    private var touchedLen = 0
    private var dense = false

    /** True once the run switched to the dense scan. */
    private[core] def isDense: Boolean = dense

    /** Loads q = e_seed. */
    private[core] def startAt(seed: Int): Unit = enlistStart(seed, 1.0)

    /** Loads an arbitrary seed vector q. */
    private[core] def startFrom(q: Array[Double]): Unit = {
      var i = 0
      while (i < n) { if (q(i) != 0.0) enlistStart(i, q(i)); i += 1 }
    }

    private def enlistStart(u: Int, qu: Double): Unit = {
      x(u) = qu; mark(u) = 1
      front(frontLen) = u; frontLen += 1
      touched(touchedLen) = u; touchedLen += 1
    }

    /** Adds scale·r to `out` and returns it. Only r's support is visited
      * until the run went dense.
      */
    private[core] def addTo(out: Array[Double], scale: Double): Array[Double] = {
      if (dense) {
        var i = 0
        while (i < n) { out(i) += r(i) * scale; i += 1 }
      } else {
        var k = 0
        while (k < touchedLen) { val i = touched(k); out(i) += r(i) * scale; k += 1 }
      }
      out
    }

    /** Accumulates r = Σ_{i=sIter}^{tIter} x^(i) from x^(0) = c·q, stopping
      * after the first iteration with ‖x^(i)‖₁ < eps. The hop i = tIter
      * computes no norm: it ends the run whatever the norm is.
      */
    private[LocalCpi] def propagate(g: LocalGraph, c: Double, eps: Double,
                                    sIter: Int, tIter: Int): Unit = {
      if (tIter < 0) return
      var k = 0
      while (k < frontLen) { val u = front(k); x(u) *= c; if (sIter <= 0) r(u) += x(u); k += 1 }
      var iter = 1
      var norm = Double.PositiveInfinity
      while (iter <= tIter && !(norm < eps)) {
        val ascending = !dense // front lists every non-zero of x^(i-1), ascending
        if (!dense) dense = frontOutEdges(g) > g.m * DenseFraction
        val acc = iter >= sIter
        val last = iter == tIter
        norm = if (!dense) sparseHop(g, c, iter + 1, acc, last) else denseHop(g, c, acc, last, ascending)
        iter += 1
      }
    }

    private def frontOutEdges(g: LocalGraph): Long = {
      var sum = 0L
      var k = 0
      while (k < frontLen) { sum += g.outDeg(front(k)); k += 1 }
      sum
    }

    /** One hop over the frontier; the nodes it reaches, marked `tag`, become
      * the next frontier. A hop with a successor sets one bit of `listed` per
      * node it lists and reads the next frontier back from it in ascending
      * order, emptying each word it reads; the norm and r follow that order.
      * The `last` hop lists its nodes in the order it reaches them and
      * returns 0 without a norm.
      */
    private def sparseHop(g: LocalGraph, c: Double, tag: Int, acc: Boolean, last: Boolean): Double = {
      val x = this.x; val nx = this.nx; val r = this.r; val mark = this.mark
      val front = this.front; val next = this.next; val listed = this.listed
      val offsets = g.offsets; val targets = g.targets
      listing = !last
      var nextLen = 0
      var k = 0
      while (k < frontLen) {
        val u = front(k)
        val xu = x(u)
        if (xu != 0.0) {
          var j = offsets(u)
          val end = offsets(u + 1)
          val d = end - j
          if (d > 0) {
            val share = xu * (1.0 - c) / d
            while (j < end) {
              val v = targets(j)
              nx(v) += share
              if (mark(v) != tag) {
                if (mark(v) == 0) { touched(touchedLen) = v; touchedLen += 1 }
                mark(v) = tag
                if (last) next(nextLen) = v else listed(v >>> 6) |= 1L << v
                nextLen += 1
              }
              j += 1
            }
          }
        }
        x(u) = 0.0
        k += 1
      }
      var norm = 0.0
      if (last) {
        if (acc) { k = 0; while (k < nextLen) { val v = next(k); r(v) += nx(v); k += 1 } }
      } else {
        k = 0
        var w = 0
        while (k < nextLen) {
          var bits = listed(w)
          if (bits != 0L) {
            listed(w) = 0L
            while (bits != 0L) {
              val v = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
              bits &= bits - 1
              next(k) = v; k += 1
              norm += nx(v)
              if (acc) r(v) += nx(v)
            }
          }
          w += 1
        }
        listing = false
      }
      this.x = nx; this.nx = x
      this.front = next; this.next = front
      frontLen = nextLen
      norm
    }

    /** One dense hop: pushes every non-zero x(u) in ascending u and returns
      * ‖x^(i)‖₁. The first dense hop (`ascending`) walks the frontier the
      * sparse hops left, zeroing x as it goes; a later one scans all n nodes
      * and fills x after. The `last` hop returns 0 without the norm or the
      * fill: [[clear]] zeroes the arrays. With field reads in the loops, or
      * with the norm and r loops merged, the hop measured a few per cent
      * slower than the plain dense loop.
      */
    private def denseHop(g: LocalGraph, c: Double, acc: Boolean, last: Boolean, ascending: Boolean): Double = {
      val x = this.x; val nx = this.nx; val r = this.r
      val offsets = g.offsets; val targets = g.targets
      if (ascending) {
        val front = this.front
        var k = 0
        while (k < frontLen) {
          val u = front(k)
          push(x(u), u, c, offsets, targets, nx)
          x(u) = 0.0
          k += 1
        }
      } else {
        var u = 0
        while (u < n) { push(x(u), u, c, offsets, targets, nx); u += 1 }
      }
      var u = 0
      if (acc) while (u < n) { r(u) += nx(u); u += 1 }
      if (last) return 0.0
      var norm = 0.0
      u = 0
      while (u < n) { norm += nx(u); u += 1 }
      if (!ascending) Arrays.fill(x, 0.0)
      this.x = nx; this.nx = x
      norm
    }

    /** Adds u's share of xu to each of its out-neighbors in nx; nothing
      * when xu = 0 or u is dangling.
      */
    private def push(xu: Double, u: Int, c: Double, offsets: Array[Int], targets: Array[Int],
                     nx: Array[Double]): Unit =
      if (xu != 0.0) {
        var j = offsets(u)
        val end = offsets(u + 1)
        val d = end - j
        if (d > 0) {
          val share = xu * (1.0 - c) / d
          while (j < end) { nx(targets(j)) += share; j += 1 }
        }
      }

    /** Restores the all-zero invariant. */
    private[LocalCpi] def clear(): Unit = {
      if (dense) {
        Arrays.fill(x, 0.0); Arrays.fill(nx, 0.0); Arrays.fill(r, 0.0); Arrays.fill(mark, 0)
      } else {
        var k = 0
        while (k < touchedLen) {
          val i = touched(k)
          x(i) = 0.0; nx(i) = 0.0; r(i) = 0.0; mark(i) = 0
          k += 1
        }
      }
      if (listing) { Arrays.fill(listed, 0L); listing = false }
      frontLen = 0; touchedLen = 0; dense = false
    }
  }
}
