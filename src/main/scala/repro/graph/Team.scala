package repro.graph

import java.util.concurrent.ForkJoinPool
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

/** The calling thread plus common-pool helpers, which run one phase after
  * another: [[PullLayout.build]]'s passes over source blocks, then the
  * chunks of `repro.core.LocalCpi`'s pull hops. A phase's units are claimed
  * one at a time from one atomic counter, the highest unclaimed unit first,
  * by the caller too, so the caller can run every unit alone: it waits only
  * for units a running helper claimed, never for a helper the pool has not
  * started. The helpers are sent when the team is made and stay until
  * [[stop]], so their start overlaps the caller's own work.
  */
private[repro] final class Team(helpers: Int) {
  /** The current phase's number in the high 32 bits, the number of its
    * units not yet claimed in the low 32. Phase 0 has none.
    */
  private val work = new AtomicLong
  private val finished = new AtomicInteger
  private var body: Int => Unit = null
  @volatile private var failure: Throwable = null
  @volatile private var stopped = false

  locally {
    var k = 0
    while (k < helpers) { ForkJoinPool.commonPool().execute(() => help()); k += 1 }
  }

  /** The threads that run a phase: the caller and its helpers. */
  val threads: Int = helpers + 1

  /** Runs `body(k)` for every k in [0, units), the highest k first, and
    * returns once each has finished. A unit that threw is rethrown once
    * every claimed unit has finished, so no helper writes after it; the
    * team is then spent, and its owner stops it.
    */
  def run(units: Int)(body: Int => Unit): Unit = {
    this.body = body
    finished.set(0)
    work.set(((work.get >>> 32) + 1) << 32 | units)
    while (claim()) {}
    while (finished.get < units) Thread.onSpinWait()
    if (failure != null) throw failure
  }

  /** A helper leaves once it sees this; one the pool starts later, at once. */
  def stop(): Unit = stopped = true

  private def help(): Unit = while (!stopped) if (!claim()) Thread.onSpinWait()

  /** Claims and runs one unit of the current phase, the highest unclaimed
    * one, or retries a lost claim; false once the phase has no unclaimed
    * unit.
    */
  private def claim(): Boolean = {
    val w = work.get
    val left = w.toInt
    if (left == 0) return false
    if (work.compareAndSet(w, w - 1)) {
      try body(left - 1)
      catch { case e: Throwable => failure = e }
      finished.incrementAndGet()
    }
    true
  }
}

private[repro] object Team {

  /** A team gets helpers only on a graph of more edges than this: below it
    * their start and the per-phase claims cost more than the passes they
    * would split, and the caller alone builds and pulls (DESIGN.md §2).
    */
  val MinEdges: Int = 1 << 14

  /** The common-pool helpers of a team: one per further core. */
  private val Helpers = Runtime.getRuntime.availableProcessors - 1

  /** A team for `g`: the caller and [[Helpers]] helpers above [[MinEdges]]
    * edges, the caller alone at or below.
    */
  def apply(g: LocalGraph): Team = new Team(if (g.m > MinEdges) Helpers else 0)
}
