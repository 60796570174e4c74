package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** [[CpiEngine.supersteps]] without Spark: the iterate V is the mass
  * ‖x^(i)‖₁ of a dangling-free graph, c(1-c)^i, and the test counts the
  * engine's hop and norm calls.
  */
class CpiEngineSpec extends AnyFunSuite {
  val c = 0.15

  final case class Calls(sum: Double, hops: Int, norms: Int)

  def run(eps: Double, sIter: Int, tIter: Int): Calls = {
    var hops = 0
    var norms = 0
    val sum = CpiEngine.supersteps[Double](c, eps, sIter, tIter)(
      empty = 0.0,
      seed = c,
      hop = x => { hops += 1; x * (1 - c) },
      norm = x => { norms += 1; x },
      sum = _.sum)
    Calls(sum, hops, norms)
  }

  def mass(sIter: Int, tIter: Int): Double = (sIter to tIter).map(i => c * math.pow(1 - c, i)).sum

  test("a finite window runs no norm on its last superstep") {
    val calls = run(0.0, 0, 3)
    assert(calls.hops == 3 && calls.norms == 2)
    assert(math.abs(calls.sum - mass(0, 3)) < 1e-15)
    for (t <- 1 to 5) assert(run(0.0, 0, t).norms == t - 1, s"tIter $t")
    assert(run(0.0, 0, 0) == Calls(c, 0, 0))
  }

  test("an eps stop still ends a long finite window early") {
    val eps = 1e-3
    // The first i with c(1-c)^i < eps.
    val stop = Iterator.from(1).find(i => c * math.pow(1 - c, i) < eps).get
    val calls = run(eps, 2, 1000)
    assert(calls.hops == stop && calls.norms == stop)
    assert(math.abs(calls.sum - mass(2, stop)) < 1e-15)
  }

  test("an unbounded window runs the norm on every superstep") {
    val eps = 1e-6
    val stop = Iterator.from(1).find(i => c * math.pow(1 - c, i) < eps).get
    val calls = run(eps, 0, Int.MaxValue)
    assert(calls.hops == stop && calls.norms == stop)
    assert(math.abs(calls.sum - mass(0, stop)) < 1e-12)
  }
}
