package repro.perfbench

import scala.collection.mutable

/** What one run prints: metrics by name with unit, plus the count of
  * attempted operations and of those that threw or failed an output check.
  */
final class Report {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private var attempted = 0L
  private var failed = 0L
  private var shown = 0

  def put(name: String, value: Double, unit: String): Unit = {
    require(!metrics.contains(name), s"metric $name reported twice")
    require(!value.isNaN && !value.isInfinite, s"metric $name is $value")
    metrics(name) = (value, unit)
  }

  /** Counts one attempted operation. It fails when `op` throws or returns
    * a problem description.
    */
  def attempt(what: => String)(op: => Option[String]): Unit = {
    attempted += 1
    val problem =
      try op
      catch { case e: Exception => Some(s"threw $e") }
    problem.foreach { p =>
      failed += 1
      if (shown < 10) { Console.err.println(s"FAILED $what: $p"); shown += 1 }
    }
  }

  def json: String = {
    val ms = metrics.map { case (k, (v, u)) => s""""$k": {"value": $v, "unit": "$u"}""" }
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Output checks on TPA results (Lemma 3 and Theorem 2 of the paper). */
object Checks {

  /** ‖r‖₁ of a TPA vector is 1 up to the stranger's CPI truncation: CPI
    * stops after the first iterate with ‖x^(i)‖₁ = c(1-c)^i < ε, so the
    * dropped tail is below ε(1-c)/c.
    */
  def massTolerance(c: Double, eps: Double): Double = eps * (1 - c) / c + 1e-9

  def vector(r: Array[Double], n: Int, c: Double, eps: Double): Option[String] =
    if (r.length != n) Some(s"length ${r.length}, expected $n")
    else {
      var mass = 0.0
      var i = 0
      while (i < n) { mass += math.abs(r(i)); i += 1 }
      if (math.abs(mass - 1.0) <= massTolerance(c, eps)) None
      else Some(s"L1 mass $mass, expected 1 within ${massTolerance(c, eps)}")
    }

  /** The family part holds the first S terms of the CPI series, so its
    * mass is Σ_{i<S} c(1-c)^i = 1 − (1-c)^S.
    */
  def family(f: Array[Double], n: Int, c: Double, s: Int, eps: Double): Option[String] =
    if (f.length != n) Some(s"length ${f.length}, expected $n")
    else {
      val mass = f.iterator.map(math.abs).sum
      val want = 1 - math.pow(1 - c, s)
      if (math.abs(mass - want) <= massTolerance(c, eps)) None
      else Some(s"family L1 mass $mass, expected $want within ${massTolerance(c, eps)}")
    }

  /** Theorem 2: ‖r_exact − r_TPA‖₁ ≤ 2(1-c)^S, plus both truncations. */
  def bound(l1: Double, c: Double, s: Int, eps: Double): Option[String] = {
    val limit = repro.core.Tpa.accuracyBound(c, s) + massTolerance(c, eps) + massTolerance(c, 1e-9)
    if (l1 <= limit) None else Some(s"L1 vs exact $l1 exceeds the Theorem 2 bound $limit")
  }

  def all(problems: Option[String]*): Option[String] = {
    val ps = problems.flatten
    if (ps.isEmpty) None else Some(ps.mkString("; "))
  }
}
