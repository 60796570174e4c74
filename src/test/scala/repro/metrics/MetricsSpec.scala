package repro.metrics

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.TestGraphs

/** L1 and Spearman (mid-rank) metric correctness, including the
  * closed-form Spearman formula in the no-ties case and invariance
  * properties sampled with ScalaCheck generators (scalatestplus is not
  * in the offline cache, so sampling is driven directly).
  */
class MetricsSpec extends AnyFunSuite {

  /** Deterministically sample `n` values from a ScalaCheck generator. */
  private def forAllSamples[T](gen: Gen[T], n: Int = 60)(f: T => Unit): Unit = {
    val params = Gen.Parameters.default
    var seed = Seed(987654321L)
    var i = 0
    while (i < n) {
      gen.apply(params, seed).foreach(f)
      seed = seed.next
      i += 1
    }
  }

  val vecGen: Gen[Array[Double]] =
    Gen.chooseNum(5, 60).flatMap(n =>
      Gen.listOfN(n, Gen.chooseNum(-100.0, 100.0)).map(_.toArray))

  test("l1 of identical vectors is 0") {
    forAllSamples(vecGen) { a => assert(Metrics.l1(a, a) == 0.0) }
  }

  test("l1 is symmetric") {
    forAllSamples(vecGen) { a =>
      val b = a.map(_ * 0.5 + 1)
      assert(math.abs(Metrics.l1(a, b) - Metrics.l1(b, a)) < 1e-12)
    }
  }

  test("l1 satisfies the triangle inequality") {
    forAllSamples(vecGen) { a =>
      val b = a.map(_ * 0.3 - 2); val cc = a.map(x => math.sin(x))
      assert(Metrics.l1(a, cc) <= Metrics.l1(a, b) + Metrics.l1(b, cc) + 1e-9)
    }
  }

  test("l1 known value") {
    assert(Metrics.l1(Array(1.0, 2.0, -1.0), Array(0.0, 4.0, 1.0)) == 5.0)
  }

  test("l1 rejects length mismatch") {
    intercept[IllegalArgumentException](Metrics.l1(Array(1.0), Array(1.0, 2.0)))
  }

  test("norm1 known value") {
    assert(TestGraphs.norm1(Array(1.0, -2.0, 3.0)) == 6.0)
  }

  test("ranks without ties are a permutation of 1..n") {
    val r = Metrics.ranks(Array(10.0, 30.0, 20.0))
    assert(r.toSeq == Seq(1.0, 3.0, 2.0))
  }

  test("ranks sum to n(n+1)/2 regardless of ties") {
    forAllSamples(vecGen) { a =>
      val withTies = a.map(x => math.round(x / 20.0).toDouble)
      val n = withTies.length
      assert(math.abs(Metrics.ranks(withTies).sum - n * (n + 1) / 2.0) < 1e-9)
    }
  }

  test("ranks average ties") {
    val r = Metrics.ranks(Array(5.0, 5.0, 1.0))
    assert(r.toSeq == Seq(2.5, 2.5, 1.0))
  }

  test("ranks on all-equal input are all (n+1)/2") {
    val r = Metrics.ranks(Array.fill(5)(3.3))
    assert(r.forall(_ == 3.0))
  }

  test("spearman of a vector with itself is 1") {
    forAllSamples(vecGen) { a =>
      if (a.distinct.length > 1)
        assert(math.abs(Metrics.spearman(a, a) - 1.0) < 1e-12)
    }
  }

  test("spearman of a vector with its negation is -1 (no ties)") {
    val a = Array(3.0, 1.0, 4.0, 1.5, 9.0, 2.6)
    assert(math.abs(Metrics.spearman(a, a.map(-_)) + 1.0) < 1e-12)
  }

  test("spearman is invariant under strictly monotone transforms") {
    forAllSamples(vecGen) { a =>
      if (a.distinct.length > 1) {
        val b = a.map(x => math.exp(x / 100.0))
        assert(math.abs(Metrics.spearman(a, b) - 1.0) < 1e-9)
      }
    }
  }

  test("spearman lies in [-1, 1]") {
    forAllSamples(Gen.zip(vecGen, vecGen)) { case (a, b) =>
      val n = math.min(a.length, b.length)
      val s = Metrics.spearman(a.take(n), b.take(n))
      assert(s >= -1.0 - 1e-12 && s <= 1.0 + 1e-12)
    }
  }

  test("spearman matches 1 - 6Σd²/(n(n²-1)) when there are no ties") {
    forAllSamples(Gen.chooseNum(5, 40)) { n =>
      val rng = new scala.util.Random(n)
      val a = Array.fill(n)(rng.nextDouble())
      val b = Array.fill(n)(rng.nextDouble())
      if (a.distinct.length == n && b.distinct.length == n) {
        val ra = Metrics.ranks(a); val rb = Metrics.ranks(b)
        val d2 = ra.zip(rb).map { case (x, y) => (x - y) * (x - y) }.sum
        val closed = 1.0 - 6.0 * d2 / (n.toDouble * (n.toDouble * n - 1))
        assert(math.abs(Metrics.spearman(a, b) - closed) < 1e-9)
      }
    }
  }

  test("spearman of constant vector is 0 (degenerate case)") {
    assert(Metrics.spearman(Array.fill(4)(1.0), Array(1.0, 2.0, 3.0, 4.0)) == 0.0)
  }

  test("pearson of perfectly linear data is 1") {
    val a = Array(1.0, 2.0, 3.0, 4.0)
    assert(math.abs(Metrics.pearson(a, a.map(_ * 2 + 3)) - 1.0) < 1e-12)
  }

  test("pearson is invariant to affine rescaling of either argument") {
    forAllSamples(vecGen) { a =>
      if (a.distinct.length > 1) {
        val b = a.map(x => x * x) // arbitrary second vector
        val p1 = Metrics.pearson(a, b)
        val p2 = Metrics.pearson(a.map(_ * 3 + 7), b)
        assert(math.abs(p1 - p2) < 1e-9)
      }
    }
  }
}
