package repro.metrics

/** Accuracy metrics used throughout the evaluation: L1 norm error
  * (Figs 1c, 5–8) and Spearman rank correlation with ties averaged
  * (Figs 4, 5, 6, 8) — the paper cites Artusi et al. for the latter,
  * which is Pearson correlation over mid-ranks.
  */
object Metrics {

  /** ‖a − b‖₁. */
  def l1(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, "length mismatch")
    var s = 0.0
    var i = 0
    while (i < a.length) { s += math.abs(a(i) - b(i)); i += 1 }
    s
  }

  /** Mid-ranks (average rank for ties), 1-based, ascending by value. */
  def ranks(a: Array[Double]): Array[Double] = {
    val n = a.length
    val idx = Array.range(0, n).sortBy(a(_))
    val out = new Array[Double](n)
    var i = 0
    while (i < n) {
      var j = i
      while (j + 1 < n && a(idx(j + 1)) == a(idx(i))) j += 1
      val avg = (i + j + 2) / 2.0 // average of 1-based ranks i+1 .. j+1
      var k = i
      while (k <= j) { out(idx(k)) = avg; k += 1 }
      i = j + 1
    }
    out
  }

  /** Pearson correlation of two equal-length vectors; 0 if either is
    * constant (degenerate case: correlation undefined).
    */
  def pearson(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, "length mismatch")
    val n = a.length
    val ma = a.sum / n
    val mb = b.sum / n
    var sab = 0.0; var saa = 0.0; var sbb = 0.0
    var i = 0
    while (i < n) {
      val da = a(i) - ma; val db = b(i) - mb
      sab += da * db; saa += da * da; sbb += db * db
      i += 1
    }
    if (saa == 0.0 || sbb == 0.0) 0.0 else sab / math.sqrt(saa * sbb)
  }

  /** Spearman correlation with ties averaged (Pearson over mid-ranks). */
  def spearman(a: Array[Double], b: Array[Double]): Double =
    pearson(ranks(a), ranks(b))
}
