package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.graph.GraphGen

/** DuckDB oracle checks for the relational building blocks of CPI/TPA:
  * degree normalization, the propagation superstep as a join–aggregate,
  * the three-part merge, and graph statistics. A broken Spark
  * aggregation or join would be caught here by an independent engine.
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._
  val c = 0.15

  private lazy val edges = GraphGen.edgeFrame(spark, GraphGen.rmat(7, 600, 23)).cache()
  private lazy val norm = GraphGen.normalize(edges).cache()

  test("oracle: out-degree normalization weights") {
    Oracle.assertEquivalent(
      norm,
      """SELECT e.src AS src, e.dst AS dst, 1.0 / d.cnt AS w
        |FROM edges e
        |JOIN (SELECT src, COUNT(*) AS cnt FROM edges GROUP BY src) d
        |  ON e.src = d.src""".stripMargin,
      "edges" -> edges)
  }

  test("oracle: graph statistics (m, distinct sources)") {
    val stats = edges.agg(
      count(lit(1)).as("m"),
      countDistinct(col("src")).as("nsrc"))
    Oracle.assertEquivalent(
      stats,
      "SELECT COUNT(*) AS m, COUNT(DISTINCT src) AS nsrc FROM edges",
      "edges" -> edges)
  }

  test("oracle: in-degree distribution") {
    val indeg = edges.groupBy("dst").agg(count(lit(1)).as("indeg"))
    Oracle.assertEquivalent(
      indeg,
      "SELECT dst AS dst, COUNT(*) AS indeg FROM edges GROUP BY dst",
      "edges" -> edges)
  }

  test("oracle: one CPI superstep is the join–aggregate SQL") {
    val seed = 5L
    val x0 = Seq((seed, c)).toDF("node", "x")
    val x1 = Cpi.run(spark, norm, Cpi.unitSeed(spark, seed), c, 0.0, 1, 1)
    Oracle.assertEquivalent(
      x1,
      s"""SELECT e.dst AS node,
         |       SUM(CAST(e.w AS DOUBLE) * CAST(x.x AS DOUBLE)) * ${1 - c} AS score
         |FROM norm e JOIN x0 x ON e.src = x.node
         |GROUP BY e.dst""".stripMargin,
      "norm" -> norm, "x0" -> x0)
  }

  test("oracle: two CPI supersteps are the nested join–aggregate SQL") {
    val seed = 9L
    val x0 = Seq((seed, c)).toDF("node", "x")
    val x2 = Cpi.run(spark, norm, Cpi.unitSeed(spark, seed), c, 0.0, 2, 2)
    Oracle.assertEquivalent(
      x2,
      s"""WITH x1 AS (
         |  SELECT e.dst AS node,
         |         SUM(CAST(e.w AS DOUBLE) * CAST(x.x AS DOUBLE)) * ${1 - c} AS x
         |  FROM norm e JOIN x0 x ON e.src = x.node GROUP BY e.dst)
         |SELECT e.dst AS node,
         |       SUM(CAST(e.w AS DOUBLE) * x.x) * ${1 - c} AS score
         |FROM norm e JOIN x1 x ON e.src = x.node
         |GROUP BY e.dst""".stripMargin,
      "norm" -> norm, "x0" -> x0)
  }

  test("oracle: accumulated window [0,2] is the SQL union of supersteps") {
    val seed = 3L
    val x0 = Seq((seed, c)).toDF("node", "x")
    val acc = Cpi.run(spark, norm, Cpi.unitSeed(spark, seed), c, 0.0, 0, 2)
    Oracle.assertEquivalent(
      acc,
      s"""WITH x1 AS (
         |  SELECT e.dst AS node,
         |         SUM(CAST(e.w AS DOUBLE) * CAST(x.x AS DOUBLE)) * ${1 - c} AS x
         |  FROM norm e JOIN x0 x ON e.src = x.node GROUP BY e.dst),
         |x2 AS (
         |  SELECT e.dst AS node, SUM(CAST(e.w AS DOUBLE) * x.x) * ${1 - c} AS x
         |  FROM norm e JOIN x1 x ON e.src = x.node GROUP BY e.dst)
         |SELECT node, SUM(x) AS score FROM (
         |  SELECT node, CAST(x AS DOUBLE) AS x FROM x0
         |  UNION ALL SELECT node, x FROM x1
         |  UNION ALL SELECT node, x FROM x2) GROUP BY node""".stripMargin,
      "norm" -> norm, "x0" -> x0)
  }

  test("oracle: TPA merge (scaled family + stranger) is the SQL union-sum") {
    val s = 3; val t = 8
    val fam = Cpi.run(spark, norm, Cpi.unitSeed(spark, 2L), c, 0.0, 0, s - 1)
      .withColumnRenamed("score", "f").cache()
    val str = Cpi.run(spark, norm, Cpi.uniformSeed(spark, 128), c, 0.0, t, t + 20)
      .withColumnRenamed("score", "g").cache()
    val scale = 1.0 + Tpa.neighborFactor(c, s, t)
    val merged = fam.select(col("node"), (col("f") * scale).as("score"))
      .unionByName(str.select(col("node"), col("g").as("score")))
      .groupBy("node").agg(sum("score").as("score"))
    Oracle.assertEquivalent(
      merged,
      s"""SELECT node, SUM(v) AS score FROM (
         |  SELECT node, CAST(f AS DOUBLE) * $scale AS v FROM fam
         |  UNION ALL SELECT node, CAST(g AS DOUBLE) AS v FROM str)
         |GROUP BY node""".stripMargin,
      "fam" -> fam, "str" -> str)
  }

  test("oracle: dangling detection anti-join") {
    val raw = GraphGen.edgeFrame(spark, TestGraphs.withDangling(100, 500, 3))
    val dangling = spark.range(100).toDF("id")
      .join(raw.select(col("src").as("id")).distinct(), Seq("id"), "left_anti")
    assert(dangling.collect().map(_.getLong(0)).toSeq == Seq(99L))
    Oracle.assertEquivalent(
      dangling,
      """SELECT r.id AS id FROM rng r
        |WHERE NOT EXISTS (SELECT 1 FROM edges e WHERE e.src = r.id)""".stripMargin,
      "rng" -> spark.range(100).toDF("id"), "edges" -> raw)
  }
}
