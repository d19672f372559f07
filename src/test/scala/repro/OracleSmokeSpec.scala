package repro

import org.apache.spark.sql.functions._

/** Smoke test exercising the DuckDB oracle end-to-end on an edge table, so
  * regressions in the harness itself are caught.
  */
class OracleSmokeSpec extends SparkSpec {

  test("graph edge statistics via the oracle (degree distribution head)") {
    val g = TestGraphs.random(30, 0.3, 17)
    val edges = graph.SparkGraph.fromLocal(spark, g).cache()
    val degDist = edges.select(col("src").as("v"))
      .unionAll(edges.select(col("dst").as("v")))
      .groupBy("v").agg(count(lit(1)).as("deg"))
      .groupBy("deg").agg(count(lit(1)).as("nv"))
    Oracle.assertEquivalent(
      degDist,
      """WITH d AS (
        |  SELECT v, count(*) AS deg FROM (
        |    SELECT src AS v FROM e UNION ALL SELECT dst AS v FROM e
        |  ) GROUP BY v
        |) SELECT deg, count(*) AS nv FROM d GROUP BY deg""".stripMargin,
      "e" -> edges,
    )
  }
}
