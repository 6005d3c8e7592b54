package repro

import org.apache.spark.sql.DataFrame
import repro.workload.{DuckDb, ResultCheck}

/** The DuckDB oracle itself: typed table creation, date/decimal handling,
  * result comparison, and mismatch detection.
  */
class OracleSpec extends SparkSpec {
  import OracleSpec.duckdb

  test("oracle agrees on a typed aggregation with dates and doubles") {
    import spark.implicits._
    val df = Seq(
      (1L, 2.5, java.sql.Date.valueOf("2020-01-01"), "a"),
      (2L, 1.5, java.sql.Date.valueOf("2020-06-01"), "a"),
      (3L, 4.0, java.sql.Date.valueOf("2021-01-01"), "b"),
    ).toDF("k", "v", "d", "g")
    val sql = """SELECT g, CAST(SUM(v) AS DOUBLE) AS s, CAST(COUNT(*) AS DOUBLE) AS c
                |FROM t WHERE CAST(d AS DATE) < DATE '2020-12-31' GROUP BY g""".stripMargin
    df.createOrReplaceTempView("t")
    ResultCheck.assertSame(spark.sql(sql), duckdb(sql, "t" -> df))
  }

  test("oracle flags a wrong result") {
    import spark.implicits._
    val df = Seq((1L, 10.0), (2L, 20.0)).toDF("k", "v")
    df.createOrReplaceTempView("t2")
    val wrong = spark.sql("SELECT CAST(SUM(v) + 1 AS DOUBLE) AS s FROM t2")
    intercept[IllegalArgumentException] {
      ResultCheck.assertSame(wrong, duckdb("SELECT CAST(SUM(v) AS DOUBLE) AS s FROM t2", "t2" -> df))
    }
  }

  test("oracle flags a column-name mismatch") {
    import spark.implicits._
    val df = Seq((1L, 10.0)).toDF("k", "v")
    df.createOrReplaceTempView("t3")
    val renamed = spark.sql("SELECT CAST(SUM(v) AS DOUBLE) AS other FROM t3")
    intercept[IllegalArgumentException] {
      ResultCheck.assertSame(renamed, duckdb("SELECT CAST(SUM(v) AS DOUBLE) AS s FROM t3", "t3" -> df))
    }
  }

  test("oracle handles NULLs on both sides") {
    import spark.implicits._
    val df = Seq((1L, Some(2.0)), (2L, None)).toDF("k", "v")
    df.createOrReplaceTempView("t4")
    val sql = "SELECT k, v FROM t4"
    ResultCheck.assertSame(spark.sql(sql), duckdb(sql, "t4" -> df))
  }

  test("oracle handles joins over two tables") {
    import spark.implicits._
    val a = Seq((1L, "x"), (2L, "y")).toDF("id", "s")
    val b = Seq((1L, 5.0), (1L, 7.0)).toDF("id", "v")
    a.createOrReplaceTempView("ta"); b.createOrReplaceTempView("tb")
    val sql = """SELECT s, CAST(SUM(v) AS DOUBLE) AS total
                |FROM ta, tb WHERE ta.id = tb.id GROUP BY s""".stripMargin
    ResultCheck.assertSame(spark.sql(sql), duckdb(sql, "ta" -> a, "tb" -> b))
  }
}

object OracleSpec {

  /** Load `tables` into a fresh DuckDB and return the result of `sql`. */
  def duckdb(sql: String, tables: (String, DataFrame)*): ResultCheck.Table = {
    val db = new DuckDb
    try {
      tables.foreach { case (name, df) => db.load(name, df) }
      db.query(sql)
    } finally db.close()
  }
}

/** Bench harness formatting helpers (no Spark needed). */
class BenchFormatSpec extends org.scalatest.funsuite.AnyFunSuite {
  import repro.bench.BenchHarness._

  test("fmt scales precision with magnitude") {
    assert(fmt(123.456) == "123.5")
    assert(fmt(3.14159) == "3.14")
    assert(fmt(0.01234) == "0.012")
  }

  test("speedup formats the ratio of base to mine") {
    assert(speedup(10.0, 2.0) == "5.0x")
  }

  test("table renders a markdown grid") {
    val s = table("T", Seq("a", "b"), Seq(Seq("1", "2")))
    assert(s.contains("| a | b |") && s.contains("| 1 | 2 |") && s.contains("### T"))
  }

  test("the SF ladder matches the paper's three points") {
    assert(Sfs.map(_._1) == Seq("SF-30", "SF-50", "SF-75"))
    assert(Sfs.map(_._2) == Seq(0.005, 0.01, 0.02))
  }
}
