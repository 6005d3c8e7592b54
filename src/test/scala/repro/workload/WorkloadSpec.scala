package repro.workload

import repro.SparkSpec
import repro.SynthData
import repro.bsp.BspStats
import repro.tag.ValueKey

/** Workload plumbing: generators' determinism and scaling, the Q helpers,
  * and ResultCheck comparison.
  */
class WorkloadSpec extends SparkSpec {

  test("SynthData generators are deterministic in (sf, seed)") {
    val a = SynthData.lineitem(spark, 0.001).collect()
    val b = SynthData.lineitem(spark, 0.001).collect()
    assert(a.sameElements(b))
  }

  test("TPC-H tables scale linearly with SF") {
    assert(SynthData.orders(spark, 0.002).count() * 2 == SynthData.orders(spark, 0.004).count())
  }

  test("TPC-H dimensions are fixed size") {
    assert(SynthData.nation(spark).count() == 25 && SynthData.region(spark).count() == 5)
  }

  test("lineitem foreign keys land inside their referenced domains") {
    val li = SynthData.lineitem(spark, 0.001)
    val nOrders = SynthData.orders(spark, 0.001).count()
    val mx = li.agg(org.apache.spark.sql.functions.max("l_orderkey")).head.getLong(0)
    assert(mx <= nOrders + 1)
  }

  test("TPC-DS facts scale linearly, dimensions sub-linearly") {
    val f1 = DsData.storeSales(spark, 0.004).count()
    val f2 = DsData.storeSales(spark, 0.008).count()
    assert(f2 == 2 * f1)
    val d1 = DsData.nItems(0.004)
    val d2 = DsData.nItems(0.008)
    assert(d2 < 2 * d1 && d2 > d1)
  }

  test("date_dim covers 7 consecutive years with consistent year/moy/qoy") {
    val dd = DsData.dateDim(spark)
    assert(dd.count() == 2557)
    val bad = dd.filter("d_qoy != CAST((d_moy + 2) / 3 AS INT)").count()
    assert(bad == 0)
  }

  test("every TPC-DS fact foreign key has a matching dimension row") {
    val t = DsData.tables(spark, 0.002)
    import spark.implicits._
    val orphan = t("store_sales").join(t("item"),
      $"ss_item_sk" === $"i_item_sk", "left_anti").count()
    assert(orphan == 0)
  }

  test("Q helpers coerce normalized tuple values") {
    val tup = Map[String, Any]("l" -> 5L, "d" -> 2.5,
      "dt" -> ValueKey.DateKey(Q.D("1994-01-01")), "s" -> "x")
    assert(Q.lng(tup, "l") == 5L)
    assert(Q.dbl(tup, "d") == 2.5)
    assert(Q.day(tup, "dt") == Q.D("1994-01-01"))
    assert(Q.str(tup, "s") == "x")
  }

  test("ResultCheck treats 3L and 3.0 as the same value") {
    import spark.implicits._
    val a = Seq((1L, 3L)).toDF("g", "c")
    val b = Seq((1.0, 3.0)).toDF("g", "c")
    ResultCheck.assertSame(a, b)
  }

  test("ResultCheck detects genuine mismatches") {
    import spark.implicits._
    val a = Seq((1L, 3L)).toDF("g", "c")
    val b = Seq((1L, 4L)).toDF("g", "c")
    intercept[IllegalArgumentException](ResultCheck.assertSame(a, b))
  }

  test("ResultCheck ignores row and column order") {
    import spark.implicits._
    val a = Seq((1L, "x"), (2L, "y")).toDF("g", "s")
    val b = Seq(("y", 2L), ("x", 1L)).toDF("s", "g")
    ResultCheck.assertSame(a, b)
  }

  private def table(rows: Any*) = ResultCheck.Table(Seq("v"), rows.map(Seq(_)))

  test("ResultCheck accepts sums that differ in the last bits across a rounding boundary") {
    val (x, y) = (1000.0000005 - 5e-13, 1000.0000005 + 5e-13)
    assert(f"$x%.6f" != f"$y%.6f")
    ResultCheck.assertSame(table(x), table(y))
  }

  test("ResultCheck rejects a 1e-6 relative difference") {
    intercept[IllegalArgumentException](ResultCheck.assertSame(table(1000.0), table(1000.001)))
  }

  test("ResultCheck treats a DuckDB HUGEINT as the same integer as a Long") {
    ResultCheck.assertSame(table(java.math.BigInteger.valueOf(5)), table(5L))
  }

  test("ResultCheck compares dates as epoch days whatever their type") {
    val day = java.time.LocalDate.parse("1998-09-02")
    ResultCheck.assertSame(table(ValueKey.DateKey(day.toEpochDay)), table(java.sql.Date.valueOf(day)))
    ResultCheck.assertSame(table(java.sql.Date.valueOf(day)), table(day))
  }

  test("ResultCheck matches reordered rows whose cells concatenate to the same string") {
    val cols = Seq("a", "b")
    ResultCheck.assertSame(
      ResultCheck.Table(cols, Seq(Seq("a", "bc"), Seq("ab", "c"))),
      ResultCheck.Table(cols, Seq(Seq("ab", "c"), Seq("a", "bc"))))
  }

  test("workload catalogs expose the paper's category mix") {
    val cats = DsQueries.queries.groupBy(_.category).view.mapValues(_.size).toMap
    assert(cats("noagg") == 3 && cats("local") >= 6 && cats("global") >= 4)
    assert(TpchQueries.queries.size == 10)
    assert(TpchQueries.queries.map(_.name).distinct.size == 10)
  }

  test("every query's spec relations exist in the workload tables") {
    val wlT = TpchQueries.workload(spark, 0.001)
    wlT.queries.foreach(q => q.spec.relations.foreach(r => assert(wlT.tables.contains(r))))
    val wlD = DsQueries.workload(spark, 0.001)
    wlD.queries.foreach { q =>
      (q.spec.relations ++ q.blocks.flatMap(_.relations)).foreach(r =>
        assert(wlD.tables.contains(r), s"${q.name}: $r"))
    }
  }

  test("BenchQuery union blocks carry consistent group-by and aggregate alias") {
    for (q <- DsQueries.queries if q.blocks.nonEmpty) {
      assert(q.blocks.forall(_.groupBy == q.spec.groupBy))
      assert(q.blocks.forall(_.aggs.map(_.alias) == q.spec.aggs.map(_.alias)))
    }
  }

  test("BspStats totals equal per-step sums") {
    val s = BspStats(3, Vector(5L, 0L, 2L))
    assert(s.totalMessages == 7L)
  }
}
