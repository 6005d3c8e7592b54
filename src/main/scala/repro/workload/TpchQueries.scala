package repro.workload

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core._
import repro.tag.Tup
import repro.workload.Q._

/** TPC-H-lite workload (DESIGN.md substitutions #2/#4): 10 queries covering
  * every category the paper analyzes — GA scan (q1), LA joins (q3, q10,
  * q12), EXISTS semijoin (q4), the 5-way cycle (q5), scalar aggregation
  * (q6, q14, q19), correlated subquery (q17).
  */
object TpchQueries {

  /** Attribute columns materialized as TAG attribute vertices: join keys and
    * group-by attributes (§8.2: integer keys + grouping/filter strings; no
    * floats, no free text).
    */
  val attrCols: Map[String, Seq[String]] = Map(
    "lineitem" -> Seq("l_orderkey", "l_partkey", "l_suppkey", "l_shipmode"),
    "orders"   -> Seq("o_orderkey", "o_custkey"),
    "customer" -> Seq("c_custkey", "c_nationkey"),
    "part"     -> Seq("p_partkey"),
    "supplier" -> Seq("s_suppkey", "s_nationkey"),
    "nation"   -> Seq("n_nationkey", "n_regionkey", "n_name"),
    "region"   -> Seq("r_regionkey"),
  )

  def workload(spark: SparkSession, sf: Double): Workload = Workload(
    "tpch",
    Map(
      "lineitem" -> SynthData.lineitem(spark, sf),
      "orders"   -> SynthData.orders(spark, sf),
      "customer" -> SynthData.customer(spark, sf),
      "part"     -> SynthData.part(spark, sf),
      "supplier" -> SynthData.supplier(spark, sf),
      "nation"   -> SynthData.nation(spark),
      "region"   -> SynthData.region(spark),
    ),
    attrCols,
    queries,
  )

  // shared join attributes
  private val orderkey = JoinAttr("orderkey", Map("lineitem" -> "l_orderkey", "orders" -> "o_orderkey"))
  private val custkey  = JoinAttr("custkey", Map("orders" -> "o_custkey", "customer" -> "c_custkey"))
  private val partkey  = JoinAttr("partkey", Map("lineitem" -> "l_partkey", "part" -> "p_partkey"))
  private val suppkey  = JoinAttr("suppkey", Map("lineitem" -> "l_suppkey", "supplier" -> "s_suppkey"))
  private val nationkey = JoinAttr("nationkey",
    Map("customer" -> "c_nationkey", "supplier" -> "s_nationkey", "nation" -> "n_nationkey"))
  private val regionkey = JoinAttr("regionkey", Map("nation" -> "n_regionkey", "region" -> "r_regionkey"))

  /** `lo <= c < hi` on the date column `c`. The literals are parsed here,
    * once per query definition, not once per tuple.
    */
  private def dayIn(c: String, lo: String, hi: String): Tup => Boolean = {
    val (from, until) = (D(lo), D(hi))
    t => { val d = day(t, c); d >= from && d < until }
  }

  private def revenue = AggSpec(AggFunc.Sum,
    t => dbl(t, "l_extendedprice") * (1 - dbl(t, "l_discount")), "revenue")

  val queries: Seq[BenchQuery] = Seq(

    // ---------------------------------------------------------- q1: GA scan
    BenchQuery("q1", "global",
      QuerySpec(
        relations = Seq("lineitem"), joins = Nil,
        tupleFilter = Map("lineitem" -> { val hi = D("1998-09-01"); t => day(t, "l_shipdate") <= hi }),
        groupBy = Seq("l_returnflag", "l_linestatus"),
        aggs = Seq(
          AggSpec(AggFunc.Sum, dbl(_, "l_quantity"), "sum_qty"),
          AggSpec(AggFunc.Sum, dbl(_, "l_extendedprice"), "sum_base_price"),
          AggSpec(AggFunc.Sum, t => dbl(t, "l_extendedprice") * (1 - dbl(t, "l_discount")), "sum_disc_price"),
          AggSpec(AggFunc.Avg, dbl(_, "l_quantity"), "avg_qty"),
          AggSpec(AggFunc.Count, _ => 1.0, "count_order"),
        ),
        aggMode = AggMode.Global),
      """SELECT l_returnflag, l_linestatus,
        |  CAST(SUM(l_quantity) AS DOUBLE) AS sum_qty,
        |  CAST(SUM(l_extendedprice) AS DOUBLE) AS sum_base_price,
        |  CAST(SUM(l_extendedprice * (1 - l_discount)) AS DOUBLE) AS sum_disc_price,
        |  CAST(AVG(l_quantity) AS DOUBLE) AS avg_qty,
        |  CAST(COUNT(*) AS DOUBLE) AS count_order
        |FROM lineitem WHERE CAST(l_shipdate AS DATE) <= DATE '1998-09-01'
        |GROUP BY l_returnflag, l_linestatus""".stripMargin),

    // ------------------------------------------------------------- q3: LA
    BenchQuery("q3", "local",
      QuerySpec(
        relations = Seq("customer", "orders", "lineitem"),
        joins = Seq(custkey, orderkey),
        tupleFilter = {
          val d = D("1995-03-15")
          Map(
            "customer" -> (t => str(t, "c_mktsegment") == "BUILDING"),
            "orders"   -> (t => day(t, "o_orderdate") < d),
            "lineitem" -> (t => day(t, "l_shipdate") > d))
        },
        carry = Map("orders" -> Seq("o_orderdate"), "lineitem" -> Seq("l_extendedprice", "l_discount")),
        groupBy = Seq("orderkey", "o_orderdate"),
        laAttr = Some("orderkey"),
        aggs = Seq(revenue),
        aggMode = AggMode.Local,
        rootRel = Some("orders")),
      """SELECT l_orderkey AS orderkey, CAST(o_orderdate AS DATE) AS o_orderdate,
        |  CAST(SUM(l_extendedprice * (1 - l_discount)) AS DOUBLE) AS revenue
        |FROM customer, orders, lineitem
        |WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey
        |  AND CAST(o_orderdate AS DATE) < DATE '1995-03-15'
        |  AND CAST(l_shipdate AS DATE) > DATE '1995-03-15'
        |GROUP BY l_orderkey, o_orderdate""".stripMargin),

    // ------------------------------------------- q4: EXISTS semijoin + GA
    BenchQuery("q4", "global",
      QuerySpec(
        relations = Seq("lineitem", "orders"),
        joins = Seq(orderkey),
        tupleFilter = Map(
          "orders"   -> dayIn("o_orderdate", "1993-07-01", "1993-10-01"),
          "lineitem" -> (t => dbl(t, "l_quantity") > 45)),
        carry = Map("orders" -> Seq("o_orderstatus")),
        groupBy = Seq("o_orderstatus"),
        aggs = Seq(AggSpec(AggFunc.Count, _ => 1.0, "order_count")),
        aggMode = AggMode.Global,
        rootRel = Some("orders"),
        semiJoinOnly = true),
      """SELECT o_orderstatus, CAST(COUNT(*) AS DOUBLE) AS order_count
        |FROM orders
        |WHERE CAST(o_orderdate AS DATE) >= DATE '1993-07-01'
        |  AND CAST(o_orderdate AS DATE) < DATE '1993-10-01'
        |  AND EXISTS (SELECT 1 FROM lineitem
        |              WHERE l_orderkey = o_orderkey AND CAST(l_quantity AS DOUBLE) > 45)
        |GROUP BY o_orderstatus""".stripMargin),

    // ---------------------------------------------------- q5: 5-way cycle
    BenchQuery("q5", "local",
      QuerySpec(
        relations = Seq("customer", "orders", "lineitem", "supplier", "nation", "region"),
        joins = Seq(custkey, orderkey, suppkey, nationkey, regionkey,
          JoinAttr("n_name", Map("nation" -> "n_name"))),
        tupleFilter = Map(
          "orders" -> dayIn("o_orderdate", "1994-01-01", "1995-01-01"),
          "region" -> (t => str(t, "r_name") == "REGION_1")),
        carry = Map("lineitem" -> Seq("l_extendedprice", "l_discount"),
          "supplier" -> Seq("s_nationkey")),
        groupBy = Seq("n_name"),
        laAttr = Some("n_name"),
        aggs = Seq(revenue),
        aggMode = AggMode.Local),
      """SELECT n_name, CAST(SUM(l_extendedprice * (1 - l_discount)) AS DOUBLE) AS revenue
        |FROM customer, orders, lineitem, supplier, nation, region
        |WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey
        |  AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey
        |  AND n_regionkey = r_regionkey AND r_name = 'REGION_1'
        |  AND CAST(o_orderdate AS DATE) >= DATE '1994-01-01'
        |  AND CAST(o_orderdate AS DATE) < DATE '1995-01-01'
        |GROUP BY n_name""".stripMargin),

    // ------------------------------------------------------ q6: scalar scan
    BenchQuery("q6", "scalar",
      QuerySpec(
        relations = Seq("lineitem"), joins = Nil,
        tupleFilter = Map("lineitem" -> {
          val shipped = dayIn("l_shipdate", "1994-01-01", "1995-01-01")
          t => shipped(t) &&
            dbl(t, "l_discount") >= 0.05 && dbl(t, "l_discount") <= 0.07 && dbl(t, "l_quantity") < 24
        }),
        aggs = Seq(AggSpec(AggFunc.Sum, t => dbl(t, "l_extendedprice") * dbl(t, "l_discount"), "revenue")),
        aggMode = AggMode.Scalar),
      """SELECT CAST(SUM(l_extendedprice * l_discount) AS DOUBLE) AS revenue
        |FROM lineitem
        |WHERE CAST(l_shipdate AS DATE) >= DATE '1994-01-01'
        |  AND CAST(l_shipdate AS DATE) < DATE '1995-01-01'
        |  AND CAST(l_discount AS DOUBLE) BETWEEN 0.05 AND 0.07
        |  AND CAST(l_quantity AS DOUBLE) < 24""".stripMargin),

    // ------------------------------------------------------------ q10: LA
    BenchQuery("q10", "local",
      QuerySpec(
        relations = Seq("customer", "orders", "lineitem"),
        joins = Seq(custkey, orderkey),
        tupleFilter = Map(
          "orders"   -> dayIn("o_orderdate", "1993-10-01", "1994-01-01"),
          "lineitem" -> (t => str(t, "l_returnflag") == "R")),
        carry = Map("customer" -> Seq("c_acctbal"), "lineitem" -> Seq("l_extendedprice", "l_discount")),
        groupBy = Seq("custkey", "c_acctbal"),
        laAttr = Some("custkey"),
        aggs = Seq(revenue),
        aggMode = AggMode.Local,
        rootRel = Some("customer")),
      """SELECT c_custkey AS custkey, CAST(c_acctbal AS DOUBLE) AS c_acctbal,
        |  CAST(SUM(l_extendedprice * (1 - l_discount)) AS DOUBLE) AS revenue
        |FROM customer, orders, lineitem
        |WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
        |  AND CAST(o_orderdate AS DATE) >= DATE '1993-10-01'
        |  AND CAST(o_orderdate AS DATE) < DATE '1994-01-01'
        |  AND l_returnflag = 'R'
        |GROUP BY c_custkey, c_acctbal""".stripMargin),

    // ------------------------------------- q12: LA on a non-key attribute
    BenchQuery("q12", "local",
      QuerySpec(
        relations = Seq("orders", "lineitem"),
        joins = Seq(orderkey, JoinAttr("l_shipmode", Map("lineitem" -> "l_shipmode"))),
        tupleFilter = Map(
          "lineitem" -> dayIn("l_shipdate", "1994-01-01", "1995-01-01")),
        attrFilter = Map("l_shipmode" -> (v => v == "MAIL" || v == "SHIP")),
        carry = Map("orders" -> Seq("o_totalprice")),
        groupBy = Seq("l_shipmode"),
        laAttr = Some("l_shipmode"),
        aggs = Seq(
          AggSpec(AggFunc.Sum, t => if (dbl(t, "o_totalprice") > 100000) 1.0 else 0.0, "high_count"),
          AggSpec(AggFunc.Count, _ => 1.0, "total_count")),
        aggMode = AggMode.Local,
        rootRel = Some("lineitem")),
      """SELECT l_shipmode,
        |  CAST(SUM(CASE WHEN CAST(o_totalprice AS DOUBLE) > 100000 THEN 1 ELSE 0 END) AS DOUBLE) AS high_count,
        |  CAST(COUNT(*) AS DOUBLE) AS total_count
        |FROM orders, lineitem
        |WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
        |  AND CAST(l_shipdate AS DATE) >= DATE '1994-01-01'
        |  AND CAST(l_shipdate AS DATE) < DATE '1995-01-01'
        |GROUP BY l_shipmode""".stripMargin),

    // --------------------------------------------------------- q14: scalar
    BenchQuery("q14", "scalar",
      QuerySpec(
        relations = Seq("lineitem", "part"),
        joins = Seq(partkey),
        tupleFilter = Map(
          "lineitem" -> dayIn("l_shipdate", "1995-09-01", "1995-10-01")),
        carry = Map("lineitem" -> Seq("l_extendedprice", "l_discount"), "part" -> Seq("p_type")),
        aggs = Seq(
          AggSpec(AggFunc.Sum,
            t => if (str(t, "p_type") == "PROMO") dbl(t, "l_extendedprice") * (1 - dbl(t, "l_discount")) else 0.0,
            "promo_revenue"),
          AggSpec(AggFunc.Sum, t => dbl(t, "l_extendedprice") * (1 - dbl(t, "l_discount")), "total_revenue")),
        aggMode = AggMode.Scalar,
        rootRel = Some("part")),
      """SELECT
        |  CAST(SUM(CASE WHEN p_type = 'PROMO' THEN l_extendedprice * (1 - l_discount) ELSE 0 END) AS DOUBLE) AS promo_revenue,
        |  CAST(SUM(l_extendedprice * (1 - l_discount)) AS DOUBLE) AS total_revenue
        |FROM lineitem, part
        |WHERE l_partkey = p_partkey
        |  AND CAST(l_shipdate AS DATE) >= DATE '1995-09-01'
        |  AND CAST(l_shipdate AS DATE) < DATE '1995-10-01'""".stripMargin),

    // --------------------------------------- q17: correlated subquery (LA)
    BenchQuery("q17", "corr",
      QuerySpec(
        relations = Seq("lineitem", "part"),
        joins = Seq(partkey),
        tupleFilter = Map("part" -> (t => lng(t, "p_size") == 10)),
        carry = Map("lineitem" -> Seq("l_quantity", "l_extendedprice")),
        aggs = Seq(AggSpec(AggFunc.Sum, dbl(_, "l_extendedprice"), "avg_yearly", _ / 7.0)),
        aggMode = AggMode.Scalar,
        rootRel = Some("part"),
        correlated = Some(CorrelatedAvg("lineitem", "partkey", dbl(_, "l_quantity"), 0.2, _ < _))),
      """SELECT CAST(SUM(l_extendedprice) / 7.0 AS DOUBLE) AS avg_yearly
        |FROM lineitem, part
        |WHERE p_partkey = l_partkey AND p_size = 10
        |  AND CAST(l_quantity AS DOUBLE) < (
        |    SELECT 0.2 * AVG(CAST(l2.l_quantity AS DOUBLE)) FROM lineitem l2
        |    WHERE l2.l_partkey = p_partkey)""".stripMargin),

    // ------------------------------- q19: scalar with disjunctive residual
    BenchQuery("q19", "scalar",
      QuerySpec(
        relations = Seq("lineitem", "part"),
        joins = Seq(partkey),
        tupleFilter = Map(
          "lineitem" -> (t => dbl(t, "l_quantity") <= 30),
          "part" -> (t => Set("STANDARD", "SMALL", "MEDIUM")(str(t, "p_type")))),
        carry = Map("lineitem" -> Seq("l_extendedprice", "l_discount", "l_quantity"), "part" -> Seq("p_type")),
        aggs = Seq(revenue),
        aggMode = AggMode.Scalar,
        rootRel = Some("part"),
        postFilter = Some { t =>
          val q = dbl(t, "l_quantity"); val p = str(t, "p_type")
          (p == "STANDARD" && q >= 1 && q <= 11) ||
            (p == "SMALL" && q >= 10 && q <= 20) ||
            (p == "MEDIUM" && q >= 20 && q <= 30)
        }),
      """SELECT CAST(SUM(l_extendedprice * (1 - l_discount)) AS DOUBLE) AS revenue
        |FROM lineitem, part
        |WHERE l_partkey = p_partkey AND (
        |     (p_type = 'STANDARD' AND CAST(l_quantity AS DOUBLE) BETWEEN 1 AND 11)
        |  OR (p_type = 'SMALL'    AND CAST(l_quantity AS DOUBLE) BETWEEN 10 AND 20)
        |  OR (p_type = 'MEDIUM'   AND CAST(l_quantity AS DOUBLE) BETWEEN 20 AND 30))""".stripMargin),
  )
}
