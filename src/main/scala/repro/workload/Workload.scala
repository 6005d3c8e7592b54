package repro.workload

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.tag.{Tup, ValueKey}

/** One benchmark query: the TAG-join [[QuerySpec]], the equivalent SQL (run
  * verbatim on Spark SQL and DuckDB), and its paper category.
  *
  * `blocks` supports the WITH-clause union queries of the paper (q56/q60
  * shape): each block is executed as its own TAG-join and the runner unions
  * and re-aggregates (summing) by the outer GROUP BY.
  */
final case class BenchQuery(
    name: String,
    category: String, // "noagg" | "local" | "global" | "scalar" | "corr" | "cycle"
    spec: QuerySpec,
    sql: String,
    blocks: Seq[QuerySpec] = Nil,
)

/** A benchmark workload: tables, the attribute columns materialized as TAG
  * attribute vertices (the loader's choice, §3/§8.2), and the queries.
  */
final case class Workload(
    name: String,
    tables: Map[String, DataFrame],
    attrCols: Map[String, Seq[String]],
    queries: Seq[BenchQuery],
) {
  def relationSpecs: Seq[(String, DataFrame, Seq[String])] =
    tables.toSeq.sortBy(_._1).map { case (n, df) => (n, df, attrCols.getOrElse(n, Nil)) }

  def query(name: String): BenchQuery = queries.find(_.name == name).get
}

object Workload {

  /** Execute a bench query on a TAG-join executor (handles union blocks). */
  def runTag(ex: TagJoinExecutor, q: BenchQuery): QueryResult = {
    if (q.blocks.isEmpty) ex.execute(q.spec)
    else {
      val results = q.blocks.map(b => ex.execute(b))
      // union + re-aggregate (sum) by the outer group-by
      val alias = q.spec.aggs.head.alias
      val all = results.flatMap(_.rows)
      val rows = all.groupBy(r => q.spec.groupBy.map(r.getOrElse(_, null))).map {
        case (key, rs) =>
          val base: Tup = q.spec.groupBy.zip(key).toMap
          base + (alias -> (rs.map(r => ResultCheck.num(r(alias))).sum: Any))
      }.toVector
      QueryResult(rows, q.spec.groupBy ++ Seq(alias), results.flatMap(_.stats).toVector)
    }
  }
}

/** Shared predicate/extraction helpers for writing QuerySpecs over
  * normalized tuples (see [[repro.tag.ValueKey]]).
  */
object Q {
  def lng(t: Tup, c: String): Long = t(c) match {
    case l: Long => l
    case i: Int  => i.toLong
    case other   => other.toString.toLong
  }
  def dbl(t: Tup, c: String): Double = t(c) match {
    case d: Double => d
    case l: Long   => l.toDouble
    case i: Int    => i.toDouble
    case f: Float  => f.toDouble
    case b: java.math.BigDecimal => b.doubleValue
    case other     => other.toString.toDouble
  }
  def str(t: Tup, c: String): String = t(c).asInstanceOf[String]
  def day(t: Tup, c: String): Long = t(c) match {
    case ValueKey.DateKey(d) => d
    case d: java.sql.Date    => d.toLocalDate.toEpochDay
    case other               => sys.error(s"not a date: $c=$other")
  }
  /** Epoch-day of a literal ISO date. */
  def D(s: String): Long = java.time.LocalDate.parse(s).toEpochDay
}

/** Result equivalence between any two of a TAG-join result, a Spark SQL
  * result and a DuckDB result. Rows are compared as a multiset and columns
  * are matched by lower-cased name. Integral values (including DuckDB
  * `HUGEINT` and decimals of scale ≤ 0) are compared exactly after widening to
  * Long, and dates as epoch days. A pair where either value is floating point
  * is equal within a relative tolerance of [[RelTol]]; any other pair only
  * when equal.
  *
  * The tolerance lies between the summation-order error of an aggregate over
  * n rows (about n·ε, 1e-11 at n = 3e5) and the effect of one missing row
  * (about 1/n). COUNT comes back as a double from the TAG aggregator and as a
  * long from the SQL engines, so a long meets a double under the tolerance.
  */
object ResultCheck {

  val RelTol = 1e-9

  /** A result as column names and rows of raw values. */
  final case class Table(columns: Seq[String], rows: Seq[Seq[Any]])

  object Table {
    import scala.language.implicitConversions

    implicit def fromSpark(df: DataFrame): Table =
      Table(df.columns.toSeq, df.collect().toSeq.map(_.toSeq))

    implicit def fromTag(r: QueryResult): Table =
      Table(r.columns, r.rows.map(t => r.columns.map(t.getOrElse(_, null))))
  }

  def num(v: Any): Double = v match {
    case d: Double               => d
    case f: Float                => f.toDouble
    case l: Long                 => l.toDouble
    case i: Int                  => i.toDouble
    case s: Short                => s.toDouble
    case b: java.math.BigDecimal => b.doubleValue
    case other                   => other.toString.toDouble
  }

  private final case class Day(epochDay: Long)

  private def canon(v: Any): Any = v match {
    case f: Float                => f.toDouble
    case b: java.math.BigDecimal => if (b.scale <= 0) b.longValueExact() else b.doubleValue
    case b: java.math.BigInteger => b.longValueExact()
    case i: Int                  => i.toLong
    case s: Short                => s.toLong
    case b: Byte                 => b.toLong
    case ValueKey.DateKey(d)     => Day(d)
    case d: java.sql.Date        => Day(d.toLocalDate.toEpochDay)
    case d: java.time.LocalDate  => Day(d.toEpochDay)
    case other                   => other
  }

  private def close(a: Double, b: Double): Boolean =
    a == b || math.abs(a - b) <= RelTol * math.max(math.abs(a), math.abs(b))

  private def sameValue(a: Any, b: Any): Boolean = (a, b) match {
    case (x: Double, y: Double) => close(x, y)
    case (x: Double, y: Long)   => close(x, y.toDouble)
    case (x: Long, y: Double)   => close(x.toDouble, y)
    case _                      => a == b
  }

  /** `None` when `got` equals `want`, else the reason. */
  def diff(got: Table, want: Table): Option[String] = {
    val gc = got.columns.map(_.toLowerCase)
    val wc = want.columns.map(_.toLowerCase)
    if (gc.sorted != wc.sorted)
      return Some(s"column mismatch: ${got.columns.sorted} vs ${want.columns.sorted}")
    val order = gc.sorted
    def arrange(t: Table, cols: Seq[String]): Seq[Vector[Any]] = {
      val idx = order.map(cols.indexOf(_))
      t.rows.map(r => idx.map(i => canon(r(i))).toVector)
    }
    val g = arrange(got, gc)
    val w = arrange(want, wc)
    // Rows are grouped by the columns that hold no floating value on either
    // side; inside a group they are paired in order of their floating values.
    val floating = order.indices.filter(i => (g.iterator ++ w.iterator).exists(_(i).isInstanceOf[Double]))
    val exact = order.indices.diff(floating)
    def floats(r: Vector[Any]): Vector[Double] = floating.map(i => r(i) match {
      case null      => Double.NegativeInfinity
      case d: Double => d
      case l: Long   => l.toDouble
      case _         => Double.NaN
    }).toVector
    val ord = Ordering.Implicits.seqOrdering[Vector, Double](Ordering.Double.TotalOrdering)
    val byKeyG = g.groupBy(r => exact.map(r))
    val byKeyW = w.groupBy(r => exact.map(r))
    (byKeyG.keySet ++ byKeyW.keySet).iterator.flatMap { k =>
      val rg = byKeyG.getOrElse(k, Nil).sortBy(floats)(ord)
      val rw = byKeyW.getOrElse(k, Nil).sortBy(floats)(ord)
      if (rg.size != rw.size)
        Some(s"${rg.size} vs ${rw.size} rows with ${exact.map(order).zip(k).mkString(", ")}")
      else rg.zip(rw).find { case (a, b) => !a.lazyZip(b).forall(sameValue) }
        .map { case (a, b) => s"row $a vs $b" }
    }.nextOption()
      .map(d => s"result mismatch (${g.size} vs ${w.size} rows; columns ${order.mkString(", ")}): $d")
  }

  def assertSame(got: Table, want: Table, context: String = ""): Unit =
    diff(got, want).foreach(d => throw new IllegalArgumentException(s"$context $d"))
}
