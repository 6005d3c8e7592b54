package perfbench

import repro.core.QueryResult
import repro.tag.ValueKey

/** Compares a TAG-join result with a Spark SQL reference as a multiset of
  * rows. Columns are matched by lower-cased name. Two values are equal when
  * both are null; when either is floating point, if they agree within a
  * relative tolerance of [[RelTol]]; otherwise exactly, after widening
  * integral types to Long and dates to epoch days.
  *
  * The tolerance lies between the summation-order error of an aggregate
  * over n rows (about n·ε, 3e-11 here) and the effect of one missing row
  * (at least about 3e-6 here).
  */
object ResultMatch {

  val RelTol = 1e-9

  /** Reference rows with their column names. */
  final case class Table(columns: Seq[String], rows: Seq[Seq[Any]])

  def fromSpark(df: org.apache.spark.sql.DataFrame): Table =
    Table(df.columns.toSeq, df.collect().toSeq.map(_.toSeq))

  def fromTag(r: QueryResult): Table =
    Table(r.columns, r.rows.map(t => r.columns.map(t.getOrElse(_, null))))

  private final case class Day(epochDay: Long)

  private def canon(v: Any): Any = v match {
    case null                    => null
    case d: Double               => d
    case f: Float                => f.toDouble
    case b: java.math.BigDecimal => if (b.scale <= 0) b.longValueExact() else b.doubleValue
    case l: Long                 => l
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

  private def same(a: Any, b: Any): Boolean = (a, b) match {
    case (null, null)             => true
    case (x: Double, y: Double)   => close(x, y)
    case (x: Double, y: Long)     => close(x, y.toDouble)
    case (x: Long, y: Double)     => close(x.toDouble, y)
    case _                        => a == b
  }

  /** `None` when `got` equals `want`, else a one-line reason. */
  def diff(got: Table, want: Table): Option[String] = {
    val gc = got.columns.map(_.toLowerCase)
    val wc = want.columns.map(_.toLowerCase)
    if (gc.sorted != wc.sorted) return Some(s"columns ${gc.sorted} vs ${wc.sorted}")
    if (got.rows.size != want.rows.size) return Some(s"${got.rows.size} rows vs ${want.rows.size}")
    val order = wc.sorted
    def arrange(t: Table, cols: Seq[String]): Seq[Vector[Any]] = {
      val idx = order.map(cols.indexOf(_))
      t.rows.map(r => idx.map(i => canon(r(i))).toVector)
    }
    val g = arrange(got, gc)
    val w = arrange(want, wc)
    // Columns holding a floating value on either side are compared with the
    // tolerance; rows are grouped by the exact columns and, inside a group,
    // paired in order of their floating values.
    val floating = order.indices.filter(i => (g.iterator ++ w.iterator).exists(_(i).isInstanceOf[Double]))
    val exact = order.indices.filterNot(floating.contains)
    def key(r: Vector[Any]): Vector[Any] = exact.map(r).toVector
    def floats(r: Vector[Any]): Vector[Double] =
      floating.map(i => r(i) match {
        case null      => Double.NegativeInfinity
        case d: Double => d
        case l: Long   => l.toDouble
        case other     => sys.error(s"non-numeric value $other in a floating column")
      }).toVector
    val byKeyG = g.groupBy(key)
    val byKeyW = w.groupBy(key)
    if (byKeyG.keySet != byKeyW.keySet || byKeyG.exists { case (k, rs) => rs.size != byKeyW(k).size })
      return Some("rows differ in non-floating columns")
    val ord = Ordering.Implicits.seqOrdering[Vector, Double](Ordering.Double.TotalOrdering)
    byKeyG.iterator.flatMap { case (k, rs) =>
      rs.sortBy(floats)(ord).zip(byKeyW(k).sortBy(floats)(ord)).find { case (a, b) =>
        !a.indices.forall(i => same(a(i), b(i)))
      }.map { case (a, b) => s"row ${order.zip(a).mkString(",")} vs ${b.mkString(",")}" }
    }.nextOption()
  }
}
