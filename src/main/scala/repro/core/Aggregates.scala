package repro.core

import repro.tag.Tup

/** A generic aggregation accumulator cell: enough state for SUM, COUNT, AVG,
  * MIN and MAX at once (one cell per [[AggSpec]]).
  */
final case class AggCell(sum: Double, count: Long, min: Double, max: Double) extends Serializable {
  def add(v: Double): AggCell =
    AggCell(sum + v, count + 1, math.min(min, v), math.max(max, v))
  def merge(o: AggCell): AggCell =
    AggCell(sum + o.sum, count + o.count, math.min(min, o.min), math.max(max, o.max))
  def result(f: AggFunc): Double = f match {
    case AggFunc.Sum   => sum
    case AggFunc.Count => count.toDouble
    case AggFunc.Avg   => if (count == 0) Double.NaN else sum / count
    case AggFunc.Min   => min
    case AggFunc.Max   => max
  }
}

object AggCell {
  val zero: AggCell = AggCell(0.0, 0L, Double.PositiveInfinity, Double.NegativeInfinity)
}

/** Grouped partial aggregates, the payload vertices send to the global
  * aggregator vertex for GA/scalar aggregation (§7).
  */
final case class Partials(groups: Map[Vector[Any], Vector[AggCell]]) extends Serializable {
  /** Fold the smaller group map into the larger one, group by group, so
    * merging a one-row partial into a running partial costs one map update.
    */
  def merge(o: Partials): Partials = {
    val (big, small) = if (groups.size >= o.groups.size) (groups, o.groups) else (o.groups, groups)
    Partials(small.foldLeft(big) { case (m, (k, cells)) =>
      m.updated(k, m.get(k).fold(cells)(_.lazyZip(cells).map(_ merge _)))
    })
  }

  /** One output row per group: the `groupBy` columns, then each aggregate's
    * finished value under its alias.
    */
  def rows(groupBy: Seq[String], aggs: Seq[AggSpec]): Vector[Tup] =
    groups.iterator.map { case (key, cells) =>
      groupBy.zip(key).toMap ++ aggs.lazyZip(cells).map((a, c) => a.alias -> (a.finish(c.result(a.func)): Any))
    }.toVector
}

object Partials {
  val empty: Partials = Partials(Map.empty)

  /** Accumulate `rows` into grouped cells for `aggs`, grouping by `groupBy`. */
  def ofRows(rows: Iterable[Tup], groupBy: Seq[String], aggs: Seq[AggSpec]): Partials = {
    val m = scala.collection.mutable.Map.empty[Vector[Any], Array[AggCell]]
    rows.foreach { r =>
      val key = groupBy.map(g => r.getOrElse(g, null)).toVector
      val cells = m.getOrElseUpdate(key, Array.fill(aggs.size)(AggCell.zero))
      var i = 0
      while (i < aggs.size) { cells(i) = cells(i).add(aggs(i).expr(r)); i += 1 }
    }
    Partials(m.view.mapValues(_.toVector).toMap)
  }

  /** [[ofRows]] of the single row `r`, built directly. */
  def ofRow(r: Tup, groupBy: Seq[String], aggs: Seq[AggSpec]): Partials =
    Partials(Map(groupBy.map(g => r.getOrElse(g, null)).toVector ->
      aggs.map(a => AggCell.zero.add(a.expr(r))).toVector))
}
