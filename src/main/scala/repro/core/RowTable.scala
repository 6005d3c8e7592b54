package repro.core

import repro.tag.Tup

/** Driver- and vertex-side helpers for the small intermediate tables that
  * flow through the collection phase (§5.2): bags of tuples represented as
  * `Vector[Map[String, Any]]` with natural-join semantics.
  *
  * Query size is a constant (data complexity, §5.2.1), and per-vertex tables
  * are small by construction, so a simple hash natural join suffices.
  */
object RowTable {

  type Table = Vector[Tup]

  val empty: Table = Vector.empty

  /** Natural join: match on all shared attribute names. With the hidden
    * `\$rid` columns present, this is exact under bag semantics.
    */
  def naturalJoin(a: Table, b: Table): Table = {
    if (a.isEmpty || b.isEmpty) return empty
    val shared = (a.head.keySet intersect b.head.keySet).toArray
    if (shared.isEmpty) {
      // Cartesian combination (the §4.1 "combine values from both sides").
      for (x <- a; y <- b) yield x ++ y
    } else {
      val grouped = b.groupBy(t => shared.map(t(_)).toSeq)
      a.flatMap { x =>
        grouped.getOrElse(shared.map(x(_)).toSeq, Vector.empty).map(y => x ++ y)
      }
    }
  }

  def naturalJoinAll(tables: Seq[Table]): Table =
    tables.reduceLeftOption(naturalJoin).getOrElse(empty)
}
