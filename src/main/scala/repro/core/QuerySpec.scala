package repro.core

import repro.tag.Tup

/** Aggregate functions supported by the §7 aggregation scheme. */
sealed trait AggFunc extends Serializable
object AggFunc {
  case object Sum   extends AggFunc
  case object Count extends AggFunc
  case object Avg   extends AggFunc
  case object Min   extends AggFunc
  case object Max   extends AggFunc
}

/** One aggregate: `alias = finish(func(expr(row)))` over the join result. */
final case class AggSpec(
    func: AggFunc,
    expr: Tup => Double,
    alias: String,
    finish: Double => Double = identity,
) extends Serializable

/** How the query aggregates (§7): none (plain join output), local (single
  * group key — computed at the group-key attribute vertices), global
  * (multi-attribute GROUP BY via the global aggregator vertex), or scalar.
  */
sealed trait AggMode extends Serializable
object AggMode {
  case object NoAgg  extends AggMode
  case object Local  extends AggMode
  case object Global extends AggMode
  case object Scalar extends AggMode
}

/** Correlated-subquery filter of the TPC-H q17 form (§7): for each value of
  * join attribute `attrName`, the per-group average of `valueExpr` over
  * relation `rel` is computed in a vertex-centric pre-phase at the attribute
  * vertices; during collection each such vertex keeps only `rel`-rows with
  * `keep(valueExpr(row), factor * avg)`.
  */
final case class CorrelatedAvg(
    rel: String,
    attrName: String,
    valueExpr: Tup => Double,
    factor: Double,
    keep: (Double, Double) => Boolean,
) extends Serializable

/** A join query in TAG form.
  *
  * @param relations   relation names (must exist in the TAG graph)
  * @param joins       logical join attributes (equivalence classes of columns)
  * @param tupleFilter pushed per-relation tuple predicates
  * @param attrFilter  pushed single-attribute predicates, by join-attr name,
  *                    over normalized values (checked at attribute vertices
  *                    during reduction — §7 "Selections")
  * @param carry       per-relation payload columns to carry through the
  *                    collection phase (join columns travel structurally;
  *                    `\$rid` columns are always carried) — §7 "Projections"
  * @param groupBy     output group-by columns (for Local: exactly the
  *                    `laAttr` join attribute plus functionally-determined
  *                    columns available in the carried rows)
  * @param laAttr      the group-key join attribute for Local aggregation;
  *                    the plan is rooted at its attribute node
  * @param aggs        aggregates over the (filtered) join result
  * @param rootRel     preferred join-tree root (defaults to GYO's pick)
  * @param semiJoinOnly run the reduction's bottom-up pass only and emit the
  *                    fully reduced root relation (EXISTS-style queries)
  */
final case class QuerySpec(
    relations: Seq[String],
    joins: Seq[JoinAttr],
    tupleFilter: Map[String, Tup => Boolean] = Map.empty,
    attrFilter: Map[String, Any => Boolean] = Map.empty,
    carry: Map[String, Seq[String]] = Map.empty,
    groupBy: Seq[String] = Nil,
    laAttr: Option[String] = None,
    aggs: Seq[AggSpec] = Nil,
    aggMode: AggMode = AggMode.NoAgg,
    rootRel: Option[String] = None,
    semiJoinOnly: Boolean = false,
    correlated: Option[CorrelatedAvg] = None,
    /** Residual cross-relation predicate over joined rows, applied at the
      * root vertices before output/aggregation (TPC-H q19's disjunctive
      * multi-relation conditions).
      */
    postFilter: Option[Tup => Boolean] = None,
) extends Serializable

/** A query shape the TAG-join executor cannot evaluate, raised while the
  * query is planned and so before any superstep runs: a disconnected join
  * graph, a cyclic core that is not a simple cycle, a multi-attribute tree
  * edge (also between the cycle's bag and the other relations), or a
  * correlated filter whose relation's rows would reach the output without
  * passing the filter's attribute.
  */
final class UnsupportedQuery(message: String) extends IllegalArgumentException(message)
