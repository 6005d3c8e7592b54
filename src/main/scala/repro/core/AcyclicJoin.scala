package repro.core

import repro.bsp._
import repro.core.RowTable.Table
import repro.tag.{ridCol, Tup}

/** Messages of the acyclic TAG-join vertex program (Algorithm 2 + §7). */
sealed trait JoinMsg extends Serializable
object JoinMsg {
  /** Reduction phase: sender ids (edge identification, Alg. 2 lines 8–9). */
  final case class Ids(senders: List[Long]) extends JoinMsg
  /** Collection phase: partial join tables keyed by origin tag. */
  final case class Tables(byTag: Map[String, Table]) extends JoinMsg
  /** Correlated pre-phase: value accumulator towards a per-group average. */
  final case class Corr(cell: AggCell) extends JoinMsg
  /** Correlated pre-phase keep-alive self message (see AcyclicJoinProgram). */
  case object Ping extends JoinMsg
  /** GA/scalar partial aggregates, addressed to the aggregator vertex. */
  final case class Agg(p: Partials) extends JoinMsg

  def merge(a: JoinMsg, b: JoinMsg): JoinMsg = (a, b) match {
    case (Ids(x), Ids(y)) => Ids(y ::: x) // copy the incoming side: linear fan-in
    case (Tables(x), Tables(y)) =>
      Tables(y.foldLeft(x) { case (m, (k, t)) => m.updated(k, m.getOrElse(k, Vector.empty) ++ t) })
    case (Corr(x), Corr(y)) => Corr(x.merge(y))
    case (Agg(x), Agg(y))   => Agg(x.merge(y))
    case (Ping, Ping)       => Ping
    case (Ping, o)          => o // keep-alive never shadows real traffic
    case (o, Ping)          => o
    case _                  => sys.error(s"phase-mixed messages cannot meet: $a / $b")
  }
}

/** Per-vertex state of Algorithm 2.
  *
  * `marked` holds the vertex's marks (Alg. 2 lines 8–9): for each edge label,
  * the ids of the neighbours that reached it along an edge of that label,
  * sorted and without duplicates. Each mark is one (neighbour, label) edge,
  * so the DOWN and COLLECT passes message the marked ids of their label
  * directly (§2 direct-to-id messaging) instead of scanning the out-edges.
  */
final case class JState(
    marked: Map[String, Array[Long]] = Map.empty, // edge label → marked neighbour ids
    value: Table = Vector.empty,                   // collection-phase partial table
    thresh: Double = Double.NaN,                   // correlated threshold (attribute vertices)
    output: Table = Vector.empty,                  // final result slice (root vertices)
) extends Serializable {

  /** The marked neighbour ids of `label`, ascending. */
  def marks(label: String): Array[Long] = marked.getOrElse(label, JState.NoIds)

  /** Mark `senders` under `label`. */
  def mark(label: String, senders: List[Long]): JState = {
    var in = new Array[Long](8)
    var n = 0
    var rest = senders
    while (rest.nonEmpty) {
      if (n == in.length) in = java.util.Arrays.copyOf(in, 2 * n)
      in(n) = rest.head
      n += 1
      rest = rest.tail
    }
    java.util.Arrays.sort(in, 0, n)
    copy(marked = marked.updated(label, JState.union(marks(label), in, n)))
  }
}

object JState {
  /** The state of a vertex before its first superstep. */
  val Empty: JState = JState()

  private val NoIds = new Array[Long](0)

  /** The sorted, duplicate-free union of ascending `a` and the first `bn`
    * ids of ascending `b`.
    */
  private def union(a: Array[Long], b: Array[Long], bn: Int): Array[Long] = {
    val out = new Array[Long](a.length + bn)
    var i = 0
    var j = 0
    var n = 0
    while (i < a.length || j < bn) {
      val fromA = j == bn || (i < a.length && a(i) <= b(j))
      val x = if (fromA) a(i) else b(j)
      if (fromA) i += 1 else j += 1
      if (n == 0 || out(n - 1) != x) { out(n) = x; n += 1 }
    }
    if (n == out.length) out else java.util.Arrays.copyOf(out, n)
  }
}

/** The acyclic TAG-join vertex program: Yannakakis-style reduction (connected
  * bottom-up pass, then top-down pass over marked edges) followed by a
  * bottom-up collection pass whose messages carry partial join tables —
  * Algorithm 2 of the paper, extended with the §7 features (pushed
  * selections/projections, LA/GA/scalar aggregation, correlated averages,
  * semijoin-only mode).
  */
final class AcyclicJoinProgram(
    val plan: TagPlan,
    val spec: QuerySpec,
) extends VertexProgram[JState, JoinMsg] {
  import JoinMsg._

  private val up: Vector[TraversalStep] = plan.steps
  private val L = up.length
  /** Full driving schedule: UP ++ DOWN(reversed) ++ COLLECT(UP again);
    * semijoin-only queries stop after the bottom-up reduction pass.
    */
  val full: Vector[TraversalStep] =
    if (spec.semiJoinOnly) up else up ++ up.reverse ++ up
  private val preSteps = if (spec.correlated.isDefined) 2 else 0
  private val lastIdx = full.length // final (receive-only) schedule index

  override val maxSteps: Int = preSteps + lastIdx + 2

  private val joinByName: Map[String, JoinAttr] = spec.joins.map(j => j.name -> j).toMap
  private val corrLabel: Option[String] = spec.correlated.map { c =>
    val j = joinByName(c.attrName)
    s"${c.rel}.${j.col(c.rel)}"
  }

  private def tupleOk(v: VertexInfo): Boolean =
    spec.tupleFilter.get(v.label).forall(_(v.tuple))

  /** Columns a tuple of each relation carries into the collection phase. */
  private val keepOf: Map[String, Set[String]] =
    spec.relations.map(r => r -> (spec.carry.getOrElse(r, Nil).toSet + ridCol(r))).toMap

  private def projected(v: VertexInfo): Tup =
    v.tuple.view.filterKeys(keepOf(v.label)).toMap

  override def initialState(v: VertexInfo): JState = JState.Empty

  override def initiallyActive(v: VertexInfo, s: JState, edges: IndexedSeq[OutEdge]): Boolean =
    v.isTuple && (v.label == plan.startRel || spec.correlated.exists(_.rel == v.label)) &&
      tupleOk(v)

  override val startLabels: Option[Set[String]] =
    Some(Set(plan.startRel) ++ spec.correlated.map(_.rel))

  override def merge(a: JoinMsg, b: JoinMsg): JoinMsg = JoinMsg.merge(a, b)

  override def compute(step: Int, v: VertexInfo, s: JState, msg: Option[JoinMsg],
      edges: IndexedSeq[OutEdge], ctx: SendCtx[JoinMsg]): JState = {

    // ---------------------------------------------------- correlated pre-phase
    if (step < preSteps) {
      msg match {
        case None => // step 0 initial actives
          if (v.label == spec.correlated.get.rel && step == 0) {
            val es = OutEdges.withLabel(edges, corrLabel.get)
            if (es.nonEmpty) {
              val m = Corr(AggCell.zero.add(spec.correlated.get.valueExpr(v.tuple)))
              es.foreachDst(ctx.send(_, m))
            }
          }
          if (v.label == plan.startRel) ctx.send(v.id, Ping) // stay warm
          s
        case Some(Ping) =>
          if (v.label == plan.startRel) ctx.send(v.id, Ping)
          s
        case Some(Corr(cell)) =>
          // group-key attribute vertex stores its threshold (§7 q17 pattern)
          s.copy(thresh = spec.correlated.get.factor * cell.result(AggFunc.Avg))
        case _ => s
      }
    } else {
      val schedIdx = step - preSteps

      // -------------------------------------------------------------- receive
      var st = s
      var validated = msg.isEmpty // initially-active vertices are pre-validated
      msg match {
        case None => validated = true
        case Some(Ping) => validated = true // tail of the pre-phase keep-alive
        case Some(Ids(senders)) =>
          val prev = full(schedIdx - 1)
          val ok =
            // a tuple with marks has passed its filter already
            if (v.isTuple) v.label == prev.rel && (st.marked.nonEmpty || tupleOk(v))
            else spec.attrFilter.get(prev.attrName).forall(_(v.value))
          if (ok) {
            st = st.mark(prev.label, senders)
            validated = true
            if (spec.semiJoinOnly && schedIdx == lastIdx) st = finishUp(v, st)
          }
        case Some(Tables(byTag)) =>
          val prev = full(schedIdx - 1)
          var value = RowTable.naturalJoinAll(byTag.valuesIterator.toSeq)
          if (v.isTuple) value = RowTable.naturalJoin(value, Vector(projected(v)))
          else spec.correlated.foreach { c =>
            if (c.attrName == prev.attrName) {
              val col = ridCol(c.rel)
              value = value.filter(r => !r.contains(col) || c.keep(c.valueExpr(r), st.thresh))
            }
          }
          st = st.copy(value = value)
          validated = true
          if (schedIdx == lastIdx) st = finishUp(v, st)
        case Some(other) => sys.error(s"unexpected $other at step $step")
      }
      if (!validated) return st

      // ----------------------------------------------------------------- send
      if (schedIdx == lastIdx) {
        if (spec.aggMode == AggMode.Global || spec.aggMode == AggMode.Scalar) {
          val rows0: Table = if (spec.semiJoinOnly) Vector(projected(v)) else st.value
          val rows = spec.postFilter.fold(rows0)(rows0.filter)
          if (rows.nonEmpty)
            ctx.send(VertexProgram.AggregatorId,
              Agg(Partials.ofRows(rows, spec.groupBy, spec.aggs)))
        }
        return st
      }
      val cur = full(schedIdx)
      if (schedIdx < L) {
        // bottom-up reduction: message every matching edge (Alg. 2 lines 11-13)
        val m = Ids(List(v.id))
        OutEdges.withLabel(edges, cur.label).foreachDst(ctx.send(_, m))
      } else if (schedIdx < 2 * L && !spec.semiJoinOnly) {
        // top-down reduction: only via marked edges (lines 15-18)
        val m = Ids(List(v.id))
        st.marks(cur.label).foreach(ctx.send(_, m))
      } else {
        // collection: partial tables via marked edges (lines 37-40)
        val table: Table =
          if (schedIdx == 2 * L) Vector(projected(v)) // start leaf initiates
          else st.value
        if (table.nonEmpty) {
          val m = Tables(Map(v.label -> table))
          st.marks(cur.label).foreach(ctx.send(_, m))
        }
      }
      st
    }
  }

  /** Wrap up at the last superstep: emit output rows / LA aggregates. */
  private def finishUp(v: VertexInfo, s0: JState): JState = {
    if (spec.semiJoinOnly)
      return s0.copy(value = Vector(projected(v)), output = Vector(projected(v)))
    val s = spec.postFilter.fold(s0)(p => s0.copy(value = s0.value.filter(p)))
    spec.aggMode match {
      case AggMode.NoAgg =>
        s.copy(output = s.value.map(_.filterNot { case (k, _) => repro.tag.isRidCol(k) }))
      case AggMode.Local =>
        // Group-key attribute vertex aggregates its own group (§7 LA).
        val laName = spec.laAttr.get
        val others = spec.groupBy.filterNot(_ == laName)
        s.copy(output = Partials.ofRows(s.value, others, spec.aggs).rows(others, spec.aggs)
          .map(_ + (laName -> v.value)))
      case AggMode.Global | AggMode.Scalar => s // partials sent from compute
    }
  }
}
