package repro.core

import repro.bsp._
import repro.core.RowTable.Table
import repro.tag.{ridCol, TagGraphBuilder, Tup}

/** Join type for the §4 two-way join (outer variants per §7). */
sealed trait JoinType extends Serializable
object JoinType {
  case object Inner extends JoinType
  case object Left  extends JoinType
  case object Right extends JoinType
  case object Full  extends JoinType
}

/** The §4 vertex-centric two-way join `R ⋈ S`.
  *
  * Single-attribute form (§4.1) runs in 3 supersteps: (1) each join-attribute
  * vertex checks locally (by edge labels) that it joins both sides and
  * signals the participating tuple vertices; (2) tuple vertices reply with
  * their (projected) tuples; (3) the attribute vertex combines both sides —
  * a Cartesian product per join value, i.e. the unfactorized output — or
  * keeps the factorized pair `(R-side, S-side)` when `factorized` is set.
  *
  * Multi-attribute form (§4.2) inserts an intersection round: tuple vertices
  * first send their remaining join-attribute values to the coordinating
  * X1-attribute vertex, which intersects them and notifies only tuples whose
  * combination survives.
  */
final case class TwoWaySpec(
    relR: String,
    relS: String,
    join: JoinAttr,                 // coordinating attribute X1
    others: Seq[JoinAttr] = Nil,    // X2..Xn for multi-attribute joins
    joinType: JoinType = JoinType.Inner,
    factorized: Boolean = false,
    tupleFilter: Map[String, Tup => Boolean] = Map.empty,
    carry: Map[String, Seq[String]] = Map.empty,
) extends Serializable

sealed trait TwMsg extends Serializable
object TwMsg {
  final case class TIds(ids: List[Long]) extends TwMsg
  final case class TVals(byRel: Map[String, List[(Long, Vector[Any])]]) extends TwMsg
  final case class TRows(byRel: Map[String, Table]) extends TwMsg

  def merge(a: TwMsg, b: TwMsg): TwMsg = (a, b) match {
    case (TIds(x), TIds(y)) => TIds(x ++ y)
    case (TVals(x), TVals(y)) =>
      TVals(y.foldLeft(x) { case (m, (k, v)) => m.updated(k, m.getOrElse(k, Nil) ++ v) })
    case (TRows(x), TRows(y)) =>
      TRows(y.foldLeft(x) { case (m, (k, v)) => m.updated(k, m.getOrElse(k, Vector.empty) ++ v) })
    case _ => sys.error(s"phase-mixed two-way messages: $a / $b")
  }
}

final case class TwState(
    factorR: Table = Vector.empty,
    factorS: Table = Vector.empty,
    output: Table = Vector.empty,
) extends Serializable

final class TwoWayJoinProgram(spec: TwoWaySpec) extends VertexProgram[TwState, TwMsg] {
  import JoinType._
  import TwMsg._

  private val lr = s"${spec.relR}.${spec.join.col(spec.relR)}"
  private val ls = s"${spec.relS}.${spec.join.col(spec.relS)}"
  private val multi = spec.others.nonEmpty

  override val maxSteps: Int = if (multi) 6 else 4

  private def tupleOk(v: VertexInfo): Boolean =
    spec.tupleFilter.get(v.label).forall(_(v.tuple))

  private def projected(v: VertexInfo): Tup = {
    // join-attribute columns always travel: the §4.2 combine groups by them
    val joinCols = (spec.join +: spec.others).flatMap(_.cols.get(v.label))
    val keep = spec.carry.getOrElse(v.label, Nil).toSet ++ joinCols + ridCol(v.label)
    v.tuple.view.filterKeys(keep).toMap
  }

  private def otherVals(v: VertexInfo): Vector[Any] =
    spec.others.iterator.map(a => v.tuple.getOrElse(a.col(v.label), null)).toVector

  override def initialState(v: VertexInfo): TwState = TwState()

  /** §4.1: the attribute vertex decides locally, from its edge labels alone,
    * whether it is a join value (no need to "cross the edge").
    */
  override def initiallyActive(v: VertexInfo, s: TwState, edges: IndexedSeq[OutEdge]): Boolean = {
    if (v.isTuple) return false
    val hasR = OutEdges.withLabel(edges, lr).nonEmpty
    val hasS = OutEdges.withLabel(edges, ls).nonEmpty
    spec.joinType match {
      case Inner => hasR && hasS
      case Left  => hasR
      case Right => hasS
      case Full  => hasR || hasS
    }
  }

  override val startLabels: Option[Set[String]] = Some(Set(TagGraphBuilder.AttrLabel))

  override def merge(a: TwMsg, b: TwMsg): TwMsg = TwMsg.merge(a, b)

  override def compute(step: Int, v: VertexInfo, s: TwState, msg: Option[TwMsg],
      edges: IndexedSeq[OutEdge], ctx: SendCtx[TwMsg]): TwState = {

    // outer-join padding: extend the preserved side's rows with nulls for the
    // other relation's columns (shared natural-join columns keep their value)
    def pad(rows: Table, otherRel: String): Table = {
      val otherCols = spec.carry.getOrElse(otherRel, Nil).toSet ++
        (spec.join +: spec.others).flatMap(_.cols.get(otherRel)) + ridCol(otherRel)
      rows.map(r => r ++ (otherCols -- r.keySet).map(_ -> (null: Any)))
    }

    def combine(r0: Table, s0: Table): Table = {
      if (r0.isEmpty && (spec.joinType == Right || spec.joinType == Full)) pad(s0, spec.relR)
      else if (s0.isEmpty && (spec.joinType == Left || spec.joinType == Full)) pad(r0, spec.relS)
      else RowTable.naturalJoin(r0, s0)
    }

    (step, msg) match {
      case (0, None) =>
        // Superstep 1: signal joining tuple vertices via both label sides
        val m = TIds(List(v.id))
        Seq(lr, ls).distinct.foreach(OutEdges.withLabel(edges, _).foreachDst(ctx.send(_, m)))
        s

      case (1, Some(TIds(senders))) =>
        // tuple vertices reply (values first when multi-attribute)
        if (!tupleOk(v)) s
        else {
          val reply: TwMsg =
            if (multi) TVals(Map(v.label -> List((v.id, otherVals(v)))))
            else TRows(Map(v.label -> Vector(projected(v))))
          senders.distinct.foreach(id => ctx.send(id, reply))
          s
        }

      case (2, Some(TVals(byRel))) if multi =>
        // §4.2 intersection of the remaining join-attribute values
        val rv = byRel.getOrElse(spec.relR, Nil)
        val sv = byRel.getOrElse(spec.relS, Nil)
        val surviving = rv.map(_._2).toSet intersect sv.map(_._2).toSet
        (rv ++ sv).foreach { case (id, vals) =>
          if (surviving(vals)) ctx.send(id, TIds(List(v.id)))
        }
        s

      case (3, Some(TIds(senders))) if multi =>
        senders.distinct.foreach(id => ctx.send(id, TRows(Map(v.label -> Vector(projected(v))))))
        s

      case (_, Some(TRows(byRel))) =>
        // final combine at the attribute vertex
        val r = byRel.getOrElse(spec.relR, Vector.empty)
        val t = byRel.getOrElse(spec.relS, Vector.empty)
        if (spec.factorized) s.copy(factorR = r, factorS = t)
        else if (multi) {
          // group by the remaining join attributes, product within groups
          val rG = r.groupBy(row => spec.others.map(a => row.getOrElse(a.col(spec.relR), null)))
          val tG = t.groupBy(row => spec.others.map(a => row.getOrElse(a.col(spec.relS), null)))
          val out = rG.iterator.flatMap { case (k, rr) =>
            tG.get(k).map(tt => RowTable.naturalJoin(rr, tt)).getOrElse(Vector.empty)
          }.toVector
          s.copy(output = out)
        } else s.copy(output = combine(r, t))

      case _ => s
    }
  }
}

/** Driver helpers for the two-way join: runs the program and assembles the
  * distributed output (plus null-key dangling tuples for outer joins, which
  * have no attribute vertex to represent them).
  */
object TwoWayJoin {

  def run(engine: BspEngine, spec: TwoWaySpec,
      relRows: Map[String, Table] = Map.empty): (Table, BspStats) = {
    val run = engine.run(new TwoWayJoinProgram(spec))
    var out = run.mapStates((_, s) => s.output)
    // outer joins: preserved-side tuples with a NULL join key never reach an
    // attribute vertex; append them null-padded from the relation itself
    def nullKeyRows(rel: String, other: String): Table = {
      val keyCol = spec.join.col(rel)
      relRows.getOrElse(rel, Vector.empty)
        .filter(r => r.getOrElse(keyCol, null) == null)
        .filter(r => spec.tupleFilter.get(rel).forall(_(r)))
        .map { r =>
          val keep = spec.carry.getOrElse(rel, Nil).toSet + repro.tag.ridCol(rel)
          val padded = spec.carry.getOrElse(other, Nil).map(_ -> (null: Any)).toMap
          r.view.filterKeys(keep).toMap ++ padded
        }
    }
    spec.joinType match {
      case JoinType.Left  => out = out ++ nullKeyRows(spec.relR, spec.relS)
      case JoinType.Right => out = out ++ nullKeyRows(spec.relS, spec.relR)
      case JoinType.Full  => out = out ++ nullKeyRows(spec.relR, spec.relS) ++ nullKeyRows(spec.relS, spec.relR)
      case JoinType.Inner => ()
    }
    (out.map(_.filterNot { case (k, _) => repro.tag.isRidCol(k) }), run.stats)
  }

  /** Factorized output (§4.1): per join value, the two factor tables. */
  def runFactorized(engine: BspEngine, spec: TwoWaySpec): (Vector[(Any, Table, Table)], BspStats) = {
    val run = engine.run(new TwoWayJoinProgram(spec.copy(factorized = true)))
    val out = run.mapStates { (v, s) =>
      if (s.factorR.nonEmpty || s.factorS.nonEmpty) Some((v.value, s.factorR, s.factorS)) else None
    }
    (out, run.stats)
  }
}
