package repro.core

import repro.bsp._
import repro.core.RowTable.Table
import repro.tag.{ridCol, Tup}

/** The §6.3 distributed Cartesian product `R × S` via the global aggregator
  * vertex: (1) both sides register their ids with the aggregator; (2) the
  * aggregator transmits the R-vertex ids to every S-tuple vertex; (3) each
  * S vertex sends its tuple to every R vertex; (4) each R vertex combines,
  * leaving the product distributed over the R-tuple vertices.
  */
sealed trait CpMsg extends Serializable
object CpMsg {
  final case class Reg(r: Set[Long], s: Set[Long]) extends CpMsg
  final case class RIds(ids: Vector[Long]) extends CpMsg
  final case class SRows(rows: Table) extends CpMsg

  def merge(a: CpMsg, b: CpMsg): CpMsg = (a, b) match {
    case (Reg(r1, s1), Reg(r2, s2)) => Reg(r1 ++ r2, s1 ++ s2)
    case (RIds(x), RIds(y))         => RIds((x ++ y).distinct)
    case (SRows(x), SRows(y))       => SRows(x ++ y)
    case _                          => sys.error(s"phase-mixed cartesian messages: $a / $b")
  }
}

final case class CpState(output: Table = Vector.empty) extends Serializable

final class CartesianProductProgram(
    relR: String, relS: String,
    tupleFilter: Map[String, Tup => Boolean] = Map.empty,
    carry: Map[String, Seq[String]] = Map.empty,
) extends VertexProgram[CpState, CpMsg] {
  import CpMsg._

  override val maxSteps: Int = 4

  private def tupleOk(v: VertexInfo): Boolean = tupleFilter.get(v.label).forall(_(v.tuple))
  private def projected(v: VertexInfo): Tup = {
    val keep = carry.getOrElse(v.label, Nil).toSet + ridCol(v.label)
    v.tuple.view.filterKeys(keep).toMap
  }

  override def initialState(v: VertexInfo): CpState = CpState()

  override def initiallyActive(v: VertexInfo, s: CpState, edges: IndexedSeq[OutEdge]): Boolean =
    v.isTuple && (v.label == relR || v.label == relS) && tupleOk(v)

  override val startLabels: Option[Set[String]] = Some(Set(relR, relS))

  override def merge(a: CpMsg, b: CpMsg): CpMsg = CpMsg.merge(a, b)

  override def aggregatorCompute(step: Int, merged: CpMsg): Iterator[(Long, CpMsg)] = merged match {
    case Reg(r, s) => s.iterator.map(sid => sid -> RIds(r.toVector))
    case _         => Iterator.empty
  }

  override def compute(step: Int, v: VertexInfo, s: CpState, msg: Option[CpMsg],
      edges: IndexedSeq[OutEdge], ctx: SendCtx[CpMsg]): CpState = (step, msg) match {
    case (0, None) =>
      val reg = if (v.label == relR) Reg(Set(v.id), Set.empty) else Reg(Set.empty, Set(v.id))
      ctx.send(VertexProgram.AggregatorId, reg)
      s
    case (_, Some(RIds(ids))) =>
      ids.foreach(id => ctx.send(id, SRows(Vector(projected(v)))))
      s
    case (_, Some(SRows(rows))) =>
      s.copy(output = RowTable.naturalJoin(rows, Vector(projected(v))))
    case _ => s
  }
}

object CartesianProduct {
  def run(engine: BspEngine, relR: String, relS: String,
      tupleFilter: Map[String, Tup => Boolean] = Map.empty,
      carry: Map[String, Seq[String]] = Map.empty): (Table, BspStats) = {
    val run = engine.run(new CartesianProductProgram(relR, relS, tupleFilter, carry))
    val out = run.mapStates((_, s) => s.output)
    (out.map(_.filterNot { case (k, _) => repro.tag.isRidCol(k) }), run.stats)
  }
}
