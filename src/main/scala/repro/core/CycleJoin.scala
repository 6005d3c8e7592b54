package repro.core

import repro.bsp._
import repro.core.RowTable.Table
import repro.tag.{ridCol, Tup}

/** Specification of an n-way cycle query (§6.2):
  * `R1(X1,X2) ⋈ R2(X2,X3) ⋈ … ⋈ Rn(Xn,X1)` — X_i is the join attribute
  * shared by R_{i-1} and R_i (X1 shared by Rn and R1). Relations may carry
  * payload columns (§6.4.1 reduces wider relations to this binary pattern).
  */
final case class CycleSpec(
    rels: Vector[String],    // R1..Rn in cycle order
    attrs: Vector[JoinAttr], // X1..Xn; attrs(i-1) = X_i joins R_{i-1} ↔ R_i
    tupleFilter: Map[String, Tup => Boolean] = Map.empty,
    carry: Map[String, Seq[String]] = Map.empty,
    theta: Option[Double] = None, // heavy/light threshold; None = vanilla (§6.1.1 PK-FK)
) extends Serializable {
  def n: Int = rels.length
  /** X_i, 1-based with wrap-around. */
  def x(i: Int): JoinAttr = attrs(((i - 1) % n + n) % n)
  /** R_i, 1-based with wrap-around. */
  def r(i: Int): String = rels(((i - 1) % n + n) % n)
}

/** Messages of the cycle pass. All maps are keyed by the anchor value (the
  * X1 — or X2 in the light pass — value whose cycle membership is being
  * tested); sender-id sets realize the per-anchor edge marking of §6.2.
  */
sealed trait CycMsg extends Serializable
object CycMsg {
  final case class Wake(from: Set[Long]) extends CycMsg
  final case class Red(side: Char, anchors: Map[Any, Set[Long]]) extends CycMsg
  final case class Sig(side: Char, from: Map[Any, Set[Long]]) extends CycMsg
  final case class Tab(side: Char, tables: Map[Any, Table]) extends CycMsg
  /** Different phases/sides can land on one vertex in one superstep. A Mix
    * holds at most one part per (kind, side), in [[slot]] order, so merging
    * the same messages in any order gives the same parts.
    */
  final case class Mix(msgs: Vector[CycMsg]) extends CycMsg

  /** (kind, side) of a part; parts of one slot merge into one. */
  private def slot(m: CycMsg): (Int, Char) = m match {
    case Wake(_)      => (0, ' ')
    case Red(side, _) => (1, side)
    case Sig(side, _) => (2, side)
    case Tab(side, _) => (3, side)
    case Mix(_)       => sys.error("nested Mix")
  }

  private def union[V](a: Map[Any, V], b: Map[Any, V])(f: (V, V) => V): Map[Any, V] =
    b.foldLeft(a) { case (m, (k, v)) => m.updated(k, m.get(k).fold(v)(f(_, v))) }

  /** Merge two parts of the same slot. */
  private def mergePart(a: CycMsg, b: CycMsg): CycMsg = (a, b) match {
    case (Wake(x), Wake(y))       => Wake(x ++ y)
    case (Red(s, m1), Red(_, m2)) => Red(s, union(m1, m2)(_ ++ _))
    case (Sig(s, m1), Sig(_, m2)) => Sig(s, union(m1, m2)(_ ++ _))
    case (Tab(s, t1), Tab(_, t2)) => Tab(s, union(t1, t2)(_ ++ _))
    case _                        => sys.error(s"not one slot: $a / $b")
  }

  def merge(a: CycMsg, b: CycMsg): CycMsg = {
    val (xs, ys) = (parts(a), parts(b))
    if (xs.size == 1 && ys.size == 1 && slot(xs.head) == slot(ys.head)) mergePart(xs.head, ys.head)
    else {
      val bySlot = (xs ++ ys).groupBy(slot).view.mapValues(_.reduce(mergePart))
      Mix(bySlot.toVector.sortBy(_._1).map(_._2))
    }
  }

  def parts(m: CycMsg): Vector[CycMsg] = m match {
    case Mix(xs) => xs
    case other   => Vector(other)
  }
}

final case class CycState(
    lightRelay: Boolean = false, // R1 tuple relaying a light wake-up
    // keys are (side, path position, anchor value): one physical attribute
    // vertex can occupy several path positions when key domains overlap
    reached: Map[(Char, Int, Any), Set[Long]] = Map.empty, // reduction predecessors
    sigFrom: Map[(Char, Int, Any), Set[Long]] = Map.empty, // signalled successors
    tabs: Map[(Char, Any), Table] = Map.empty,        // meeting-vertex side tables
    emitted: Set[Any] = Set.empty,
    output: Table = Vector.empty,
) extends Serializable

/** One pass (heavy, light, or vanilla) of the §6 cyclic TAG-join.
  *
  * Phases: (a) light wake-up (2 supersteps, light pass only — the anchor
  * moves from X1 to X2 via the light R1 tuples); (b) reduction — anchor
  * values propagate along both cycle directions to the meeting attribute
  * X_{⌈n/2⌉+1}, each hop recording per-anchor predecessor marks; (c)
  * signal-back — the meeting vertices intersect left/right anchor sets and
  * signal the survivors back over the marks, each hop recording per-anchor
  * successors; (d) collection — tuples flow forward again over signalled
  * paths and are joined per anchor at the meeting vertices (the output is
  * left distributed there).
  *
  * Heaviness is decided locally from the R1.X1 out-degree of the anchor
  * vertex (§6.1.2). `CycleJoin.run` unions a heavy and a light pass, or runs
  * a single vanilla pass for PK-FK cycles (§6.1.1).
  */
final class CyclePassProgram(spec: CycleSpec, mode: CyclePassProgram.Mode)
    extends VertexProgram[CycState, CycMsg] {
  import CycMsg._
  import CyclePassProgram._

  private val n = spec.n
  private val m = math.ceil(n / 2.0).toInt + 1 // meeting attribute index X_m

  private def lbl(rel: String, a: JoinAttr): String = s"$rel.${a.col(rel)}"

  private val light = mode == Light
  private val anchorIdx = if (light) 2 else 1

  /** Forward label paths from the anchor attribute X_a to the meeting X_m:
    * left ascends (X_a → R_a → X_{a+1} → …), right descends with wrap-around
    * (X_a → R_{a-1} → X_{a-1} → …).
    */
  private val pathL: Vector[String] = {
    val b = Vector.newBuilder[String]
    var i = anchorIdx
    while (i != m) {
      b += lbl(spec.r(i), spec.x(i))
      b += lbl(spec.r(i), spec.x(i + 1))
      i += 1
    }
    b.result()
  }
  private val pathR: Vector[String] = {
    val b = Vector.newBuilder[String]
    var i = anchorIdx
    while (i != m) {
      val prev = if (i == 1) n else i - 1
      b += lbl(spec.r(prev), spec.x(i))
      b += lbl(spec.r(prev), spec.x(prev))
      i = prev
      // descending from X_a wraps: a → a-1 → … → 1 → n → … → m
      if (i == anchorIdx) sys.error("cycle path failed to reach meeting attribute")
    }
    b.result()
  }

  private def path(side: Char): Vector[String] = if (side == 'L') pathL else pathR
  private val maxLen = math.max(pathL.length, pathR.length)
  private val preSteps = if (light) 2 else 0
  private val redEnd = preSteps + maxLen
  override val maxSteps: Int = preSteps + 3 * maxLen + 2

  private val r1x1 = lbl(spec.r(1), spec.x(1))
  private val rnx1 = lbl(spec.r(n), spec.x(1))
  private val r1x2 = lbl(spec.r(1), spec.x(2))

  private def tupleOk(v: VertexInfo): Boolean =
    spec.tupleFilter.get(v.label).forall(_(v.tuple))

  private def projected(v: VertexInfo): Tup = {
    val keep = spec.carry.getOrElse(v.label, Nil).toSet + ridCol(v.label)
    v.tuple.view.filterKeys(keep).toMap
  }

  override def initialState(v: VertexInfo): CycState = CycState()

  /** X1-attribute vertices adjacent to both R1 and Rn start the computation
    * (§6.1: a vertex with no R.A or T.A edge deactivates itself).
    */
  override def initiallyActive(v: VertexInfo, s: CycState, edges: IndexedSeq[OutEdge]): Boolean =
    !v.isTuple && edges.exists(_.label == r1x1) && edges.exists(_.label == rnx1)

  override def merge(a: CycMsg, b: CycMsg): CycMsg = CycMsg.merge(a, b)

  override def compute(step: Int, v: VertexInfo, s: CycState, msg: Option[CycMsg],
      edges: IndexedSeq[OutEdge], ctx: SendCtx[CycMsg]): CycState = {

    def startReduction(st: CycState): CycState = {
      val red = (side: Char) => Red(side, Map(v.value -> Set(v.id)))
      edges.foreach { e =>
        if (e.label == path('L')(0)) ctx.send(e.dst, red('L'))
        if (e.label == path('R')(0)) ctx.send(e.dst, red('R'))
      }
      st
    }

    if (step == 0) {
      // anchor selection at X1 attributes, by local R1.X1 degree (§6.1.2)
      val deg = edges.count(_.label == r1x1)
      mode match {
        case Vanilla => return startReduction(s)
        case Heavy   => return if (deg > spec.theta.get) startReduction(s) else s
        case Light =>
          if (deg <= spec.theta.get)
            edges.foreach(e => if (e.label == r1x1) ctx.send(e.dst, Wake(Set(v.id))))
          return s
      }
    }

    var st = s
    var meet = false
    val touchedMeeting = scala.collection.mutable.Set.empty[(Char, Any)]

    parts(msg.get).foreach {
      case Wake(_) =>
        if (light && step == 1 && v.isTuple) {
          // light R1 tuples relay the wake-up to their X2 value
          if (tupleOk(v)) {
            st = st.copy(lightRelay = true)
            edges.foreach(e => if (e.label == r1x2) ctx.send(e.dst, Wake(Set(v.id))))
          }
        } else if (light && step == 2 && !v.isTuple) {
          // awakened X2 attributes are the light-pass anchors
          st = startReduction(st)
        }

      case Red(side, anchors0) =>
        val pos = step - preSteps // 1-based position on `side`'s path
        val anchors =
          if (v.isTuple && (!tupleOk(v) ||
              (light && side == 'R' && pos == 1 && !st.lightRelay))) Map.empty[Any, Set[Long]]
          else anchors0
        if (anchors.nonEmpty) {
          val upd = anchors.foldLeft(st.reached) { case (m0, (a, snd)) =>
            m0.updated((side, pos, a), m0.getOrElse((side, pos, a), Set.empty) ++ snd)
          }
          st = st.copy(reached = upd)
          val len = path(side).length
          if (pos < len) {
            val fwd = Red(side, anchors.keysIterator.map(a => a -> Set(v.id)).toMap)
            edges.foreach(e => if (e.label == path(side)(pos)) ctx.send(e.dst, fwd))
          } else if (step == redEnd) {
            // meeting vertex on the longer side: intersect and signal back,
            // once both sides' parts of this step are recorded
            meet = true
          }
          // (shorter-side arrivals before redEnd just record marks; the
          //  longer side's arrival at redEnd triggers the intersection)
        }

      case Sig(side, from) =>
        val backPos = path(side).length - (step - redEnd) // position from anchor
        val upd = from.foldLeft(st.sigFrom) { case (m0, (a, snd)) =>
          m0.updated((side, backPos, a), m0.getOrElse((side, backPos, a), Set.empty) ++ snd)
        }
        st = st.copy(sigFrom = upd)
        if (backPos > 0) {
          // relay towards the anchor over per-anchor marks
          from.keysIterator.foreach { a =>
            st.reached.getOrElse((side, backPos, a), Set.empty).foreach { id =>
              ctx.send(id, Sig(side, Map(a -> Set(v.id))))
            }
          }
        } else {
          // anchor attribute: start the collection flow with an identity table
          from.foreach { case (a, ids) =>
            ids.foreach(id => ctx.send(id, Tab(side, Map(a -> Vector(Map.empty[String, Any])))))
          }
        }

      case Tab(side, tables) =>
        val len = path(side).length
        val pos = step - redEnd - len // position from anchor on the collection flow
        val joined: Map[Any, Table] = tables.view.mapValues { t =>
          if (v.isTuple) RowTable.naturalJoin(t, Vector(projected(v))) else t
        }.toMap
        if (pos < len) {
          joined.foreach { case (a, t) =>
            if (t.nonEmpty)
              st.sigFrom.getOrElse((side, pos, a), Set.empty)
                .foreach(id => ctx.send(id, Tab(side, Map(a -> t))))
          }
        } else {
          // meeting vertex: stash side tables, join when both sides present
          joined.foreach { case (a, t) =>
            st = st.copy(tabs = st.tabs.updated((side, a),
              st.tabs.getOrElse((side, a), Vector.empty) ++ t))
            touchedMeeting += ((side, a))
          }
        }

      case Mix(_) => sys.error("nested Mix")
    }
    if (meet) signalBack(v, st, ctx)

    // Emit joined cycles for anchors whose both sides have now arrived.
    touchedMeeting.map(_._2).foreach { a =>
      if (!st.emitted(a)) {
        (st.tabs.get(('L', a)), st.tabs.get(('R', a))) match {
          case (Some(l), Some(r)) =>
            val rows = RowTable.naturalJoin(l, r)
              .map(_.filterNot { case (k, _) => repro.tag.isRidCol(k) })
            st = st.copy(output = st.output ++ rows, emitted = st.emitted + a)
          case _ => ()
        }
      }
    }
    st
  }

  /** Meeting-vertex intersection + signal-back kickoff (§6.2). */
  private def signalBack(v: VertexInfo, st: CycState, ctx: SendCtx[CycMsg]): Unit = {
    val lLen = pathL.length
    val rLen = pathR.length
    val lAnchors = st.reached.keysIterator.collect { case ('L', p, a) if p == lLen => a }.toSet
    val rAnchors = st.reached.keysIterator.collect { case ('R', p, a) if p == rLen => a }.toSet
    val survivors = lAnchors intersect rAnchors
    survivors.foreach { a =>
      Seq(('L', lLen), ('R', rLen)).foreach { case (side, len) =>
        st.reached.getOrElse((side, len, a), Set.empty).foreach { id =>
          ctx.send(id, Sig(side, Map(a -> Set(v.id))))
        }
      }
    }
  }
}

object CyclePassProgram {
  sealed trait Mode extends Serializable
  case object Vanilla extends Mode
  case object Heavy extends Mode
  case object Light extends Mode
}

/** Driver for the cyclic TAG-join: a single vanilla pass for PK-FK cycles
  * (θ unset), or a heavy pass ∪ light pass with θ = √IN otherwise (§6.1.2).
  */
object CycleJoin {

  def run(engine: BspEngine, spec: CycleSpec): (Vector[Tup], Vector[BspStats]) = {
    if (spec.theta.isEmpty) {
      val r = engine.run(new CyclePassProgram(spec, CyclePassProgram.Vanilla))
      (r.mapStates((_, s) => s.output), Vector(r.stats))
    } else {
      val h = engine.run(new CyclePassProgram(spec, CyclePassProgram.Heavy))
      val l = engine.run(new CyclePassProgram(spec, CyclePassProgram.Light))
      (h.mapStates((_, s) => s.output) ++ l.mapStates((_, s) => s.output),
        Vector(h.stats, l.stats))
    }
  }
}
