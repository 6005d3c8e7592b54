package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bsp._
import repro.tag._

import scala.annotation.tailrec

/** Result of a TAG-join query: output rows (driver-collected; the engines
  * leave results distributed, this gathers them), the output column order,
  * and the BSP stats of every pass that ran.
  */
final case class QueryResult(rows: Vector[Tup], columns: Seq[String], stats: Vector[BspStats])

/** Single-table scan + aggregation program (TPC-H q1/q6 shape): one superstep
  * in which the relation's tuple vertices evaluate the pushed selection and
  * stream partial aggregates to the global aggregator vertex (§7).
  */
final class ScanProgram(rel: String, spec: QuerySpec) extends VertexProgram[JState, JoinMsg] {
  override val maxSteps: Int = 2
  override def initialState(v: VertexInfo): JState = JState.Empty
  override def initiallyActive(v: VertexInfo, s: JState, edges: IndexedSeq[OutEdge]): Boolean =
    v.isTuple && v.label == rel && spec.tupleFilter.get(rel).forall(_(v.tuple))
  override def merge(a: JoinMsg, b: JoinMsg): JoinMsg = JoinMsg.merge(a, b)
  override def compute(step: Int, v: VertexInfo, s: JState, msg: Option[JoinMsg],
      edges: IndexedSeq[OutEdge], ctx: SendCtx[JoinMsg]): JState = {
    if (step == 0) {
      spec.aggMode match {
        case AggMode.Global | AggMode.Scalar =>
          ctx.send(VertexProgram.AggregatorId,
            JoinMsg.Agg(Partials.ofRow(v.tuple, spec.groupBy, spec.aggs)))
          s
        case _ =>
          val keep = spec.carry.getOrElse(rel, Nil).toSet
          s.copy(output = Vector(v.tuple.view.filterKeys(keep).toMap))
      }
    } else s
  }
}

/** End-to-end TAG-join (§6.4): GYO-decompose the query; acyclic queries run
  * Algorithm 2 directly; a cyclic core is evaluated by the §6.2 cycle pass
  * into an intermediate relation, which is re-encoded as a TAG relation and
  * joined acyclically with the residual relations (the GYM-style two-stage
  * plan of §6.4).
  *
  * Each query is planned from its [[QuerySpec]] alone before any engine
  * runs (§5.2.1: the plan and its supersteps depend only on the query), so
  * every [[UnsupportedQuery]] is raised before the first superstep.
  *
  * @param engineOf builds a BSP engine for a set of TAG relations; called
  *                 once for the base database and once per intermediate
  *                 (bag) result.
  */
final class TagJoinExecutor(
    relations: Seq[TagRelation],
    engineOf: Seq[TagRelation] => BspEngine,
) {
  import TagJoinExecutor._

  private val relByName = relations.map(r => r.name -> r).toMap
  /** The query-independent base engine over the full TAG graph. */
  lazy val baseEngine: BspEngine = engineOf(relations)

  /** Plan `spec`, raising any [[UnsupportedQuery]], then run the plan. */
  def execute(spec: QuerySpec): QueryResult =
    if (spec.relations.size == 1 && spec.joins.isEmpty)
      assemble(spec, baseEngine.run(new ScanProgram(spec.relations.head, spec)))
    else joinTree(spec) match {
      case Right(tree) => runAcyclic(baseEngine, planAcyclic(spec, tree))
      case Left(core)  => runCyclic(spec, orderCycle(spec, core), planResidual(spec, core))
    }

  private def runAcyclic(engine: BspEngine, program: AcyclicJoinProgram): QueryResult =
    assemble(program.spec, engine.run(program))

  private def runCyclic(spec: QuerySpec, cycle: CycleSpec, residual: Option[AcyclicJoinProgram]): QueryResult = {
    val (bagRows, cycStats) = CycleJoin.run(baseEngine, cycle)
    residual match {
      case None => // pure cycle query: aggregate / project the bag rows directly
        val rows =
          if (spec.aggMode == AggMode.NoAgg) bagRows
          else aggregateRows(spec, Partials.ofRows(bagRows, spec.groupBy, spec.aggs))
        QueryResult(rows, outputColumns(spec), cycStats)
      case Some(program) =>
        val bag = TagRelation(Bag,
          bagRows.zipWithIndex.map { case (r, i) => r + (ridCol(Bag) -> (i.toLong: Any)) },
          program.spec.joins.flatMap(_.cols.get(Bag)).distinct)
        val engine = engineOf(program.spec.relations.map(r => if (r == Bag) bag else relByName(r)))
        val r = runAcyclic(engine, program)
        r.copy(stats = cycStats ++ r.stats)
    }
  }

  private def assemble(spec: QuerySpec, run: BspRun[JState, JoinMsg]): QueryResult = {
    val rows = spec.aggMode match {
      case AggMode.Global | AggMode.Scalar =>
        aggregateRows(spec, run.aggregate.collect { case JoinMsg.Agg(p) => p }.getOrElse(Partials.empty))
      case _ => run.mapStates((_, s) => s.output)
    }
    QueryResult(rows, outputColumns(spec), Vector(run.stats))
  }
}

object TagJoinExecutor {

  /** Name of the TAG relation that holds a cycle pass's output (§6.4). */
  private val Bag = "cycbag"

  // --------------------------------------------------------------- planning

  /** GYO over the query's join graph: `Left` holds the cyclic core. A
    * disconnected graph, which GYO cannot reduce either, is rejected.
    */
  private def joinTree(spec: QuerySpec): Either[Seq[String], JoinTree] = {
    @tailrec def reach(seen: Set[String]): Set[String] = {
      val more = seen ++ spec.joins.filter(_.rels.exists(seen)).flatMap(_.rels)
      if (more == seen) seen else reach(more)
    }
    val apart = spec.relations.filterNot(reach(spec.relations.take(1).toSet))
    if (apart.nonEmpty)
      throw new UnsupportedQuery(s"join graph is disconnected: ${apart.mkString(", ")} share no " +
        s"join attribute with ${spec.relations.head} — Cartesian products (§6.3) are not planned")
    JoinTree.gyo(spec.relations, spec.joins)
  }

  private def planAcyclic(spec: QuerySpec, tree0: JoinTree): AcyclicJoinProgram = {
    val joinByName = spec.joins.map(j => j.name -> j).toMap
    // Root selection: LA roots at a relation containing the group attribute;
    // otherwise honor rootRel; otherwise GYO's root.
    val tree = (spec.laAttr, spec.rootRel) match {
      case (Some(a), pref) =>
        val candidates = joinByName(a).rels.filter(tree0.relations)
        val root = pref.filter(candidates).getOrElse(candidates.head)
        tree0.rerootAt(root)
      case (None, Some(r)) => tree0.rerootAt(r)
      case _               => tree0
    }
    val plan = TagPlan.fromJoinTree(tree, spec.laAttr.map(joinByName))
    spec.correlated.foreach { c =>
      if (!filtered(plan.root, c, below = false))
        throw new UnsupportedQuery(s"correlated filter on ${c.rel} never applies: its rows reach " +
          s"the root ${tree.root} without passing attribute ${c.attrName} — root the query on " +
          s"the other side of ${c.attrName}")
    }
    new AcyclicJoinProgram(plan, spec)
  }

  /** Whether `c.rel`'s rows pass an attribute node of `c.attrName`, where the
    * correlated filter runs, on their way up to the plan root.
    */
  private def filtered(node: PlanNode, c: CorrelatedAvg, below: Boolean): Boolean = node match {
    case RelNode(r, kids)  => (r == c.rel && below) || kids.exists(filtered(_, c, below))
    case AttrNode(a, kids) => kids.exists(filtered(_, c, below || a.name == c.attrName))
  }

  /** Order the cyclic core into R1..Rn / X1..Xn (§6.2's binary-cycle shape):
    * R1 is the first core relation, R2 its first neighbour, and X1 closes
    * the cycle from Rn back to R1.
    */
  private[core] def orderCycle(spec: QuerySpec, core: Seq[String]): CycleSpec = {
    def links(r: String): Seq[(String, JoinAttr)] =
      for (j <- spec.joins if j.cols.contains(r); o <- j.cols.keys.toSeq if o != r && core.contains(o))
        yield (o, j)
    def notSimple(r: String) = new UnsupportedQuery(s"cyclic core is not a simple cycle at $r — " +
      "general GHDs beyond single cycles are out of scope (see DESIGN.md)")
    core.find(links(_).size != 2).foreach(r => throw notSimple(r))
    // each hop (R_i, (R_i+1, X_i+1)) leaves R_i+1 by the link it did not arrive on
    val r1 = core.head
    val hops = Iterator.iterate((r1, links(r1).head)) { case (from, (to, x)) =>
      (to, links(to).find(_ != ((from, x))).get)
    }.take(core.size).toVector
    val rels = hops.map(_._1)
    if (rels.distinct.size != core.size) throw notSimple(r1)
    val xs = hops.map(_._2._2) // X2..Xn, then X1
    CycleSpec(rels, xs.last +: xs.init,
      tupleFilter = spec.tupleFilter.view.filterKeys(rels.contains).toMap,
      carry = spec.carry.view.filterKeys(rels.contains).toMap)
  }

  /** §6.4 step 2: the residual relations joined acyclically with the cycle's
    * bag, or `None` when the core is the whole query. The cycle pass outputs
    * exactly the core relations' carried columns, so those are the bag's
    * columns, and join attributes touching the core are remapped to the bag
    * through them.
    */
  private def planResidual(spec: QuerySpec, core: Seq[String]): Option[AcyclicJoinProgram] = {
    val residualRels = spec.relations.filterNot(core.contains)
    if (residualRels.isEmpty) {
      spec.correlated.foreach(c => throw new UnsupportedQuery(
        s"correlated filter on ${c.rel} never applies: a pure cycle query has no attribute node to run it"))
      return None
    }
    val bagCols = core.flatMap(spec.carry.getOrElse(_, Nil)).distinct
    val residualJoins = spec.joins.flatMap { j =>
      val outside = j.cols.view.filterKeys(residualRels.contains).toMap
      val coreSide = j.cols.collectFirst { case (r, c) if core.contains(r) && bagCols.contains(c) => c }
      if (outside.isEmpty) None else Some(JoinAttr(j.name, outside ++ coreSide.map(Bag -> _)))
    }
    val resSpec = spec.copy(
      relations = Bag +: residualRels,
      joins = residualJoins,
      tupleFilter = spec.tupleFilter.view.filterKeys(residualRels.contains).toMap,
      carry = spec.carry.view.filterKeys(residualRels.contains).toMap + (Bag -> bagCols),
      rootRel = spec.rootRel.filter(r => residualRels.contains(r) || r == Bag),
    )
    joinTree(resSpec) match {
      case Right(tree) => Some(planAcyclic(resSpec, tree))
      case Left(more)  => throw new UnsupportedQuery(s"residual query still cyclic: $more")
    }
  }

  // --------------------------------------------------------------- assembly

  private def outputColumns(spec: QuerySpec): Seq[String] =
    if (spec.aggMode == AggMode.NoAgg) spec.carry.values.flatten.toSeq.distinct
    else spec.groupBy ++ spec.aggs.map(_.alias)

  private def aggregateRows(spec: QuerySpec, p: Partials): Vector[Tup] =
    if (p.groups.isEmpty && spec.aggMode == AggMode.Scalar)
      // SQL scalar aggregation over an empty input still yields one row:
      // COUNT is 0, the other aggregates are NULL
      Vector(spec.aggs.map(a =>
        a.alias -> (if (a.func == AggFunc.Count) (0.0: Any) else (null: Any))).toMap)
    else p.rows(spec.groupBy, spec.aggs)

  /** Local shared-memory executor over DataFrame inputs (single-server mode). */
  def local(rels: Seq[(String, DataFrame, Seq[String])]): TagJoinExecutor = {
    val tagRels = rels.map { case (n, df, ac) => TagRelation.fromDataFrame(n, df, ac) }
    new TagJoinExecutor(tagRels, rs => new LocalBspEngine(TagGraphBuilder.local(rs)))
  }

  /** Distributed executor (GraphX-derived adjacency, Spark supersteps). */
  def distributed(spark: SparkSession, rels: Seq[(String, DataFrame, Seq[String])]): TagJoinExecutor = {
    val tagRels = rels.map { case (n, df, ac) => TagRelation.fromDataFrame(n, df, ac) }
    new TagJoinExecutor(tagRels,
      rs => DistributedBspEngine.fromGraph(TagGraphBuilder.graphx(spark, rs)))
  }
}
