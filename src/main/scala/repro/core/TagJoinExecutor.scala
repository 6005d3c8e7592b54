package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bsp._
import repro.tag._

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
  * @param engineOf builds a BSP engine for a set of TAG relations; called
  *                 once for the base database and once per intermediate
  *                 (bag) result.
  */
final class TagJoinExecutor(
    relations: Seq[TagRelation],
    engineOf: Seq[TagRelation] => BspEngine,
) {
  private val relByName = relations.map(r => r.name -> r).toMap
  /** The query-independent base engine over the full TAG graph. */
  lazy val baseEngine: BspEngine = engineOf(relations)

  def execute(spec: QuerySpec, cycleTheta: Option[Double] = None): QueryResult = {
    if (spec.relations.size == 1 && spec.joins.isEmpty) return scan(spec)
    JoinTree.gyo(spec.relations, spec.joins) match {
      case Right(tree) => runAcyclic(baseEngine, tree, spec)
      case Left(core)  => runCyclicThenResidual(spec, core, cycleTheta)
    }
  }

  // ------------------------------------------------------------------- scan

  private def scan(spec: QuerySpec): QueryResult = {
    val rel = spec.relations.head
    val run = baseEngine.run(new ScanProgram(rel, spec))
    assemble(spec, run)
  }

  // ---------------------------------------------------------------- acyclic

  private def runAcyclic(engine: BspEngine, tree0: JoinTree, spec: QuerySpec): QueryResult = {
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
    val run = engine.run(new AcyclicJoinProgram(plan, spec))
    assemble(spec, run)
  }

  // ----------------------------------------------------------------- cyclic

  private def runCyclicThenResidual(
      spec: QuerySpec, core: Seq[String], theta: Option[Double]): QueryResult = {
    val cycleSpec = orderCycle(spec, core, theta)
    val (bagRows0, cycStats) = CycleJoin.run(baseEngine, cycleSpec)
    val bagName = "cycbag"
    val bagRows = bagRows0.zipWithIndex.map { case (r, i) => r + (ridCol(bagName) -> (i.toLong: Any)) }

    val residualRels = spec.relations.filterNot(core.contains)
    if (residualRels.isEmpty) {
      // pure cycle query: aggregate / project the bag rows directly
      val cols = spec.groupBy ++ spec.aggs.map(_.alias)
      val result = spec.aggMode match {
        case AggMode.NoAgg => QueryResult(
          bagRows.map(_.filterNot { case (k, _) => isRidCol(k) }), outputColumns(spec), cycStats)
        case _ =>
          val p = Partials.ofRows(bagRows, spec.groupBy, spec.aggs)
          QueryResult(partialRows(spec, Some(p)), cols, cycStats)
      }
      return result
    }

    // Residual acyclic join over {bag} ∪ residual relations on a fresh TAG
    // subgraph (§6.4 step 2). Join attributes touching the core are remapped
    // to the bag via the carried core columns.
    val coreCols = bagRows.headOption.map(_.keySet).getOrElse(Set.empty)
    val residualJoins = spec.joins.flatMap { j =>
      val outside = j.cols.view.filterKeys(residualRels.contains).toMap
      if (outside.isEmpty) None
      else {
        val coreSide = j.cols.collectFirst { case (r, c) if core.contains(r) && coreCols(c) => c }
        Some(JoinAttr(j.name, outside ++ coreSide.map(bagName -> _)))
      }
    }
    val bagAttrCols = residualJoins.flatMap(_.cols.get(bagName)).distinct
    val bagRel = TagRelation(bagName, bagRows, bagAttrCols)
    val resRels = bagRel +: residualRels.map(relByName)
    val resEngine = engineOf(resRels)

    val resSpec = spec.copy(
      relations = bagName +: residualRels,
      joins = residualJoins,
      tupleFilter = spec.tupleFilter.view.filterKeys(residualRels.contains).toMap,
      carry = spec.carry.view.filterKeys(residualRels.contains).toMap +
        (bagName -> (coreCols - ridCol(bagName)).toSeq),
      rootRel = spec.rootRel.filter(r => residualRels.contains(r) || r == bagName),
    )
    JoinTree.gyo(resSpec.relations, resSpec.joins) match {
      case Right(tree) =>
        val r = runAcyclic(resEngine, tree, resSpec)
        r.copy(stats = cycStats ++ r.stats)
      case Left(more) => throw new UnsupportedQuery(s"residual query still cyclic: $more")
    }
  }

  /** Order the cyclic core into R1..Rn / X1..Xn (§6.2's binary-cycle shape). */
  private def orderCycle(spec: QuerySpec, core: Seq[String], theta: Option[Double]): CycleSpec = {
    val coreSet = core.toSet
    val coreJoins = spec.joins.filter(j => j.cols.keysIterator.count(coreSet) >= 2)
    def neighbors(r: String): Seq[(String, JoinAttr)] =
      coreJoins.flatMap { j =>
        if (j.cols.contains(r)) j.cols.keysIterator.filter(o => o != r && coreSet(o)).map(o => (o, j))
        else Nil
      }
    core.foreach { r =>
      if (neighbors(r).map(_._1).distinct.size != 2)
        throw new UnsupportedQuery(s"cyclic core is not a simple cycle at $r — general GHDs " +
          "beyond single cycles are out of scope (see DESIGN.md)")
    }
    // walk the cycle
    val r1 = core.head
    val order = Vector.newBuilder[String]
    val xs = Vector.newBuilder[JoinAttr]
    var prev = r1
    var (cur, firstAttr) = neighbors(r1).head
    // X1 is the attribute between Rn and R1; we walk R1 -> R2 ... collecting
    // X2..Xn then close with X1.
    order += r1
    var linkAttr = firstAttr // attr between prev and cur = X_{i+1}
    val attrsInOrder = Vector.newBuilder[JoinAttr]
    attrsInOrder += firstAttr // X2
    while (cur != r1) {
      order += cur
      val nxt = neighbors(cur).filter { case (o, a) => !(o == prev && a == linkAttr) }.head
      prev = cur
      linkAttr = nxt._2
      attrsInOrder += nxt._2
      cur = nxt._1
    }
    val rels = order.result()
    val collected = attrsInOrder.result() // X2..Xn, X1 (closing attr) in walk order
    val x1 = collected.last
    val attrs = x1 +: collected.dropRight(1)
    CycleSpec(rels, attrs,
      tupleFilter = spec.tupleFilter.view.filterKeys(rels.contains).toMap,
      carry = spec.carry.view.filterKeys(rels.contains).toMap,
      theta = theta)
  }

  // --------------------------------------------------------------- assembly

  private def outputColumns(spec: QuerySpec): Seq[String] = spec.aggMode match {
    case AggMode.NoAgg                   => spec.carry.values.flatten.toSeq.distinct
    case AggMode.Local                   => spec.groupBy ++ spec.aggs.map(_.alias)
    case AggMode.Global | AggMode.Scalar => spec.groupBy ++ spec.aggs.map(_.alias)
  }

  private def partialRows(spec: QuerySpec, agg: Option[Partials]): Vector[Tup] = {
    val groups = agg.map(_.groups).getOrElse(Map.empty)
    if (groups.isEmpty && spec.aggMode == AggMode.Scalar)
      // SQL scalar aggregation over an empty input still yields one row:
      // COUNT is 0, the other aggregates are NULL
      Vector(spec.aggs.map(a =>
        a.alias -> (if (a.func == AggFunc.Count) (0.0: Any) else (null: Any))).toMap)
    else
      groups.iterator.map { case (key, cells) =>
        val base: Tup = spec.groupBy.zip(key).toMap
        base ++ spec.aggs.zip(cells).map { case (a, c) =>
          a.alias -> (a.finish(c.result(a.func)): Any)
        }
      }.toVector
  }

  private def assemble(spec: QuerySpec, run: BspRun[JState, JoinMsg]): QueryResult = {
    val stats = Vector(run.stats)
    spec.aggMode match {
      case AggMode.Global | AggMode.Scalar =>
        val p = run.aggregate.collect { case JoinMsg.Agg(p) => p }
        QueryResult(partialRows(spec, p), outputColumns(spec), stats)
      case _ =>
        val rows = run.mapStates((_, s) => s.output)
        QueryResult(rows, outputColumns(spec), stats)
    }
  }
}

object TagJoinExecutor {

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
