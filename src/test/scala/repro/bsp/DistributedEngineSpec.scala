package repro.bsp

import org.apache.spark.util.LongAccumulator
import repro.SparkSpec
import repro.core._
import repro.tag.{TagGraphBuilder, TagRelation}
import repro.workload.{ResultCheck, TpchQueries, Workload}

import scala.reflect.ClassTag

/** The same vertex programs on the Spark-distributed engine (a GraphX view
  * of the CSR TAG graph, one RDD of vertex records zipped with a
  * `reduceByKey` inbox each superstep) must agree with the shared-memory
  * engine — the paper's single-server vs cluster portability claim: the
  * same rows, the same messages per superstep (aggregator answers
  * included), and one `compute` call per active vertex and superstep.
  */
class DistributedEngineSpec extends SparkSpec {
  import DistributedEngineSpec._

  private def ja(name: String, cols: (String, String)*) = JoinAttr(name, cols.toMap)

  private lazy val rels = Seq(
    TestDb.rel("R", Seq("a", "r"), Seq("a"), Seq(Seq(1, "r1"), Seq(2, "r2"), Seq(3, "r3"))),
    TestDb.rel("S", Seq("a", "b", "s"), Seq("a", "b"),
      Seq(Seq(1, 10, "s1"), Seq(2, 20, "s2"), Seq(9, 30, "s3"))),
    TestDb.rel("T", Seq("b", "t"), Seq("b"), Seq(Seq(10, "t1"), Seq(10, "t2"), Seq(20, "t3"))))

  private lazy val distEx =
    new TagJoinExecutor(rels,
      rs => DistributedBspEngine.fromGraph(TagGraphBuilder.graphx(spark, rs)))
  private lazy val localEx =
    new TagJoinExecutor(rels, rs => new LocalBspEngine(TagGraphBuilder.local(rs)))

  private val spec = QuerySpec(Seq("R", "S", "T"),
    Seq(ja("A", "R" -> "a", "S" -> "a"), ja("B", "S" -> "b", "T" -> "b")),
    carry = Map("R" -> Seq("r"), "S" -> Seq("s"), "T" -> Seq("t")),
    rootRel = Some("R"))

  test("distributed acyclic join equals the shared-memory result") {
    val d = distEx.execute(spec)
    val l = localEx.execute(spec)
    assert(TestDb.sameBag(d.rows, l.rows) && d.rows.nonEmpty)
  }

  test("distributed and local engines send the same messages per superstep") {
    val d = distEx.execute(spec)
    val l = localEx.execute(spec)
    assert(d.stats.head.messagesPerStep == l.stats.head.messagesPerStep)
  }

  test("distributed scalar aggregation goes through the aggregator route") {
    val agg = spec.copy(aggs = Seq(AggSpec(AggFunc.Count, _ => 1.0, "cnt")),
      aggMode = AggMode.Scalar)
    val d = distEx.execute(agg)
    val l = localEx.execute(agg)
    assert(d.rows == l.rows)
  }

  test("distributed TPC-H q3 matches Spark SQL") {
    val wl = TpchQueries.workload(spark, 0.001)
    wl.tables.foreach { case (n, df) => df.createOrReplaceTempView(n) }
    val ex = TagJoinExecutor.distributed(spark, wl.relationSpecs)
    val q = wl.query("q3")
    val tag = Workload.runTag(ex, q)
    ResultCheck.assertSame(tag, spark.sql(q.sql), "dist-q3")
  }

  test("CartesianProduct sends the same messages per superstep on both engines") {
    val r = TestDb.rel("R", Seq("x"), Seq("x"), Seq(Seq(1), Seq(2), Seq(3)))
    val s = TestDb.rel("S", Seq("y"), Seq("y"), Seq(Seq("a"), Seq("b")))
    val carry = Map("R" -> Seq("x"), "S" -> Seq("y"))
    val (d, dStats) = CartesianProduct.run(
      DistributedBspEngine.fromGraph(TagGraphBuilder.graphx(spark, Seq(r, s))), "R", "S", carry = carry)
    val (l, lStats) = CartesianProduct.run(TestDb.engine(r, s), "R", "S", carry = carry)
    assert(dStats.messagesPerStep == lStats.messagesPerStep)
    assert(TestDb.sameBag(d, l) && l.size == 6)
  }

  test("each superstep runs compute once per active vertex") {
    val calls = spark.sparkContext.longAccumulator("compute calls")
    def counted(engineOf: Seq[TagRelation] => BspEngine) =
      new TagJoinExecutor(rels, rs => new Counting(engineOf(rs), calls))
    val dist = counted(rs => DistributedBspEngine.fromGraph(TagGraphBuilder.graphx(spark, rs)))
    // one thread: `LongAccumulator.add` is not thread-safe
    val local = counted(rs => new LocalBspEngine(TagGraphBuilder.local(rs), threads = 1))
    val agg = spec.copy(aggs = Seq(AggSpec(AggFunc.Count, _ => 1.0, "cnt")), aggMode = AggMode.Scalar)
    for (q <- Seq(spec, agg)) {
      calls.reset()
      dist.execute(q)
      val d = calls.value
      calls.reset()
      local.execute(q)
      assert(d == calls.value && d > 0)
    }
  }

  private lazy val tpch = {
    val wl = TpchQueries.workload(spark, 0.002)
    val tagRels = wl.relationSpecs.map { case (n, df, ac) => TagRelation.fromDataFrame(n, df, ac) }
    (wl, new TagJoinExecutor(tagRels, rs => DistributedBspEngine.fromGraph(TagGraphBuilder.graphx(spark, rs))),
      new TagJoinExecutor(tagRels, rs => new LocalBspEngine(TagGraphBuilder.local(rs))))
  }

  for (qn <- Seq("q1", "q4", "q6"))
    test(s"TPC-H $qn at SF 0.002 has the same stats and rows on both engines") {
      val (wl, distTpch, localTpch) = tpch
      val d = Workload.runTag(distTpch, wl.query(qn))
      val l = Workload.runTag(localTpch, wl.query(qn))
      assert(d.stats.nonEmpty && d.stats == l.stats)
      ResultCheck.assertSame(d, l, s"dist-vs-local-$qn")
    }
}

object DistributedEngineSpec {

  /** Runs `inner` with every program's `compute` calls counted in `calls`. */
  final class Counting(inner: BspEngine, calls: LongAccumulator) extends BspEngine {
    override def run[S, M](program: VertexProgram[S, M])(implicit
        st: ClassTag[S], mt: ClassTag[M]): BspRun[S, M] = inner.run(new Counted(program, calls))
  }

  final class Counted[S, M](inner: VertexProgram[S, M], calls: LongAccumulator)
      extends VertexProgram[S, M] {
    override def initialState(v: VertexInfo): S = inner.initialState(v)
    override def initiallyActive(v: VertexInfo, s: S, edges: IndexedSeq[OutEdge]): Boolean =
      inner.initiallyActive(v, s, edges)
    override def compute(step: Int, v: VertexInfo, s: S, msg: Option[M],
        edges: IndexedSeq[OutEdge], ctx: SendCtx[M]): S = {
      calls.add(1)
      inner.compute(step, v, s, msg, edges, ctx)
    }
    override def aggregatorCompute(step: Int, merged: M): Iterator[(Long, M)] =
      inner.aggregatorCompute(step, merged)
    override def merge(a: M, b: M): M = inner.merge(a, b)
    override def maxSteps: Int = inner.maxSteps
  }
}
