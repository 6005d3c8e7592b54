package repro.bsp

import repro.SparkSpec
import repro.core._
import repro.tag.TagGraphBuilder
import repro.workload.{ResultCheck, TpchQueries, Workload}

/** The same vertex programs on the Spark-distributed engine (GraphX-derived
  * TAG graph, reduceByKey message delivery) must agree with the shared-memory
  * engine — the paper's single-server vs cluster portability claim.
  */
class DistributedEngineSpec extends SparkSpec {

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
}
