package repro.workload

import repro.OracleSpec.duckdb
import repro.SparkSpec
import repro.core.{TagJoinExecutor, UnsupportedQuery}

/** Every TPC-H-lite query: TAG-join output ≡ Spark SQL (Catalyst) output,
  * and the shared SQL ≡ DuckDB (so the baseline itself is oracle-checked).
  */
class TpchCorrectnessSpec extends SparkSpec {

  private lazy val wl = TpchQueries.workload(spark, 0.002)
  private lazy val ex: TagJoinExecutor = {
    wl.tables.foreach { case (n, df) => df.cache().createOrReplaceTempView(n) }
    TagJoinExecutor.local(wl.relationSpecs)
  }

  for (q <- TpchQueries.queries) {
    test(s"TPC-H ${q.name} (${q.category}): TAG-join matches Spark SQL") {
      val tag = Workload.runTag(ex, q)
      ResultCheck.assertSame(tag, spark.sql(q.sql), q.name)
    }
  }

  for (qn <- Seq("q1", "q3", "q6", "q12", "q14", "q17", "q19")) {
    test(s"TPC-H $qn: Spark SQL matches the DuckDB oracle") {
      ex // force temp-view registration
      val q = wl.query(qn)
      val needed = q.spec.relations match {
        case Nil  => wl.tables.keys.toSeq
        case rels => rels
      }
      ResultCheck.assertSame(spark.sql(q.sql),
        duckdb(q.sql, needed.map(n => n -> wl.tables(n)): _*), qn)
    }
  }

  test("TPC-H q1 and q19 at SF 0.05: TAG-join matches Spark SQL") {
    // Their sums over ~3e5 lineitem rows run in another order than Spark's,
    // so the two results differ in the last bits. A separate session keeps
    // these tables out of the SF 0.002 views the other tests query.
    val session = spark.newSession()
    val big = TpchQueries.workload(session, 0.05)
    big.tables.foreach { case (n, df) => df.createOrReplaceTempView(n) }
    val bigEx = TagJoinExecutor.local(big.relationSpecs)
    for (qn <- Seq("q1", "q19")) {
      val q = big.query(qn)
      ResultCheck.assertSame(Workload.runTag(bigEx, q), session.sql(q.sql), s"$qn at SF 0.05")
    }
  }

  test("TPC-H q5 result is non-trivial (cycle machinery actually ran)") {
    val r = Workload.runTag(ex, wl.query("q5"))
    assert(r.rows.nonEmpty)
    assert(r.stats.size >= 2) // cycle pass + residual acyclic pass
  }

  test("TPC-H q5 whose cycle bag is empty returns Spark SQL's empty result") {
    val q5 = wl.query("q5")
    val none = q5.copy(
      spec = q5.spec.copy(tupleFilter = q5.spec.tupleFilter + ("orders" -> (_ => false))),
      sql = q5.sql.replace("GROUP BY n_name", "  AND o_orderkey < 0\nGROUP BY n_name"))
    val want = spark.sql(none.sql)
    assert(want.isEmpty)
    ResultCheck.assertSame(Workload.runTag(ex, none), want, "q5 with no orders")
  }

  test("TPC-H q17 is answered under root part and rejected under root lineitem") {
    // the correlated filter runs at partkey vertices, which lineitem's rows
    // pass only when part is the root
    val q17 = wl.query("q17")
    ResultCheck.assertSame(ex.execute(q17.spec.copy(rootRel = Some("part"))), spark.sql(q17.sql), "q17")
    intercept[UnsupportedQuery](ex.execute(q17.spec.copy(rootRel = Some("lineitem"))))
  }

  test("TPC-H q4 semijoin reduction uses the bottom-up pass only") {
    val r = Workload.runTag(ex, wl.query("q4"))
    // schedule has 2 labels; semijoin-only runs UP + final = few supersteps
    assert(r.stats.head.supersteps <= 5)
  }

  test("TPC-H reduction communication is bounded by graph size (§5.2.1)") {
    val r = Workload.runTag(ex, wl.query("q3"))
    val in = wl.tables("lineitem").count() + wl.tables("orders").count() +
      wl.tables("customer").count()
    // each superstep sends at most O(IN) messages
    assert(r.stats.head.messagesPerStep.forall(_ <= 3 * in))
  }
}
