package repro.workload

import repro.OracleSpec.duckdb
import repro.SparkSpec
import repro.core.{TagJoinExecutor, UnsupportedQuery}

/** Every TPC-DS-lite query: TAG-join output ≡ Spark SQL output; selected
  * queries additionally oracle-checked on DuckDB.
  */
class DsCorrectnessSpec extends SparkSpec {

  private lazy val wl = DsQueries.workload(spark, 0.003)
  private lazy val ex: TagJoinExecutor = {
    wl.tables.foreach { case (n, df) => df.cache().createOrReplaceTempView(n) }
    TagJoinExecutor.local(wl.relationSpecs)
  }

  for (q <- DsQueries.queries) {
    test(s"TPC-DS ${q.name} (${q.category}): TAG-join matches Spark SQL") {
      ex
      val tag = Workload.runTag(ex, q)
      ResultCheck.assertSame(tag, spark.sql(q.sql), q.name)
    }
  }

  for (qn <- Seq("q3", "q7", "q32", "q37", "q84", "q94", "q98")) {
    test(s"TPC-DS $qn: Spark SQL matches the DuckDB oracle") {
      ex
      val q = wl.query(qn)
      val needed =
        if (q.spec.relations.nonEmpty) q.spec.relations
        else q.blocks.flatMap(_.relations).distinct
      ResultCheck.assertSame(spark.sql(q.sql),
        duckdb(q.sql, needed.map(n => n -> wl.tables(n)): _*), qn)
    }
  }

  test("TPC-DS q32 is answered under root item and rejected under the other roots") {
    // the correlated filter runs at itemkey vertices, which catalog_sales'
    // rows pass only when item is the root
    val q32 = wl.query("q32")
    ResultCheck.assertSame(ex.execute(q32.spec.copy(rootRel = Some("item"))), spark.sql(q32.sql), "q32")
    for (root <- Seq("catalog_sales", "date_dim"))
      intercept[UnsupportedQuery](ex.execute(q32.spec.copy(rootRel = Some(root))))
  }

  test("TPC-DS union-block queries run one TAG pass per block") {
    val r = Workload.runTag(ex, wl.query("q56"))
    assert(r.stats.size == 3)
  }

  test("TPC-DS LA queries produce one output row per surviving group") {
    val r = Workload.runTag(ex, wl.query("q7"))
    assert(r.rows.map(_("i_item_id")).distinct.size == r.rows.size)
  }
}
