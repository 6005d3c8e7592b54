package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.TagJoinExecutor
import repro.workload._

/** Tables 16 & 17 — the distributed experiment (§8.6): TAG-join on the
  * Spark-distributed BSP engine vs Spark SQL over the same session, on a
  * query subset (cluster-of-6 → local[*] Spark, DESIGN.md substitution #6).
  * Also records total shuffle bytes per system — the Fig. 9(b) network
  * traffic analog — and asserts that TAG shuffles fewer bytes than Spark SQL
  * over each subset.
  */
class Table16to17DistributedBench extends AnyFunSuite {
  import BenchHarness._

  // Distributed supersteps pay a full Spark-stage round-trip each (the
  // paper's cluster experiment has the same flavor); keep the subset and SF
  // small enough that Tables 16/17 regenerate in minutes.
  private val distSf = 0.002
  private val tpchSubset = Seq("q3", "q4", "q14", "q17")
  private val dsSubset = Seq("q84", "q12", "q42", "q98")

  private def distTable(name: String, subset: Seq[String], tableNo: Int): Unit = {
    val e = env(name, distSf)
    use(e)
    val distEx = TagJoinExecutor.distributed(spark, e.wl.relationSpecs)
    var tagShuffle = 0L
    var sparkShuffle = 0L
    val rows = subset.map { qn =>
      val q = e.wl.query(qn)
      val (_, warmTag) = time(Workload.runTag(distEx, q))
      val (_, tTag) = time { tagShuffle += shuffleBytes(Workload.runTag(distEx, q)) }
      spark.sql(q.sql).collect()
      val (_, tSpark) = time { sparkShuffle += shuffleBytes(spark.sql(q.sql).collect()) }
      Console.err.println(f"[bench] dist $name $qn tag=$tTag%.2fs (warm $warmTag%.2fs) spark=$tSpark%.2fs")
      Seq(qn, fmt(tSpark), fmt(tTag))
    }
    table(s"Table $tableNo (repro): distributed runtimes ($name, SF=$distSf), seconds",
      Seq("query", "spark_sql", "TAG_dist"), rows)
    table(s"Fig 9(b) analog ($name): total shuffle bytes over the subset",
      Seq("system", "shuffle MB"),
      Seq(Seq("spark_sql", f"${sparkShuffle / 1e6}%.1f"),
          Seq("TAG_dist", f"${tagShuffle / 1e6}%.1f")))
    // EXPERIMENTS.md's Tables 16/17 claim: TAG shuffles less than Spark SQL.
    assert(tagShuffle < sparkShuffle,
      s"$name: TAG_dist shuffled $tagShuffle bytes, spark_sql $sparkShuffle")
  }

  test("Table 16: distributed TPC-H subset, TAG vs Spark SQL") {
    distTable("tpch", tpchSubset, 16)
  }

  test("Table 17: distributed TPC-DS subset, TAG vs Spark SQL") {
    distTable("tpcds", dsSubset, 17)
  }
}
