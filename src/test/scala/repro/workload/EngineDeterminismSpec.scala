package repro.workload

import repro.SparkSpec
import repro.bsp.LocalBspEngine
import repro.core.TagJoinExecutor
import repro.tag.{TagGraphBuilder, TagRelation, Tup}

/** The paper's cost measures (supersteps and messages per superstep, §2 and
  * §5.2.1) do not depend on how the local engine schedules its threads:
  * every TPC-H-lite and TPC-DS-lite query has the same `BspStats` in every
  * pass, and the same rows, on 1, 2 and 8 threads.
  */
class EngineDeterminismSpec extends SparkSpec {

  private val threadCounts = Seq(1, 2, 8)
  private val sf = 0.005

  /** One executor per thread count, over one load of `wl`'s tables. */
  private def executors(wl: Workload): Seq[TagJoinExecutor] = {
    val rels = wl.relationSpecs.map { case (n, df, ac) => TagRelation.fromDataFrame(n, df, ac) }
    threadCounts.map(t => new TagJoinExecutor(rels, rs => new LocalBspEngine(TagGraphBuilder.local(rs), t)))
  }

  private lazy val tpch = executors(TpchQueries.workload(spark, sf))
  private lazy val ds = executors(DsQueries.workload(spark, sf))

  /** Rows as a multiset; doubles to 12 significant digits, because the
    * aggregator may sum in another order on another thread count.
    */
  private def canon(rows: Vector[Tup]): Map[Seq[(String, String)], Int] =
    rows.map(_.toSeq.sortBy(_._1).map {
      case (k, d: Double) => k -> f"$d%.11e"
      case (k, v)         => k -> String.valueOf(v)
    }).groupBy(identity).view.mapValues(_.size).toMap

  for ((suite, queries, exs) <- Seq(("TPC-H", TpchQueries.queries, () => tpch),
      ("TPC-DS", DsQueries.queries, () => ds)); q <- queries) {
    test(s"$suite ${q.name}: stats and rows are the same on ${threadCounts.mkString("/")} threads") {
      val results = exs().map(Workload.runTag(_, q))
      val base = results.head
      assert(base.stats.nonEmpty)
      threadCounts.zip(results).tail.foreach { case (t, r) =>
        assert(r.stats == base.stats, s"threads=$t")
        assert(canon(r.rows) == canon(base.rows), s"threads=$t")
      }
    }
  }
}
