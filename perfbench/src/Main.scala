package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core._
import repro.tag.TagRelation
import repro.workload._

import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Closed-loop TAG-join benchmark: one client runs the workload's queries in a
  * fixed order, each after the previous one returned, and checks every
  * result against a Spark SQL reference outside the timed span.
  *
  * Usage: `Main --workload local|dist --seed N --seconds S --trace 0|1
  * [--trace-out FILE]`. The last line on standard output is the result as
  * one JSON object; everything else goes to standard error.
  */
object Main {

  /** A workload seed `s` shifts every generator seed by `SeedStride * s`, so
    * seed 0 reproduces the generators' default seeds.
    */
  val SeedStride = 1000L
  /** Timed samples a run takes at least: with ten samples beyond it, the
    * tail percentile is then p70 or higher, above the median.
    */
  val MinSamples = 36
  /** Spark partitions and task slots on `dist` (`spark.default.parallelism`
    * and `local[n]`). With one partition per vCPU, the engine's tasks and
    * Spark's scheduler threads compete for the vCPUs of a small host: on 4
    * vCPUs, `dist` ran about 35% slower and its run-to-run spread exceeded
    * the bounds. With 2 partitions but `local[*]` slots, some stages still
    * ran more than 2 tasks at once, and a run's passes switched between two
    * speeds, 1.7 s and 2.4 s, for ten seconds and more at a time.
    */
  val DistPartitions = 2

  /** A workload: databases at scale factor `sf`, and the queries it runs, in
    * order, from each database's catalog. Its timed passes cover about
    * `measureFactor` times the run length. An untraced run sets up
    * `setupReps` times and reports the median; the first set-up of a JVM
    * runs cold, so it is one of several. `warmUpPasses` untimed passes run
    * before the timed ones.
    */
  final case class Bench(name: String, sf: Double, distributed: Boolean, secondsPerPass: Double,
      measureFactor: Double, setupReps: Int, warmUpPasses: Int, dbs: Seq[String],
      queries: Workload => Seq[BenchQuery]) {
    /** Timed passes of `queries` queries for a run of `seconds`. The count
      * is fixed by the run length rather than by a clock, so that every run,
      * on every commit, has the same number of samples and `query_tail_s`
      * always reads the same percentile. It gives at least [[MinSamples]]
      * samples.
      */
    def passes(seconds: Double, queries: Int): Int =
      math.max(math.round(seconds * measureFactor / secondsPerPass).toInt, (MinSamples + queries - 1) / queries)
  }

  /** Queries that never use the global aggregator. */
  def joinClass(q: BenchQuery): Boolean = q.spec.aggMode == AggMode.NoAgg || q.spec.aggMode == AggMode.Local

  // local: every TPC-H-lite and TPC-DS-lite query on the local engine, the
  // message plane, long superstep chains and the cycle bag re-encode (the
  // join class) as well as the global aggregator (the rest). dist: the only
  // workload whose supersteps run as Spark stages. Its figures spread more
  // from run to run, so it measures longer and warms up for three passes.
  // Its set-up takes under 0.3 s, mostly Spark job latency, so it is
  // repeated more often. perfbench/README.md gives the reasons in full.
  val Benches: Map[String, Bench] = Seq(
    Bench("local", 0.05, distributed = false, 4.0, 1.0, 3, 1, Seq("tpch", "tpcds"), _.queries),
    Bench("dist", 0.002, distributed = true, 2.4, 1.3, 7, 3, Seq("tpch"),
      wl => Seq("q1", "q4", "q6").map(wl.query)),
  ).map(b => b.name -> b).toMap

  /** TPC-H-lite tables; the base seeds are the `SynthData` defaults. */
  def tpch(spark: SparkSession, sf: Double, seed: Long): Workload = {
    def s(base: Long) = base + SeedStride * seed
    Workload("tpch", Map(
      "lineitem" -> SynthData.lineitem(spark, sf, s(0)),
      "orders"   -> SynthData.orders(spark, sf, s(1)),
      "customer" -> SynthData.customer(spark, sf, s(2)),
      "part"     -> SynthData.part(spark, sf, s(5)),
      "supplier" -> SynthData.supplier(spark, sf, s(6)),
      "nation"   -> SynthData.nation(spark),
      "region"   -> SynthData.region(spark),
    ), TpchQueries.attrCols, TpchQueries.queries)
  }

  /** TPC-DS-lite tables; the base seeds are the `DsData` defaults. */
  def tpcds(spark: SparkSession, sf: Double, seed: Long): Workload = {
    def s(base: Long) = base + SeedStride * seed
    Workload("tpcds", Map(
      "date_dim"         -> DsData.dateDim(spark),
      "item"             -> DsData.item(spark, sf, s(20)),
      "customer"         -> DsData.customer(spark, sf, s(21)),
      "customer_address" -> DsData.customerAddress(spark, sf, s(22)),
      "store"            -> DsData.store(spark, sf, s(23)),
      "warehouse"        -> DsData.warehouse(spark, sf, s(24)),
      "store_sales"      -> DsData.storeSales(spark, sf, s(30)),
      "catalog_sales"    -> DsData.catalogSales(spark, sf, s(31)),
      "web_sales"        -> DsData.webSales(spark, sf, s(32)),
      "inventory"        -> DsData.inventory(spark, sf, s(33)),
    ), DsQueries.attrCols, DsQueries.queries)
  }

  /** One query of the loop, with the index of its database. */
  final case class Item(db: Int, q: BenchQuery, ref: ResultMatch.Table)

  final case class Exec(query: String, seconds: Double, ok: Boolean, messages: Long, rows: Long)

  final case class Loop(execs: Vector[Exec], passes: Int) {
    /** Correct queries completed per second of timed execution. */
    def queriesPerS: Double = execs.count(_.ok) / execs.map(_.seconds).sum

    /** Each query's median latency over the passes. */
    def queryMedians: Seq[Double] = execs.groupBy(_.query).values.map(es => median(es.map(_.seconds))).toSeq
  }

  private val t0 = System.nanoTime()
  private def log(s: String): Unit =
    Console.err.println(f"[perfbench ${(System.nanoTime() - t0) / 1e9}%6.1fs] $s")

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Heap in use right after a full collection, before anything else is
    * allocated.
    */
  def liveHeap(): Long = {
    System.gc()
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(p => p.getType == MemoryType.HEAP && p.getCollectionUsage != null)
      .map(_.getCollectionUsage.getUsed).sum
  }

  def session(bench: Bench): SparkSession = {
    val b = SparkSession.builder
      .master(if (bench.distributed) s"local[$DistPartitions]" else "local[*]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      // keep the status store from growing with every job, which would
      // show up in heap_mb
      .config("spark.ui.retainedJobs", "1")
      .config("spark.ui.retainedStages", "1")
      .config("spark.ui.retainedTasks", "1")
      .config("spark.sql.ui.retainedExecutions", "1")
    val s = (if (bench.distributed) b.config("spark.default.parallelism", DistPartitions.toLong) else b)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val bench = Benches.getOrElse(args("workload"),
      sys.error(s"unknown workload ${args("workload")}; one of ${Benches.keys.mkString(", ")}"))
    val seed = args.get("seed").map(_.toLong).getOrElse(0L)
    val seconds = args.get("seconds").map(_.toDouble).getOrElse(24.0)
    val trace = args.get("trace").contains("1")

    val spark = session(bench)
    val result =
      try run(spark, bench, seed, seconds, trace, args.get("trace-out"))
      catch { case e: Throwable => spark.stop(); throw e }
    println(result)
    Console.out.flush()
    // Stopping Spark takes about 7 s after a `dist` run, which leaves many
    // cached and shuffle blocks. Nothing is left to write, so the JVM ends
    // here and run.py removes the run's scratch directory.
    Runtime.getRuntime.halt(0)
  }

  def run(spark: SparkSession, bench: Bench, seed: Long, seconds: Double,
      trace: Boolean, traceOut: Option[String]): String = {
    // ---- inputs: generated, cached and counted before any timing
    val dbs = bench.dbs.map {
      case "tpch"  => tpch(spark, bench.sf, seed)
      case "tpcds" => tpcds(spark, bench.sf, seed)
    }
    dbs.foreach(_.tables.values.foreach { df => df.cache(); df.count() })
    log("tables cached")

    // ---- Spark SQL reference, once per query
    val items = dbs.zipWithIndex.flatMap { case (wl, i) =>
      wl.tables.foreach { case (n, df) => df.createOrReplaceTempView(n) }
      bench.queries(wl).map(q => Item(i, q, ResultMatch.fromSpark(spark.sql(q.sql))))
    }
    val names = items.map(it => s"${dbs(it.db).name}.${it.q.name}")
    log(s"workload ${bench.name}: sf=${bench.sf} seed=$seed threads=${Runtime.getRuntime.availableProcessors()} " +
      s"queries=${names.mkString(",")}")

    val metrics =
      if (!trace) endToEnd(spark, bench, dbs, items, names, seconds)
      else perLayer(spark, bench, dbs, items, names, seconds, traceOut)
    val (attempted, failed) = (metrics.attempted, metrics.failed)
    if (failed > 0) log(s"FAILED: ${metrics.failedQueries.mkString(", ")}")
    val body = metrics.values.map { case (k, (v, u)) => s""""$k": {"value": $v, "unit": "$u"}""" }
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${body.mkString(", ")}}}"""
  }

  final case class Metrics(values: Seq[(String, (Double, String))], attempted: Int, failed: Int,
      failedQueries: Seq[String])

  private def load(spark: SparkSession, bench: Bench, wl: Workload): TagJoinExecutor = {
    val ex =
      if (bench.distributed) TagJoinExecutor.distributed(spark, wl.relationSpecs)
      else TagJoinExecutor.local(wl.relationSpecs)
    ex.baseEngine
    ex
  }

  /** Runs every item once per pass, in order, for `passes` passes. Only
    * `Workload.runTag` is timed; results are checked after the clock stops.
    */
  def loop(exs: Seq[TagJoinExecutor], items: Seq[Item], names: Seq[String], passes: Int,
      tracer: Option[Tracer], failures: collection.mutable.Set[String]): Loop = {
    val execs = Vector.newBuilder[Exec]
    var qid = 0
    for (_ <- 1 to passes; (it, name) <- items.zip(names)) {
      tracer.foreach(_.qid = qid)
      qid += 1
      def exec() = Workload.runTag(exs(it.db), it.q)
      val t0 = System.nanoTime()
      val r =
        try Right(tracer.fold(exec())(_.span("query")(exec())))
        catch { case NonFatal(e) => Left(e) }
      val dt = (System.nanoTime() - t0) / 1e9
      val problem = r match {
        case Left(e)  => Some(s"threw $e")
        case Right(q) => ResultMatch.diff(ResultMatch.fromTag(q), it.ref)
      }
      problem.foreach { p =>
        if (!failures(name)) log(s"$name: $p")
        failures += name
      }
      execs += Exec(name, dt, problem.isEmpty,
        r.map(_.stats.map(_.totalMessages).sum).getOrElse(-1L),
        r.map(_.rows.size.toLong).getOrElse(0L))
    }
    tracer.foreach(_.qid = -1)
    Loop(execs.result(), passes)
  }

  /** Untimed passes. On `dist` the first also materializes the lazy GraphX
    * graph and adjacency RDD. Failures are left to the timed loop to report.
    */
  def warmUp(exs: Seq[TagJoinExecutor], items: Seq[Item], passes: Int): Unit =
    for (_ <- 1 to passes) {
      val t0 = System.nanoTime()
      items.foreach { it =>
        try Workload.runTag(exs(it.db), it.q) catch { case NonFatal(_) => () }
      }
      log(f"warm-up pass: ${(System.nanoTime() - t0) / 1e9}%.2fs")
    }

  /** Highest percentile with at least ten samples beyond it, and its value.
    * A run has at least [[MinSamples]] samples.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted
    val i = s.size - 11
    (100.0 * (i + 1) / s.size, s(i))
  }

  private def endToEnd(spark: SparkSession, bench: Bench, dbs: Seq[Workload], items: Seq[Item],
      names: Seq[String], seconds: Double): Metrics = {
    // ---- set-up: TAG load of every database, repeated; medians reported
    var exs: Seq[TagJoinExecutor] = Nil
    val reps = (1 to bench.setupReps).map { _ =>
      exs = Nil
      val before = liveHeap()
      val t0 = System.nanoTime()
      exs = dbs.map(load(spark, bench, _))
      val dt = (System.nanoTime() - t0) / 1e9
      (dt, (liveHeap() - before) / 1e6)
    }
    val setupS = median(reps.map(_._1))
    val heapMb = median(reps.map(_._2))
    log(f"setup: ${reps.map(r => f"${r._1}%.3fs/${r._2}%.1fMB").mkString(" ")}")

    val failures = collection.mutable.LinkedHashSet.empty[String]
    warmUp(exs, items, bench.warmUpPasses)
    val timed = loop(exs, items, names, bench.passes(seconds, items.size), None, failures)
    val lat = timed.execs.map(_.seconds)
    val (pct, tailS) = tail(lat)
    report(timed)
    log(f"${lat.size} samples over ${timed.passes} passes; query_tail_s is p$pct%.1f; pass seconds: " +
      timed.execs.grouped(items.size).map(p => f"${p.map(_.seconds).sum}%.2f").mkString(" "))
    Metrics(Seq(
      "setup_s"       -> (setupS, "s"),
      "heap_mb"       -> (heapMb, "MB"),
      "queries_per_s" -> (timed.queriesPerS, "1/s"),
      "query_p50_s"   -> (median(timed.queryMedians), "s"),
      "query_tail_s"  -> (tailS, "s"),
    ), timed.execs.size, timed.execs.count(!_.ok), failures.toSeq)
  }

  private def report(l: Loop): Unit =
    l.execs.groupBy(_.query).toSeq.sortBy(-_._2.map(_.seconds).sum).foreach { case (q, es) =>
      log(f"  $q%-12s median ${median(es.map(_.seconds))}%.4fs  messages ${es.map(_.messages).distinct.mkString("/")}")
    }

  private def perLayer(spark: SparkSession, bench: Bench, dbs: Seq[Workload], items: Seq[Item],
      names: Seq[String], seconds: Double, traceOut: Option[String]): Metrics = {
    val tracer = new Tracer
    val stages = new StageCounters(spark.sparkContext)
    val engineOfs = dbs.map(_ => new TracedEngineOf(tracer, if (bench.distributed) Some(spark) else None))
    val exs = dbs.zip(engineOfs).map { case (wl, eo) =>
      val rels = wl.relationSpecs.map { case (n, df, ac) =>
        tracer.span("tag.normalize")(TagRelation.fromDataFrame(n, df, ac))
      }
      val ex = new TagJoinExecutor(rels, eo)
      ex.baseEngine
      (ex, rels.map(_.rows.size.toLong).sum)
    }
    val setupSpans = tracer.spans.toVector
    tracer.enabled = false

    val failures = collection.mutable.LinkedHashSet.empty[String]
    warmUp(exs.map(_._1), items, bench.warmUpPasses)
    // half the timed passes untraced, half traced: as long as an untraced run
    val half = (bench.passes(seconds, items.size) + 1) / 2
    val plain = loop(exs.map(_._1), items, names, half, None, failures)
    stages.drainAndReset()
    engineOfs.foreach(_.bagRows = 0)
    tracer.enabled = true
    val traced = loop(exs.map(_._1), items, names, half, Some(tracer), failures)
    tracer.enabled = false
    org.apache.spark.ListenerBusDrain(spark.sparkContext)
    // read before `finish`, which may run Spark jobs to size bag graphs
    val (nStages, nTasks, nShuffleBytes) = (stages.stages.get, stages.tasks.get, stages.shuffleBytes.get)
    tracer.finish()
    report(traced)

    val passes = traced.passes.toDouble
    val spans = tracer.spans.toVector
    def total(name: String, ss: Seq[Span] = spans.filter(_.qid >= 0)): Double =
      ss.filter(_.name == name).map(_.seconds).sum
    val t = tracer.totals
    val bspRun = total("bsp.run")
    val distRun = total("dist.run")
    val querySpans = spans.filter(_.name == "query")
    val executorSelf = querySpans.map(_.seconds).sum - bspRun - distRun - total("tag.bag_build")
    val threads = if (bench.distributed) spark.sparkContext.defaultParallelism
      else Runtime.getRuntime.availableProcessors()
    val joinClassAgg = tracer.steps.filter(r => joinClass(items(spans(r.span).qid % items.size).q)).map(_.toAgg).sum
    val msgUnstable = (plain.execs ++ traced.execs).filter(_.ok).groupBy(_.query)
      .count(_._2.map(_.messages).distinct.size > 1)

    traceOut.foreach { path =>
      val p = Paths.get(path)
      Option(p.getParent).foreach(Files.createDirectories(_))
      val lines = spans.iterator.map(s =>
        s"""{"type": "span", "id": ${s.id}, "name": "${s.name}", "start_ns": ${s.start}, """ +
          s""""end_ns": ${s.end}, "parent": ${s.parent}, "qid": ${s.qid}}""") ++
        tracer.steps.iterator.map(r =>
          s"""{"type": "superstep", "run": ${r.run}, "span": ${r.span}, "step": ${r.step}, """ +
            s""""active": ${r.active}, "to_vertices": ${r.toVertex}, "to_aggregator": ${r.toAgg}, """ +
            s""""merges": ${r.merges}}""")
      Files.write(p, (lines.mkString("\n") + "\n").getBytes("UTF-8"))
      log(s"trace: ${spans.size} spans, ${tracer.steps.size} supersteps -> $path")
    }

    val overhead = plain.queriesPerS / traced.queriesPerS - 1
    log(f"tracing overhead: untraced ${plain.queriesPerS}%.3f q/s, traced ${traced.queriesPerS}%.3f q/s " +
      f"(${overhead * 100}%.1f%%)")
    def per(x: Double) = x / passes
    Metrics(Seq(
      "tag.normalize_s"       -> (total("tag.normalize", setupSpans), "s"),
      "tag.csr_build_s"       -> (total("tag.csr_build", setupSpans), "s"),
      "tag.graphx_build_s"    -> (total("tag.graphx_build", setupSpans), "s"),
      "tag.rows"              -> (exs.map(_._2).sum.toDouble, "count"),
      "tag.vertices"          -> (engineOfs.map(_.baseVertices).sum.toDouble, "count"),
      "tag.edges"             -> (engineOfs.map(_.baseEdges).sum.toDouble, "count"),
      "tag.bag_build_s"       -> (per(total("tag.bag_build")), "s"),
      "tag.bag_rows"          -> (per(engineOfs.map(_.bagRows).sum.toDouble), "count"),
      "executor.self_s"       -> (per(executorSelf), "s"),
      "executor.rows_out"     -> (per(traced.execs.map(_.rows).sum.toDouble), "count"),
      "bsp.run_s"             -> (per(bspRun), "s"),
      "bsp.runs"              -> (per(t.runs.toDouble), "count"),
      "bsp.supersteps"        -> (per(t.supersteps.toDouble), "count"),
      "bsp.messages"          -> (per(t.messages.toDouble), "count"),
      "bsp.msg_unstable"      -> (msgUnstable.toDouble, "count"),
      "bsp.compute_calls"     -> (per(t.computeCalls.toDouble), "count"),
      "bsp.active_frac"       -> (if (t.vertexSteps == 0) 0.0 else t.computeCalls.toDouble / t.vertexSteps, "ratio"),
      "bsp.compute_s"         -> (per(t.computeNs / 1e9), "s"),
      "bsp.send_s"            -> (per(t.sendNs / 1e9), "s"),
      "bsp.merge_calls"       -> (per(t.merges.toDouble), "count"),
      "bsp.merge_s"           -> (per(t.mergeNs / 1e9), "s"),
      "bsp.agg_messages"      -> (per(t.toAgg.toDouble), "count"),
      "bsp.agg_messages_join" -> (per(joinClassAgg.toDouble), "count"),
      "bsp.agg_compute_s"     -> (per(t.aggNs / 1e9), "s"),
      "bsp.busy_frac"         -> (t.computeNs / 1e9 / ((bspRun + distRun) * threads), "ratio"),
      "dist.run_s"            -> (per(distRun), "s"),
      "dist.stages"           -> (per(nStages.toDouble), "count"),
      "dist.tasks"            -> (per(nTasks.toDouble), "count"),
      "dist.shuffle_bytes"    -> (per(nShuffleBytes.toDouble), "bytes"),
      "dist.step_s"           -> (if (bench.distributed) distRun / t.supersteps else 0.0, "s"),
      "trace.queries_per_s"   -> (traced.queriesPerS, "1/s"),
      "trace.overhead_frac"   -> (overhead, "ratio"),
    ), plain.execs.size + traced.execs.size,
      (plain.execs ++ traced.execs).count(!_.ok), failures.toSeq)
  }
}
