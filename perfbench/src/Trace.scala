package perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import java.util.concurrent.atomic.LongAdder

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted}
import org.apache.spark.sql.SparkSession
import repro.bsp._
import repro.tag._

import scala.collection.mutable
import scala.reflect.ClassTag

/** One timed interval. `parent` is the id of the enclosing span (-1 at top
  * level); spans of one query execution share `qid` (-1 during set-up).
  */
final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int, qid: Int) {
  def seconds: Double = (end - start) / 1e9
}

/** One superstep of one engine run, as seen through the program wrappers. */
final case class StepRecord(run: Int, span: Int, step: Int, active: Long,
    toVertex: Long, toAgg: Long, merges: Long)

/** Counters of one engine run. The wrapped program looks them up by run id
  * in [[Counters]] instead of holding them, because Spark serializes the
  * program into its tasks; the benchmark runs Spark in local mode, so the
  * tasks share this JVM and its registry.
  */
final class RunCounters(val steps: Int) {
  val active: Array[LongAdder]   = Array.fill(steps)(new LongAdder)
  val toVertex: Array[LongAdder] = Array.fill(steps)(new LongAdder)
  val toAgg: Array[LongAdder]    = Array.fill(steps)(new LongAdder)
  val merges: Array[LongAdder]   = Array.fill(steps)(new LongAdder)
  val computeNs = new LongAdder
  val sendNs    = new LongAdder
  val mergeNs   = new LongAdder
  val aggNs     = new LongAdder
  /** Superstep that merges are attributed to: the latest one computed. */
  @volatile var curStep = 0
}

object Counters {
  private val runs = new ConcurrentHashMap[Int, RunCounters]
  private val nextId = new AtomicInteger
  def register(steps: Int): Int = {
    val id = nextId.getAndIncrement()
    runs.put(id, new RunCounters(steps))
    id
  }
  def apply(id: Int): RunCounters = runs.get(id)
  def remove(id: Int): RunCounters = runs.remove(id)
}

/** Times a program's send calls and counts them by target kind. */
final class TracedCtx[M](inner: SendCtx[M], c: RunCounters, step: Int) extends SendCtx[M] {
  def send(target: Long, m: M): Unit = {
    val toAgg = target == VertexProgram.AggregatorId
    if (toAgg) c.toAgg(step).increment() else c.toVertex(step).increment()
    val t0 = System.nanoTime()
    inner.send(target, m)
    val dt = System.nanoTime() - t0
    c.sendNs.add(dt)
    if (toAgg) c.aggNs.add(dt)
  }
}

/** Delegates to `inner`, timing and counting compute, send and merge calls. */
final class TracedProgram[S, M](inner: VertexProgram[S, M], runId: Int) extends VertexProgram[S, M] {
  @transient private lazy val c: RunCounters = Counters(runId)

  override def maxSteps: Int = inner.maxSteps
  override def initialState(v: VertexInfo): S = inner.initialState(v)
  override def initiallyActive(v: VertexInfo, s: S, edges: IndexedSeq[OutEdge]): Boolean =
    inner.initiallyActive(v, s, edges)

  override def compute(step: Int, v: VertexInfo, s: S, msg: Option[M],
      edges: IndexedSeq[OutEdge], ctx: SendCtx[M]): S = {
    val cs = c
    if (cs.curStep != step) cs.curStep = step
    cs.active(step).increment()
    val t0 = System.nanoTime()
    val r = inner.compute(step, v, s, msg, edges, new TracedCtx(ctx, cs, step))
    cs.computeNs.add(System.nanoTime() - t0)
    r
  }

  override def aggregatorCompute(step: Int, merged: M): Iterator[(Long, M)] = {
    val t0 = System.nanoTime()
    val out = inner.aggregatorCompute(step, merged).toVector
    c.aggNs.add(System.nanoTime() - t0)
    out.iterator
  }

  override def merge(a: M, b: M): M = {
    val cs = c
    cs.merges(cs.curStep).increment()
    val t0 = System.nanoTime()
    val r = inner.merge(a, b)
    cs.mergeNs.add(System.nanoTime() - t0)
    r
  }
}

/** Totals of the traced engine runs. */
final class EngineTotals {
  var runs = 0L
  var supersteps = 0L
  var messages = 0L
  var vertexSteps = 0L // Σ supersteps × vertices of the graph the run used
  var computeCalls = 0L
  var toAgg = 0L
  var merges = 0L
  var computeNs = 0L
  var sendNs = 0L
  var mergeNs = 0L
  var aggNs = 0L
}

/** In-memory span and superstep recorder for the traced run. All spans are
  * opened on the driver's main thread.
  */
final class Tracer {
  val spans = mutable.ArrayBuffer.empty[Span]
  val steps = mutable.ArrayBuffer.empty[StepRecord]
  val totals = new EngineTotals
  /** Set by the benchmark loop around each query execution. */
  var qid: Int = -1
  /** Id of the innermost open span, or -1. */
  var parent: Int = -1
  /** When off, nothing is recorded and traced engines run the program
    * unwrapped.
    */
  var enabled: Boolean = true

  def span[A](name: String)(f: => A): A = if (!enabled) f else {
    val id = spans.size
    val saved = parent
    spans += null
    parent = id
    val t0 = System.nanoTime()
    try f
    finally {
      spans(id) = Span(id, name, t0, System.nanoTime(), saved, qid)
      parent = saved
    }
  }

  private val pending = mutable.ArrayBuffer.empty[(Int, Int, BspStats, () => Long)]

  def record(runId: Int, spanId: Int, stats: BspStats, vertices: () => Long): Unit =
    pending += ((runId, spanId, stats, vertices))

  /** Fold the counters of every recorded run into [[totals]] and [[steps]].
    * Runs are folded only now because the distributed engine may call
    * `compute` again after `run` returns, when assembly recomputes an RDD
    * whose cached blocks the engine already dropped.
    */
  def finish(): Unit = {
    val t = totals
    pending.foreach { case (runId, spanId, stats, vertices) =>
      val c = Counters.remove(runId)
      t.runs += 1
      t.supersteps += stats.supersteps
      t.messages += stats.totalMessages
      t.vertexSteps += stats.supersteps.toLong * vertices()
      var s = 0
      while (s < c.steps) {
        val rec = StepRecord(runId, spanId, s, c.active(s).sum, c.toVertex(s).sum,
          c.toAgg(s).sum, c.merges(s).sum)
        if (rec.active + rec.merges > 0) steps += rec
        t.computeCalls += rec.active
        t.toAgg += rec.toAgg
        t.merges += rec.merges
        s += 1
      }
      t.computeNs += c.computeNs.sum
      t.sendNs += c.sendNs.sum
      t.mergeNs += c.mergeNs.sum
      t.aggNs += c.aggNs.sum
    }
    pending.clear()
  }
}

/** Times `BspEngine.run` as a span named `spanName` and wraps the program. */
final class TracedEngine(inner: BspEngine, spanName: String, vertices: => Long, tracer: Tracer)
    extends BspEngine {
  private lazy val nVertices = vertices

  override def run[S, M](program: VertexProgram[S, M])(implicit
      st: ClassTag[S], mt: ClassTag[M]): BspRun[S, M] =
    if (!tracer.enabled) inner.run(program)
    else {
      val runId = Counters.register(program.maxSteps + 1)
      var spanId = -1
      val r = tracer.span(spanName) {
        spanId = tracer.parent
        inner.run(new TracedProgram(program, runId))
      }
      tracer.record(runId, spanId, r.stats, () => nVertices)
      r
    }
}

/** The `engineOf` hook handed to `TagJoinExecutor`: the first call builds the
  * base graph, later calls re-encode intermediate (bag) results. Each build
  * is a span; rows and graph sizes are counted.
  */
final class TracedEngineOf(tracer: Tracer, spark: Option[SparkSession])
    extends (Seq[TagRelation] => BspEngine) {
  private var baseBuilt = false
  var baseVertices = 0L
  var baseEdges = 0L
  var bagRows = 0L

  def apply(rels: Seq[TagRelation]): BspEngine = {
    val base = !baseBuilt
    baseBuilt = true
    if (!base && tracer.enabled) bagRows += rels.map(_.rows.size.toLong).sum
    spark match {
      case None =>
        val g = tracer.span(if (base) "tag.csr_build" else "tag.bag_build")(TagGraphBuilder.local(rels))
        if (base) { baseVertices = g.numVertices; baseEdges = g.numEdges }
        new TracedEngine(new LocalBspEngine(g), "bsp.run", g.numVertices.toLong, tracer)
      case Some(s) =>
        // GraphX builds lazily. The base graph is counted inside its span,
        // so that the span covers the whole build (GraphX caches both RDDs
        // and `fromGraph` reuses them). A bag graph is counted only when
        // the tracer folds its runs, outside the timed spans.
        val (g, e) = tracer.span(if (base) "tag.graphx_build" else "tag.bag_build") {
          val g = TagGraphBuilder.graphx(s, rels)
          if (base) { baseVertices = g.vertices.count(); baseEdges = g.edges.count() }
          (g, DistributedBspEngine.fromGraph(g))
        }
        val n = baseVertices
        new TracedEngine(e, "dist.run", if (base) n else g.vertices.count(), tracer)
    }
  }
}

/** Spark stage, task and shuffle totals, from a listener. */
final class StageCounters(sc: SparkContext) extends SparkListener {
  val stages = new AtomicLong
  val tasks = new AtomicLong
  val shuffleBytes = new AtomicLong
  sc.addSparkListener(this)

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    stages.incrementAndGet()
    tasks.addAndGet(e.stageInfo.numTasks)
    val m = e.stageInfo.taskMetrics
    if (m != null)
      shuffleBytes.addAndGet(m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten)
  }

  /** Wait until every posted event reached the listener, then zero. */
  def drainAndReset(): Unit = {
    org.apache.spark.ListenerBusDrain(sc)
    stages.set(0); tasks.set(0); shuffleBytes.set(0)
  }
}
