package repro.bsp

import java.util.concurrent.{CountDownLatch, ExecutorService, Executors, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

import repro.tag.LocalTagGraph

import scala.reflect.ClassTag

/** Shared-memory vertex-centric BSP engine.
  *
  * This is our substitute for TigerGraph's single-server mode (§8.1.2): each
  * "vertex processor" of the abstract model (§2) is simulated by a pool of
  * hardware threads, and the synchronization barrier between supersteps is a
  * thread-pool barrier.
  *
  * Only active vertices compute. Superstep 0 asks every vertex whether it is
  * initially active; every later superstep runs exactly the frontier, the
  * vertices whose inbox went from empty to filled in the previous step (the
  * Pregel/Ligra active set). A sender records that transition under the
  * inbox slot's stripe lock, in a buffer of its own thread; the barrier
  * concatenates and sorts the buffers. Each step's work (all ids at step 0,
  * the frontier later) is handed out in fixed-size blocks from one shared
  * cursor, so a skewed frontier still spreads over all threads. Messages to
  * one vertex are combined with [[VertexProgram.merge]] at delivery;
  * messages to the global aggregator vertex are combined into a partial per
  * thread and folded in thread order at the barrier.
  *
  * A vertex that never computed reports `initialState` of its info, so a run
  * builds no per-vertex info or state up front.
  *
  * The engine counts every sent message (the paper's §2 communication-cost
  * measure) and supports direct-to-id messaging plus the global aggregator
  * vertex used by §6.3 and the §7 global-aggregation scheme. The first
  * exception thrown by a vertex program stops the workers from taking more
  * blocks and is rethrown by `run` at the barrier.
  */
final class LocalBspEngine(val graph: LocalTagGraph,
    threads: Int = Runtime.getRuntime.availableProcessors()) extends BspEngine {
  require(threads >= 1, s"threads must be positive: $threads")

  import LocalBspEngine._

  override def run[S, M](program: VertexProgram[S, M])(implicit
      st: ClassTag[S], mt: ClassTag[M]): BspRun[S, M] = {
    val n = graph.numVertices
    // states(v) == null means "never computed", i.e. initialState(info(v)).
    val states = new Array[Any](n)
    // inbox(v) == null means "no message" (vertex inactive next step).
    var inbox = new Array[Any](n)
    var next = new Array[Any](n)
    val locks = Array.fill(256)(new Object)
    // One per thread, plus one for the aggregator's answers at the barrier.
    val workers = Array.fill(threads + 1)(new Worker)
    val barrier = workers(threads)
    val failure = new AtomicReference[Throwable]
    var aggAll: Option[M] = None // every message the aggregator received, combined

    def deliver(w: Worker, target: Long, m: M, nextArr: Array[Any]): Unit = {
      w.sent += 1
      if (target == VertexProgram.AggregatorId)
        w.agg = if (w.agg == null) m else program.merge(w.agg.asInstanceOf[M], m)
      else {
        val t = target.toInt
        locks(t & 255).synchronized {
          val prev = nextArr(t)
          if (prev == null) { nextArr(t) = m; w.activate(t) }
          else nextArr(t) = program.merge(prev.asInstanceOf[M], m)
        }
      }
    }

    val pool: ExecutorService = if (threads > 1) Executors.newFixedThreadPool(threads - 1) else null
    val perStep = Vector.newBuilder[Long]
    var frontier: Array[Int] = null // null at step 0: every vertex is asked
    var step = 0
    var halted = false
    try {
      while (!halted && step < program.maxSteps) {
        val curStep = step
        val inArr = inbox
        val nextArr = next
        val active = frontier
        val work = if (active == null) n else active.length
        val block = math.min(MaxBlock, math.max(MinBlock, work / (threads * BlocksPerThread)))
        val blocks = (work + block - 1) / block
        val cursor = new AtomicInteger

        def runWorker(w: Worker): Unit = try {
          val ctx = new SendCtx[M] {
            def send(target: Long, m: M): Unit = deliver(w, target, m, nextArr)
          }
          var b = cursor.getAndIncrement()
          while (b < blocks && failure.get == null) {
            var j = b * block
            val hi = math.min(work, j + block)
            while (j < hi) {
              if (active == null) {
                val info = graph.info(j)
                val edges = graph.outEdges(j)
                val s0 = program.initialState(info)
                if (program.initiallyActive(info, s0, edges))
                  states(j) = program.compute(curStep, info, s0, None, edges, ctx)
              } else {
                val v = active(j)
                val m = inArr(v).asInstanceOf[M]
                inArr(v) = null
                val info = graph.info(v)
                val prev = states(v)
                val s = if (prev == null) program.initialState(info) else prev.asInstanceOf[S]
                states(v) = program.compute(curStep, info, s, Some(m), graph.outEdges(v), ctx)
              }
              j += 1
            }
            b = cursor.getAndIncrement()
          }
        } catch { case t: Throwable => failure.compareAndSet(null, t) }

        // Worker 0 runs on the calling thread; the others on the pool.
        val used = math.min(threads, blocks)
        val latch = new CountDownLatch(math.max(0, used - 1))
        var t = 1
        while (t < used) {
          val w = workers(t)
          pool.execute(() => try runWorker(w) finally latch.countDown())
          t += 1
        }
        if (used > 0) runWorker(workers(0))
        latch.await()
        val err = failure.get
        if (err != null) throw err

        // Aggregator vertex: fold the per-thread partials in thread order,
        // compute, and deliver its answers next superstep.
        var merged: Any = null
        t = 0
        while (t < threads) {
          val p = workers(t).agg
          if (p != null) merged = if (merged == null) p else program.merge(merged.asInstanceOf[M], p.asInstanceOf[M])
          workers(t).agg = null
          t += 1
        }
        if (merged != null) {
          val mm = merged.asInstanceOf[M]
          aggAll = Some(aggAll.fold(mm)(program.merge(_, mm)))
          val it = program.aggregatorCompute(step, mm)
          while (it.hasNext) { val (d, a) = it.next(); deliver(barrier, d, a, nextArr) }
          barrier.agg = null // the aggregator does not message itself
        }

        var sent = 0L
        workers.foreach { w => sent += w.sent; w.sent = 0 }
        perStep += sent
        frontier = Worker.drainSorted(workers)
        inbox = nextArr
        next = inArr // every slot was consumed, so it is empty again
        step += 1
        if (sent == 0) halted = true
      }
    } finally if (pool != null) {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }

    val finalStats = BspStats(step, perStep.result())
    val aggregateResult = aggAll
    new BspRun[S, M] {
      def mapStates[O: ClassTag](f: (VertexInfo, S) => IterableOnce[O]): Vector[O] = {
        val b = Vector.newBuilder[O]
        var i = 0
        while (i < n) {
          val info = graph.info(i)
          val s = states(i)
          b ++= f(info, if (s == null) program.initialState(info) else s.asInstanceOf[S])
          i += 1
        }
        b.result()
      }
      def aggregate: Option[M] = aggregateResult
      def stats: BspStats = finalStats
    }
  }
}

object LocalBspEngine {
  /** Block size bounds: a step of `work` vertices is cut into about
    * `BlocksPerThread` blocks per thread, each of `MinBlock` to `MaxBlock`
    * vertices.
    */
  private val BlocksPerThread = 8
  private val MinBlock = 16
  private val MaxBlock = 1024

  /** The per-superstep scratch of one thread: messages sent, its partial of
    * the aggregator's inbox, and the vertices its sends activated.
    */
  private final class Worker {
    var sent = 0L
    var agg: Any = null
    private var activated = new Array[Int](64)
    private var size = 0

    def activate(v: Int): Unit = {
      if (size == activated.length) activated = java.util.Arrays.copyOf(activated, size * 2)
      activated(size) = v
      size += 1
    }
  }

  private object Worker {
    /** The vertices activated by all `ws`, ascending; empties the buffers. */
    def drainSorted(ws: Array[Worker]): Array[Int] = {
      val out = new Array[Int](ws.iterator.map(_.size).sum)
      var at = 0
      ws.foreach { w =>
        System.arraycopy(w.activated, 0, out, at, w.size)
        at += w.size
        w.size = 0
      }
      java.util.Arrays.sort(out)
      out
    }
  }
}
