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
  * Only active vertices compute. Superstep 0 asks the vertices of the
  * program's [[VertexProgram.startLabels]] (contiguous id ranges) whether
  * they are initially active; every later superstep runs exactly the
  * frontier, the vertices whose inbox went from empty to filled in the
  * previous step (the Pregel/Ligra active set). Each step's work is handed
  * out in fixed-size blocks from one shared cursor, so a skewed frontier
  * still spreads over all threads.
  *
  * Messages travel without locks, in two phases per superstep (push-mode
  * delivery as in Gemini; Zhu et al., OSDI 2016). While computing, each
  * thread appends `(target, message)` to its own outbox, in one bucket per
  * owner thread. Ids are owned in stripes of 512 dealt round-robin to the
  * threads, so every step's targets spread evenly
  * (an UP step's targets are all attribute vertices, one tail range of
  * ids), and each owner alone writes its stripes' inbox slots and words of
  * the frontier bitmap. When every thread has computed, each owner folds its
  * buckets into the next inbox with [[VertexProgram.merge]], in thread
  * order, marking each slot it fills in the bitmap, and then reads its
  * stripes of the bitmap: its share of the next frontier, ascending, with
  * no sort. Messages to the global
  * aggregator vertex are combined into a partial per thread, folded in
  * thread order at the barrier; the aggregator's answers reach their targets
  * after every thread's messages.
  *
  * The edges a program sees are the vertex's CSR slice, sorted by label
  * ([[OutEdges]]). A vertex that never computed reports `initialState` of
  * its info, so a run builds no per-vertex info or state up front; the
  * outboxes are allocated per run and grow with the largest step.
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
    // Worker w's outbox, made on first use by the thread that runs w.
    val outboxes = new Array[Outbox[M]](threads)
    // Bit v: v's next-inbox slot was filled this step; owner o's share of
    // the next frontier is its stripes' bits.
    val filled = new Array[Long]((n + 63) >>> 6)
    val shares = Array.fill(threads)(new IdBuffer)
    val failure = new AtomicReference[Throwable]
    var aggAll: Option[M] = None // every message the aggregator received, combined

    /** Owner `o`: fold every outbox's bucket `o` into `nextArr`, in worker
      * order, then list the ids whose slot it filled, ascending.
      */
    def deliver(o: Int, nextArr: Array[Any]): Unit = {
      var w = 0
      while (w < threads) {
        val box = outboxes(w)
        if (box != null) {
          val ts = box.targets(o)
          val ms = box.msgs(o)
          val k = box.sizes(o)
          var i = 0
          while (i < k) {
            val t = ts(i)
            val m = ms(i)
            ms(i) = null
            val prev = nextArr(t)
            if (prev == null) { nextArr(t) = m; filled(t >>> 6) |= 1L << t }
            else nextArr(t) = program.merge(prev.asInstanceOf[M], m.asInstanceOf[M])
            i += 1
          }
          box.sizes(o) = 0
        }
        w += 1
      }
      val share = shares(o)
      var word = o * StripeWords
      while (word < filled.length) {
        val end = math.min(filled.length, word + StripeWords)
        while (word < end) {
          var bits = filled(word)
          if (bits != 0L) filled(word) = 0L
          while (bits != 0L) {
            share += (word << 6) + java.lang.Long.numberOfTrailingZeros(bits)
            bits &= bits - 1
          }
          word += 1
        }
        word += (threads - 1) * StripeWords
      }
    }

    val pool: ExecutorService = if (threads > 1) Executors.newFixedThreadPool(threads - 1) else null
    val perStep = Vector.newBuilder[Long]
    var frontier: Array[Int] = null // null at step 0: the start labels' vertices
    var step = 0
    var halted = false
    try {
      while (!halted && step < program.maxSteps) {
        val curStep = step
        val inArr = inbox
        val nextArr = next
        val active = frontier
        // Step 0 works on vertex ids in the start ranges, later steps on
        // positions in the frontier.
        val ranges = if (active == null) startRanges(program) else Vector((0, active.length))
        val work = ranges.iterator.map { case (lo, hi) => hi - lo }.sum
        val block = math.min(MaxBlock, math.max(MinBlock, work / (threads * BlocksPerThread)))
        val blocks = cut(ranges, block)
        val nBlocks = blocks.length / 2
        val cursor = new AtomicInteger
        // Worker 0 runs on the calling thread; the others on the pool.
        val used = math.max(1, math.min(threads, nBlocks))
        val computed = new CountDownLatch(used)

        def compute(box: Outbox[M]): Unit = {
          var b = cursor.getAndIncrement()
          while (b < nBlocks && failure.get == null) {
            var j = blocks(2 * b)
            val hi = blocks(2 * b + 1)
            while (j < hi) {
              if (active == null) {
                val info = graph.info(j)
                val edges = graph.outEdges(j)
                val s0 = program.initialState(info)
                if (program.initiallyActive(info, s0, edges))
                  states(j) = program.compute(curStep, info, s0, None, edges, box)
              } else {
                val v = active(j)
                val m = inArr(v).asInstanceOf[M]
                inArr(v) = null
                val info = graph.info(v)
                val prev = states(v)
                val s = if (prev == null) program.initialState(info) else prev.asInstanceOf[S]
                states(v) = program.compute(curStep, info, s, Some(m), graph.outEdges(v), box)
              }
              j += 1
            }
            b = cursor.getAndIncrement()
          }
        }

        // Compute, wait for every worker, then deliver the owned buckets.
        def runWorker(w: Int): Unit = {
          try {
            if (outboxes(w) == null) outboxes(w) = new Outbox(program, n, threads)
            compute(outboxes(w))
          } catch { case t: Throwable => failure.compareAndSet(null, t) }
          finally computed.countDown()
          try {
            computed.await()
            var o = w
            while (o < threads && failure.get == null) { deliver(o, nextArr); o += used }
          } catch { case t: Throwable => failure.compareAndSet(null, t) }
        }

        val latch = new CountDownLatch(used - 1)
        var t = 1
        while (t < used) {
          val w = t
          pool.execute(() => try runWorker(w) finally latch.countDown())
          t += 1
        }
        runWorker(0)
        latch.await()
        val err = failure.get
        if (err != null) throw err

        // Barrier: count the sends and fold the aggregator partials, both in
        // worker order.
        var sent = 0L
        var merged: Any = null
        outboxes.foreach { box =>
          if (box != null) {
            sent += box.sent
            box.sent = 0
            val p = box.agg
            if (p != null) merged = if (merged == null) p else program.merge(merged.asInstanceOf[M], p.asInstanceOf[M])
            box.agg = null
          }
        }
        // Aggregator vertex: compute, and deliver its answers next superstep.
        val answered = if (merged == null) null else new IdBuffer
        if (merged != null) {
          val mm = merged.asInstanceOf[M]
          aggAll = Some(aggAll.fold(mm)(program.merge(_, mm)))
          val it = program.aggregatorCompute(step, mm)
          while (it.hasNext) {
            val (d, a) = it.next()
            sent += 1
            if (d != VertexProgram.AggregatorId) { // the aggregator does not message itself
              val dt = checkedTarget(d, n)
              val prev = nextArr(dt)
              if (prev == null) { nextArr(dt) = a; answered += dt }
              else nextArr(dt) = program.merge(prev.asInstanceOf[M], a)
            }
          }
        }
        frontier = IdBuffer.concat(if (answered == null) shares else shares :+ answered)

        perStep += sent
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

  /** The id ranges `[lo, hi)` of the program's start labels, ascending. */
  private def startRanges(program: VertexProgram[_, _]): Vector[(Int, Int)] =
    program.startLabels match {
      case None         => Vector((0, graph.numVertices))
      case Some(labels) => labels.toVector.flatMap(graph.vertexRanges.getOrElse(_, Nil)).sorted
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

  /** Ids `i` and `j` have one owner when `i >> StripeBits == j >> StripeBits`:
    * 512 inbox slots, and 8 whole words of the frontier bitmap.
    */
  private val StripeBits = 9
  private val StripeWords = 1 << (StripeBits - 6)

  /** The owner thread of target `t` among `owners`. */
  private def owner(t: Int, owners: Int): Int = (t >>> StripeBits) % owners

  private def checkedTarget(target: Long, n: Int): Int = {
    if (target < 0 || target >= n) throw new IllegalArgumentException(s"no vertex $target")
    target.toInt
  }

  /** `ranges` cut into blocks of at most `block` ids, as flat (lo, hi) pairs. */
  private def cut(ranges: Vector[(Int, Int)], block: Int): Array[Int] = {
    val out = Array.newBuilder[Int]
    ranges.foreach { case (lo, hi) =>
      var b = lo
      while (b < hi) { out += b; out += math.min(hi, b + block); b += block }
    }
    out.result()
  }

  /** One worker's sends of a run: a bucket of (target, message) per owner,
    * and its partial of the aggregator's inbox. Only its worker writes it
    * while computing; each owner empties its bucket at the barrier.
    */
  private final class Outbox[M](program: VertexProgram[_, M], n: Int, owners: Int) extends SendCtx[M] {
    var sent = 0L
    var agg: Any = null
    val targets: Array[Array[Int]] = Array.fill(owners)(new Array[Int](InitialBucket))
    val msgs: Array[Array[Any]] = Array.fill(owners)(new Array[Any](InitialBucket))
    val sizes = new Array[Int](owners)

    def send(target: Long, m: M): Unit = {
      sent += 1
      if (target == VertexProgram.AggregatorId)
        agg = if (agg == null) m else program.merge(agg.asInstanceOf[M], m)
      else {
        val t = checkedTarget(target, n)
        val o = owner(t, owners)
        val k = sizes(o)
        if (k == targets(o).length) {
          targets(o) = java.util.Arrays.copyOf(targets(o), 2 * k)
          msgs(o) = java.util.Arrays.copyOf(msgs(o).asInstanceOf[Array[AnyRef]], 2 * k).asInstanceOf[Array[Any]]
        }
        targets(o)(k) = t
        msgs(o)(k) = m
        sizes(o) = k + 1
      }
    }
  }

  private val InitialBucket = 64

  /** A growable list of vertex ids. */
  private final class IdBuffer {
    private var ids = new Array[Int](64)
    var size = 0

    def +=(v: Int): Unit = {
      if (size == ids.length) ids = java.util.Arrays.copyOf(ids, size * 2)
      ids(size) = v
      size += 1
    }
  }

  private object IdBuffer {
    /** The ids of all `bs`, in order; empties them. */
    def concat(bs: Array[IdBuffer]): Array[Int] = {
      val out = new Array[Int](bs.iterator.map(_.size).sum)
      var at = 0
      bs.foreach { b =>
        System.arraycopy(b.ids, 0, out, at, b.size)
        at += b.size
        b.size = 0
      }
      out
    }
  }
}
