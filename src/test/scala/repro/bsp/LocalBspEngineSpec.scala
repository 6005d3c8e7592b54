package repro.bsp

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

import scala.reflect.ClassTag

/** Engine semantics: supersteps, activation, merging, halting, aggregator. */
class LocalBspEngineSpec extends AnyFunSuite {
  import LocalBspEngineSpec._

  private val r = TestDb.rel("R", Seq("a"), Seq("a"), Seq(Seq(1), Seq(2), Seq(2)))
  private val s = TestDb.rel("S", Seq("a"), Seq("a"), Seq(Seq(2), Seq(3)))
  private def engine = TestDb.engine(r, s)

  /** Flood from R tuples: count hops reached per vertex. */
  private class Flood(hops: Int) extends VertexProgram[Int, Int] {
    def initialState(v: VertexInfo): Int = -1
    def initiallyActive(v: VertexInfo, s: Int, e: IndexedSeq[OutEdge]): Boolean =
      v.isTuple && v.label == "R"
    def merge(a: Int, b: Int): Int = math.min(a, b)
    val maxSteps: Int = hops
    def compute(step: Int, v: VertexInfo, s: Int, msg: Option[Int],
        edges: IndexedSeq[OutEdge], ctx: SendCtx[Int]): Int = {
      edges.foreach(e => ctx.send(e.dst, step))
      msg.getOrElse(if (step == 0) 0 else s)
    }
  }

  test("initially active vertices run at superstep 0 with no inbox") {
    val run = engine.run(new Flood(1))
    val reached = run.mapStates((v, s) => if (s >= 0) Some(v.label) else None)
    assert(reached.count(_ == "R") == 3)
  }

  test("messages activate recipients next superstep; counts are recorded") {
    val run = engine.run(new Flood(2))
    // step 0: 3 R tuples send on their single edge each = 3 messages
    assert(run.stats.messagesPerStep.head == 3)
    assert(run.stats.supersteps == 2)
  }

  test("merge combines concurrent messages to one target") {
    // two R tuples with a=2 message the same attribute vertex; min-merge
    val run = engine.run(new Flood(2))
    val attrStates = run.mapStates((v, s) => if (!v.isTuple) Some((v.value, s)) else None)
    assert(attrStates.toMap.apply(2L) == 0)
  }

  test("engine halts when no messages are sent") {
    val run = engine.run(new Flood(100))
    // flood ping-pongs forever through the bipartite graph, but a program
    // sending nothing halts immediately:
    class Silent extends Flood(100) {
      override def compute(step: Int, v: VertexInfo, s: Int, msg: Option[Int],
          edges: IndexedSeq[OutEdge], ctx: SendCtx[Int]): Int = 7
    }
    val r2 = engine.run(new Silent)
    assert(r2.stats.supersteps == 1 && r2.stats.totalMessages == 0)
    assert(run.stats.supersteps == 100) // and the flood really does keep going
  }

  test("direct messages reach arbitrary known ids") {
    class SelfPing extends VertexProgram[Int, Int] {
      def initialState(v: VertexInfo) = 0
      def initiallyActive(v: VertexInfo, s: Int, e: IndexedSeq[OutEdge]) = v.isTuple
      def merge(a: Int, b: Int) = a + b
      val maxSteps = 3
      def compute(step: Int, v: VertexInfo, s: Int, msg: Option[Int],
          edges: IndexedSeq[OutEdge], ctx: SendCtx[Int]): Int = {
        if (step < 2) ctx.send(v.id, 1)
        s + msg.getOrElse(0)
      }
    }
    val run = engine.run(new SelfPing)
    val totals = run.mapStates((v, s) => if (v.isTuple) Some(s) else None)
    assert(totals.forall(_ == 2)) // received own ping twice
  }

  test("aggregator vertex merges traffic and can answer") {
    class Register extends VertexProgram[Int, Int] {
      def initialState(v: VertexInfo) = 0
      def initiallyActive(v: VertexInfo, s: Int, e: IndexedSeq[OutEdge]) = v.isTuple
      def merge(a: Int, b: Int) = a + b
      val maxSteps = 4
      override def aggregatorCompute(step: Int, merged: Int): Iterator[(Long, Int)] =
        if (step == 0) Iterator((0L, merged * 10)) else Iterator.empty
      def compute(step: Int, v: VertexInfo, s: Int, msg: Option[Int],
          edges: IndexedSeq[OutEdge], ctx: SendCtx[Int]): Int = {
        if (step == 0) ctx.send(VertexProgram.AggregatorId, 1)
        s + msg.getOrElse(0)
      }
    }
    val run = engine.run(new Register)
    assert(run.aggregate.contains(5)) // 5 tuple vertices registered
    val v0 = run.mapStates((v, s) => if (v.id == 0L) Some(s) else None)
    assert(v0 == Vector(50)) // aggregator answered vertex 0 with 5*10
  }

  test("per-step message counts sum to the total") {
    val run = engine.run(new Flood(5))
    assert(run.stats.messagesPerStep.sum == run.stats.totalMessages)
    assert(run.stats.messagesPerStep.size == run.stats.supersteps)
  }

  test("single-threaded and multi-threaded runs agree") {
    val g = TestDb.graph(r, s)
    val one = new LocalBspEngine(g, threads = 1).run(new Flood(4))
    val many = new LocalBspEngine(g, threads = 8).run(new Flood(4))
    assert(one.stats == many.stats)
    assert(one.mapStates((v, s) => Some(v.id -> s)).toMap ==
      many.mapStates((v, s) => Some(v.id -> s)).toMap)
  }

  test("a vertex program that throws makes run throw, on any thread count") {
    val g = TestDb.graph(r, s)
    val boomId = g.attrIndex(2L).toLong // computes at superstep 1
    class Boom extends Flood(4) {
      override def compute(step: Int, v: VertexInfo, s: Int, msg: Option[Int],
          edges: IndexedSeq[OutEdge], ctx: SendCtx[Int]): Int =
        if (v.id == boomId) throw new IllegalStateException("boom")
        else super.compute(step, v, s, msg, edges, ctx)
    }
    for (t <- Seq(1, 4)) {
      val e = intercept[IllegalStateException](new LocalBspEngine(g, threads = t).run(new Boom))
      assert(e.getMessage == "boom", s"threads=$t")
    }
  }

  test("a vertex that is never activated reports its initialState") {
    class OnlyR extends Flood(1) {
      override def initialState(v: VertexInfo): Int = 1000 + v.id.toInt
    }
    val run = engine.run(new OnlyR)
    val states = run.mapStates((v, s) => Some((v, s)))
    assert(states.size == TestDb.graph(r, s).numVertices)
    states.foreach { case (v, st) =>
      // R tuples computed at step 0 (state 0); nothing else ever ran
      assert(st == (if (v.isTuple && v.label == "R") 0 else 1000 + v.id.toInt), v)
    }
  }

  /** 2,000 tuples `H(a, b)`: `a` is distinct per tuple, `b` one of 5 hubs. */
  private lazy val hubGraph = TestDb.graph(TestDb.rel("H", Seq("a", "b"), Seq("a", "b"),
    (0 until 2000).map(i => Seq[Any](i + 10000, i % 5))))

  /** Every tuple sends its id to vertex 0 and along its `H.b` edge, and 1
    * to the aggregator, in one step; the aggregator answers vertex 0 and
    * the hub of `b` = 0. Every vertex records the steps it computed in and
    * what it received.
    */
  private class FanIn(hubB0: Long) extends VertexProgram[List[(Int, Long)], Long] {
    def initialState(v: VertexInfo): List[(Int, Long)] = Nil
    def initiallyActive(v: VertexInfo, s: List[(Int, Long)], e: IndexedSeq[OutEdge]): Boolean = v.isTuple
    def merge(a: Long, b: Long): Long = a + b
    val maxSteps = 4
    override def aggregatorCompute(step: Int, merged: Long): Iterator[(Long, Long)] =
      Iterator(0L -> merged * 1000, hubB0 -> merged, VertexProgram.AggregatorId -> 1L)
    def compute(step: Int, v: VertexInfo, s: List[(Int, Long)], msg: Option[Long],
        edges: IndexedSeq[OutEdge], ctx: SendCtx[Long]): List[(Int, Long)] = {
      if (step == 0) {
        ctx.send(0L, v.id)
        ctx.send(VertexProgram.AggregatorId, 1L)
        OutEdges.withLabel(edges, "H.b").foreachDst(ctx.send(_, v.id))
      } else if (step == 1 && !v.isTuple) // hubs answer their tuples
        OutEdges.withLabel(edges, "H.b").foreachDst(ctx.send(_, 1L))
      (step, msg.getOrElse(-1L)) :: s
    }
  }

  test("a hub fan-in step with aggregator and direct sends is the same on 1, 2, 4 and 8 threads") {
    val g = hubGraph
    val hubB0 = g.attrIndex(0L).toLong
    val runs = Seq(1, 2, 4, 8).map { t =>
      val run = new LocalBspEngine(g, threads = t).run(new FanIn(hubB0))
      (t, run.stats, run.aggregate, run.mapStates((v, s) => Some(v.id -> s)).toMap)
    }
    val (_, stats, agg, states) = runs.head
    // 2000 to vertex 0 + 2000 to hubs + 2000 to the aggregator, 3 answers;
    // then the 5 hubs answer their 400 tuples each
    assert(stats.messagesPerStep == Vector(6003L, 2000L, 0L))
    assert(agg.contains(2000L))
    // vertex 0 gets every tuple's id and an answer, then its hub's 1
    assert(states(0L) == List((2, 1L), (1, (0 until 2000).sum.toLong + 2000 * 1000), (0, -1L)))
    runs.tail.foreach { case (t, st, ag, ss) =>
      assert(st == stats && ag == agg && ss == states, s"threads=$t")
    }
  }

  test("a wrapper that hides startLabels gives the same stats and rows") {
    val r = TestDb.rel("R", Seq("a", "b", "r"), Seq("a", "b"),
      (0 until 60).map(i => Seq[Any](i % 7, i % 5, s"r$i")))
    val s = TestDb.rel("S", Seq("b", "c"), Seq("b", "c"), (0 until 40).map(i => Seq[Any](i % 5, i % 3)))
    val t = TestDb.rel("T", Seq("c", "a"), Seq("c", "a"), (0 until 30).map(i => Seq[Any](i % 3, i % 7)))
    def ja(name: String, cols: (String, String)*) = JoinAttr(name, cols.toMap)
    val count = Seq(AggSpec(AggFunc.Count, _ => 1.0, "n"))
    val queries = Seq(
      "scan" -> QuerySpec(Seq("R"), Nil, aggs = count, aggMode = AggMode.Scalar),
      "acyclic" -> QuerySpec(Seq("R", "S"), Seq(ja("B", "R" -> "b", "S" -> "b")),
        carry = Map("R" -> Seq("r"), "S" -> Seq("c"))),
      "cycle" -> QuerySpec(Seq("R", "S", "T"),
        Seq(ja("A", "R" -> "a", "T" -> "a"), ja("B", "R" -> "b", "S" -> "b"), ja("C", "S" -> "c", "T" -> "c")),
        carry = Map("R" -> Seq("r"), "S" -> Seq("c"), "T" -> Seq("a"))))
    val plain = TestDb.executor(r, s, t)
    val hidden = new TagJoinExecutor(Seq(r, s, t),
      rs => new AllLabels(new LocalBspEngine(repro.tag.TagGraphBuilder.local(rs))))
    for ((name, q) <- queries) {
      val (a, b) = (plain.execute(q), hidden.execute(q))
      assert(a.rows.nonEmpty, name)
      assert(a.stats == b.stats, name)
      assert(TestDb.sameBag(a.rows, b.rows), name)
    }
  }
}

object LocalBspEngineSpec {

  /** Runs `inner` with every program behind a wrapper that forwards all
    * members except [[VertexProgram.startLabels]], so step 0 asks every
    * vertex.
    */
  final class AllLabels(inner: BspEngine) extends BspEngine {
    override def run[S, M](program: VertexProgram[S, M])(implicit
        st: ClassTag[S], mt: ClassTag[M]): BspRun[S, M] = inner.run(new VertexProgram[S, M] {
      def initialState(v: VertexInfo): S = program.initialState(v)
      def initiallyActive(v: VertexInfo, s: S, edges: IndexedSeq[OutEdge]): Boolean =
        program.initiallyActive(v, s, edges)
      def compute(step: Int, v: VertexInfo, s: S, msg: Option[M],
          edges: IndexedSeq[OutEdge], ctx: SendCtx[M]): S = program.compute(step, v, s, msg, edges, ctx)
      override def aggregatorCompute(step: Int, merged: M): Iterator[(Long, M)] =
        program.aggregatorCompute(step, merged)
      def merge(a: M, b: M): M = program.merge(a, b)
      def maxSteps: Int = program.maxSteps
    })
  }
}
