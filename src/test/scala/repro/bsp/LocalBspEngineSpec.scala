package repro.bsp

import org.scalatest.funsuite.AnyFunSuite
import repro.core.TestDb

/** Engine semantics: supersteps, activation, merging, halting, aggregator. */
class LocalBspEngineSpec extends AnyFunSuite {

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
}
