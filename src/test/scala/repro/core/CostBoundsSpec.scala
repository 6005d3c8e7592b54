package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bsp.{BspEngine, BspRun, LocalBspEngine, VertexProgram}
import repro.tag.{TagGraphBuilder, TagRelation}

import scala.reflect.ClassTag

/** Empirical checks of the paper's communication/computation cost claims:
  * §4.1.2 (two-way join bounds), §4.1 (factorized vs unfactorized size),
  * §6.1 (PK-FK cycle linearity) and §5.2.1 (supersteps are data-independent).
  */
class CostBoundsSpec extends AnyFunSuite {
  import TestDb._

  private def ja(name: String, cols: (String, String)*) = JoinAttr(name, cols.toMap)
  private val b = ja("b", "R" -> "b", "S" -> "b")

  private def pkFkDb(n: Int) = (
    // S.b is a key; R references it: |R ⋈ S| = |R|
    rel("R", Seq("a", "b"), Seq("a", "b"), (1 to n).map(i => Seq[Any](i, i % 10))),
    rel("S", Seq("b", "c"), Seq("b", "c"), (0 until 10).map(i => Seq[Any](i, i * 100))))

  test("§4.1.2: two-way reduction messages are bounded by min(IN, OUT)") {
    val (r, s) = pkFkDb(50)
    val (_, stats) = TwoWayJoin.run(engine(r, s),
      TwoWaySpec("R", "S", b, carry = Map("R" -> Seq("a"), "S" -> Seq("c"))))
    val in = 60
    val out = 50 // PK-FK: |R ⋈ S| = |R|
    assert(stats.messagesPerStep(0) <= math.min(in, out) * 2) // both directions
    assert(stats.messagesPerStep(1) <= math.min(in, out) * 2)
  }

  test("§4.1.2: selective joins message fewer tuples than IN") {
    // only one of 10 b-values joins
    val r = rel("R", Seq("a", "b"), Seq("a", "b"), (1 to 30).map(i => Seq[Any](i, i % 10)))
    val s = rel("S", Seq("b", "c"), Seq("b", "c"), Seq(Seq[Any](3, 0)))
    val (_, stats) = TwoWayJoin.run(engine(r, s),
      TwoWaySpec("R", "S", b, carry = Map("R" -> Seq("a"), "S" -> Seq("c"))))
    // OUT = 3 (three R-tuples with b=3) — messages track OUT, not IN
    assert(stats.totalMessages <= 4 * 4)
  }

  test("§4.1: factorized representation is smaller than the product") {
    val r = rel("R", Seq("a", "b"), Seq("a", "b"), (1 to 10).map(i => Seq[Any](i, 0)))
    val s = rel("S", Seq("b", "c"), Seq("b", "c"), (1 to 10).map(i => Seq[Any](0, i)))
    val spec = TwoWaySpec("R", "S", b, carry = Map("R" -> Seq("a"), "S" -> Seq("c")))
    val (fact, fStats) = TwoWayJoin.runFactorized(engine(r, s), spec)
    val (flat, _) = TwoWayJoin.run(engine(r, s), spec)
    assert(flat.size == 100)
    assert(fact.head._2.size + fact.head._3.size == 20) // 10 + 10 vs 100
    // and collecting the factorized output needed no extra messages
    assert(fStats.totalMessages <= 40)
  }

  test("§5.2.1: superstep count depends on the query, not the data") {
    def run(n: Int): Int = {
      val (r, s) = pkFkDb(n)
      val out = executor(r, s).execute(QuerySpec(Seq("R", "S"), Seq(b),
        carry = Map("R" -> Seq("a"), "S" -> Seq("c"))))
      out.stats.head.supersteps
    }
    assert(run(10) == run(200))
  }

  test("§6.1.1: PK-FK triangle total messages grow linearly in IN") {
    def messages(n: Int): Long = {
      val r = rel("R", Seq("a", "b"), Seq("a", "b"), (1 to n).map(i => Seq[Any](i, i % 7)))
      val s = rel("S", Seq("b", "c"), Seq("b", "c"), (0 until 7).map(i => Seq[Any](i, i % 5)))
      val t = rel("T", Seq("c", "a"), Seq("c", "a"), (1 to n).map(i => Seq[Any](i % 5, i)))
      val spec = CycleSpec(Vector("R", "S", "T"),
        Vector(ja("A", "T" -> "a", "R" -> "a"), ja("B", "R" -> "b", "S" -> "b"),
          ja("C", "S" -> "c", "T" -> "c")),
        carry = Map("R" -> Seq("a", "b"), "S" -> Seq("c"), "T" -> Seq("a", "c")))
      CycleJoin.run(engine(r, s, t), spec)._2.head.totalMessages
    }
    val m1 = messages(40)
    val m2 = messages(160)
    assert(m2 < 8 * m1, s"4x data should not blow messages up superlinearly: $m1 -> $m2")
  }

  test("§7: pushed selections reduce communication") {
    val (r, s) = pkFkDb(100)
    def msgs(filtered: Boolean): Long = {
      val spec = QuerySpec(Seq("R", "S"), Seq(b),
        carry = Map("R" -> Seq("a"), "S" -> Seq("c")),
        tupleFilter = if (filtered) Map("R" -> (t => t("a").asInstanceOf[Long] <= 5)) else Map.empty)
      executor(r, s).execute(spec).stats.head.totalMessages
    }
    assert(msgs(filtered = true) < msgs(filtered = false))
  }

  /** Executes `spec` over `rels`, expects an [[UnsupportedQuery]] whose
    * message contains `message`, and checks that no engine run started.
    */
  private def rejectedBeforeAnyRun(rels: Seq[TagRelation], spec: QuerySpec, message: String): Unit = {
    var runs = 0
    val ex = new TagJoinExecutor(rels, rs => new BspEngine {
      private val inner = new LocalBspEngine(TagGraphBuilder.local(rs))
      override def run[S, M](p: VertexProgram[S, M])(implicit
          st: ClassTag[S], mt: ClassTag[M]): BspRun[S, M] = { runs += 1; inner.run(p) }
    })
    val e = intercept[UnsupportedQuery](ex.execute(spec))
    assert(e.getMessage.contains(message))
    assert(runs == 0)
  }

  /** A triangle R -A- S -B- T -C- R whose relations also hold columns x, y, z, w. */
  private val triangle = Seq(
    rel("R", Seq("a", "b", "x", "y", "z", "w"), Seq("a", "b", "x", "y", "z", "w"), Seq(Seq[Any](1, 1, 1, 1, 1, 1))),
    rel("S", Seq("b", "c"), Seq("b", "c"), Seq(Seq[Any](1, 1))),
    rel("T", Seq("c", "a"), Seq("c", "a"), Seq(Seq[Any](1, 1))))
  private val triangleJoins = Seq(ja("A", "T" -> "a", "R" -> "a"), ja("B", "R" -> "b", "S" -> "b"),
    ja("C", "S" -> "c", "T" -> "c"))

  test("executor rejects a multi-attribute tree edge with guidance") {
    val r = rel("R", Seq("a", "b"), Seq("a", "b"), Seq(Seq[Any](1, 2)))
    val s = rel("S", Seq("a", "b"), Seq("a", "b"), Seq(Seq[Any](1, 2)))
    rejectedBeforeAnyRun(Seq(r, s), QuerySpec(Seq("R", "S"),
      Seq(ja("a", "R" -> "a", "S" -> "a"), ja("b", "R" -> "b", "S" -> "b"))), "multi-attribute")
    // U joins the triangle's bag on two attributes: rejected before the cycle pass
    val u = rel("U", Seq("x", "y"), Seq("x", "y"), Seq(Seq[Any](1, 1)))
    rejectedBeforeAnyRun(triangle :+ u, QuerySpec(Seq("R", "S", "T", "U"),
      triangleJoins ++ Seq(ja("X", "R" -> "x", "U" -> "x"), ja("Y", "R" -> "y", "U" -> "y")),
      carry = Map("R" -> Seq("x", "y"))), "multi-attribute")
  }

  test("cycle executor rejects non-simple cyclic cores") {
    // two triangles sharing a relation: not a simple cycle
    val rels = Seq("R", "S", "T", "U", "V").map(n =>
      rel(n, Seq("x", "y"), Seq("x", "y"), Seq(Seq[Any](1, 1))))
    val joins = Seq(
      ja("1", "R" -> "x", "S" -> "x"), ja("2", "S" -> "y", "T" -> "x"),
      ja("3", "T" -> "y", "R" -> "y"), ja("4", "R" -> "x", "U" -> "x"),
      ja("5", "U" -> "y", "V" -> "x"), ja("6", "V" -> "y", "R" -> "y"))
    rejectedBeforeAnyRun(rels, QuerySpec(rels.map(_.name), joins), "not a simple cycle")
  }

  test("executor rejects a disconnected join graph") {
    val (r, s) = pkFkDb(3)
    val t = rel("T", Seq("d"), Seq("d"), Seq(Seq[Any](1)))
    rejectedBeforeAnyRun(Seq(r, s, t), QuerySpec(Seq("R", "S", "T"), Seq(b)), "disconnected")
    rejectedBeforeAnyRun(Seq(r, s), QuerySpec(Seq("R", "S"), Nil), "disconnected")
  }

  test("executor rejects a residual query that is still cyclic") {
    // U, V, W are ears of R in the whole query, but R carries none of the
    // columns x, y, z, so in the residual query they form a triangle of their own
    val (u, v, w) = (rel("U", Seq("x", "z", "w"), Seq("x", "z", "w"), Seq(Seq[Any](1, 1, 1))),
      rel("V", Seq("x", "y"), Seq("x", "y"), Seq(Seq[Any](1, 1))),
      rel("W", Seq("y", "z"), Seq("y", "z"), Seq(Seq[Any](1, 1))))
    val joins = triangleJoins ++ Seq(ja("X", "R" -> "x", "U" -> "x", "V" -> "x"),
      ja("Y", "R" -> "y", "V" -> "y", "W" -> "y"), ja("Z", "R" -> "z", "W" -> "z", "U" -> "z"),
      ja("K", "R" -> "w", "U" -> "w"))
    rejectedBeforeAnyRun(triangle ++ Seq(u, v, w), QuerySpec(Seq("R", "S", "T", "U", "V", "W"), joins,
      carry = Map("R" -> Seq("w"))), "residual query still cyclic")
  }

  test("executor rejects a correlated filter its relation's rows would bypass") {
    val L = rel("L", Seq("k", "q"), Seq("k"), Seq(Seq[Any](1, 2.0)))
    val P = rel("P", Seq("k"), Seq("k"), Seq(Seq(1)))
    rejectedBeforeAnyRun(Seq(L, P), QuerySpec(Seq("L", "P"), Seq(ja("k", "L" -> "k", "P" -> "k")),
      carry = Map("L" -> Seq("q")), aggs = Seq(AggSpec(AggFunc.Count, _ => 1.0, "c")),
      aggMode = AggMode.Scalar, rootRel = Some("L"),
      correlated = Some(CorrelatedAvg("L", "k", t => t("q").asInstanceOf[Double], 1.0, _ < _))),
      "correlated filter on L")
  }

  test("q17-style correlated pre-phase adds exactly two supersteps") {
    val L = rel("L", Seq("k", "q"), Seq("k"), Seq(Seq[Any](1, 2.0), Seq[Any](1, 4.0)))
    val P = rel("P", Seq("k"), Seq("k"), Seq(Seq(1)))
    def steps(corr: Option[CorrelatedAvg]): Int =
      executor(L, P).execute(QuerySpec(Seq("L", "P"), Seq(ja("k", "L" -> "k", "P" -> "k")),
        carry = Map("L" -> Seq("q")),
        aggs = Seq(AggSpec(AggFunc.Count, _ => 1.0, "c")), aggMode = AggMode.Scalar,
        rootRel = Some("P"), correlated = corr)).stats.head.supersteps
    val plain = steps(None)
    val corr = steps(Some(CorrelatedAvg("L", "k", t => t("q").asInstanceOf[Double], 1.0, _ < _)))
    assert(corr == plain + 2)
  }
}
