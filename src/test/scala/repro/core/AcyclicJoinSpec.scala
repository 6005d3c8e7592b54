package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bsp.LocalBspEngine
import repro.tag.{TagGraphBuilder, Tup}

/** Algorithm 2 (acyclic TAG-join) against brute-force references: chains,
  * stars, snowflakes, dangling-tuple elimination, filters, aggregation modes,
  * semijoin mode, correlated averages.
  */
class AcyclicJoinSpec extends AnyFunSuite {
  import TestDb._

  private def ja(name: String, cols: (String, String)*) = JoinAttr(name, cols.toMap)

  // Figure 4 style chain-with-branch: R -A- S -B- {T, V}
  private val jA = ja("A", "R" -> "a", "S" -> "a")
  private val jB = ja("B", "S" -> "b", "T" -> "b", "V" -> "b")

  private val R = rel("R", Seq("a", "r"), Seq("a"), Seq(Seq(1, "r1"), Seq(2, "r2"), Seq(3, "r3")))
  private val S = rel("S", Seq("a", "b", "s"), Seq("a", "b"),
    Seq(Seq(1, 10, "s1"), Seq(2, 20, "s2"), Seq(9, 30, "s3")))
  private val T = rel("T", Seq("b", "t"), Seq("b"), Seq(Seq(10, "t1"), Seq(10, "t2"), Seq(20, "t3")))
  private val V = rel("V", Seq("b", "v"), Seq("b"), Seq(Seq(10, "v1"), Seq(20, "v2"), Seq(40, "v3")))

  private def q4rel = QuerySpec(
    relations = Seq("R", "S", "T", "V"),
    joins = Seq(jA, jB),
    carry = Map("R" -> Seq("r"), "S" -> Seq("s"), "T" -> Seq("t"), "V" -> Seq("v")),
    rootRel = Some("R"))

  private def ref4 = clean(refJoin(Seq(R, S, T, V), Seq(jA, jB)))
    .map(_.view.filterKeys(Set("r", "s", "t", "v")).toMap)

  test("four-way join with branching matches brute force") {
    val out = executor(R, S, T, V).execute(q4rel)
    assert(sameBag(out.rows, ref4))
    assert(ref4.nonEmpty)
  }

  test("dangling tuples are eliminated, not just hidden") {
    // S(9,30) has no R partner; V(40) has no S partner — output excludes them
    val out = executor(R, S, T, V).execute(q4rel)
    assert(!out.rows.exists(r => r("s") == "s3" || r("v") == "v3"))
  }

  test("output is identical for any chosen root") {
    for (root <- Seq("R", "S", "T", "V")) {
      val out = executor(R, S, T, V).execute(q4rel.copy(rootRel = Some(root)))
      assert(sameBag(out.rows, ref4), s"root=$root")
    }
  }

  test("superstep count is 3x schedule + constant, independent of data") {
    val out = executor(R, S, T, V).execute(q4rel)
    // schedule for this plan has <= 2*(#plan edges) steps; 3 phases + final
    assert(out.stats.head.supersteps <= 3 * 12 + 2)
  }

  test("two-relation chain equals TwoWayJoin") {
    val spec = QuerySpec(Seq("R", "S"), Seq(jA),
      carry = Map("R" -> Seq("r", "a"), "S" -> Seq("s", "b", "a")))
    val out = executor(R, S).execute(spec)
    val (tw, _) = TwoWayJoin.run(engine(R, S),
      TwoWaySpec("R", "S", jA, carry = Map("R" -> Seq("r"), "S" -> Seq("s", "b"))))
    assert(sameBag(out.rows, tw))
  }

  test("pushed tuple filters restrict the join") {
    val spec = q4rel.copy(tupleFilter = Map("T" -> ((t: Tup) => t("t") != "t2")))
    val out = executor(R, S, T, V).execute(spec)
    val ref = clean(refJoin(Seq(R, S, T, V), Seq(jA, jB),
      Map("T" -> ((t: Tup) => t("t") != "t2"))))
      .map(_.view.filterKeys(Set("r", "s", "t", "v")).toMap)
    assert(sameBag(out.rows, ref))
  }

  test("pushed attribute filters prune at attribute vertices") {
    val spec = q4rel.copy(attrFilter = Map("B" -> ((v: Any) => v == 10L)))
    val out = executor(R, S, T, V).execute(spec)
    assert(out.rows.nonEmpty && out.rows.forall(r => Set[Any]("t1", "t2")(r("t"))))
  }

  test("duplicate tuples keep exact bag multiplicities") {
    val R2 = rel("R", Seq("a", "r"), Seq("a"), Seq(Seq(1, "r1"), Seq(1, "r1")))
    val S2 = rel("S", Seq("a", "s"), Seq("a"), Seq(Seq(1, "s1"), Seq(1, "s1")))
    val out = executor(R2, S2).execute(QuerySpec(Seq("R", "S"),
      Seq(ja("a", "R" -> "a", "S" -> "a")),
      carry = Map("R" -> Seq("r"), "S" -> Seq("s"))))
    assert(out.rows.size == 4)
  }

  test("star join (fact with three dimensions) matches brute force") {
    val F = rel("F", Seq("d1", "d2", "d3", "m"), Seq("d1", "d2", "d3"),
      Seq(Seq[Any](1, 1, 2, 10.0), Seq[Any](2, 1, 1, 20.0), Seq[Any](1, 2, 9, 30.0)))
    val D1 = rel("D1", Seq("k", "x1"), Seq("k"), Seq(Seq(1, "a"), Seq(2, "b")))
    val D2 = rel("D2", Seq("k", "x2"), Seq("k"), Seq(Seq(1, "c"), Seq(2, "d")))
    val D3 = rel("D3", Seq("k", "x3"), Seq("k"), Seq(Seq(1, "e"), Seq(2, "f")))
    val joins = Seq(ja("d1", "F" -> "d1", "D1" -> "k"), ja("d2", "F" -> "d2", "D2" -> "k"),
      ja("d3", "F" -> "d3", "D3" -> "k"))
    val spec = QuerySpec(Seq("F", "D1", "D2", "D3"), joins,
      carry = Map("F" -> Seq("m"), "D1" -> Seq("x1"), "D2" -> Seq("x2"), "D3" -> Seq("x3")),
      rootRel = Some("F"))
    val out = executor(F, D1, D2, D3).execute(spec)
    val ref = clean(refJoin(Seq(F, D1, D2, D3), joins))
      .map(_.view.filterKeys(Set("m", "x1", "x2", "x3")).toMap)
    assert(sameBag(out.rows, ref) && ref.size == 2)
  }

  // ------------------------------------------------------------ aggregation
  test("local aggregation at the group-key attribute vertex") {
    val spec = QuerySpec(Seq("R", "S"), Seq(jA),
      carry = Map("S" -> Seq("s")),
      groupBy = Seq("A"), laAttr = Some("A"),
      aggs = Seq(AggSpec(AggFunc.Count, _ => 1.0, "cnt")),
      aggMode = AggMode.Local, rootRel = Some("S"))
    val out = executor(R, S).execute(spec)
    assert(out.rows.toSet == Set(
      Map("A" -> 1L, "cnt" -> 1.0), Map("A" -> 2L, "cnt" -> 1.0)))
  }

  test("local aggregation with functionally determined extra group columns") {
    val spec = QuerySpec(Seq("R", "S"), Seq(jA),
      carry = Map("R" -> Seq("r")),
      groupBy = Seq("A", "r"), laAttr = Some("A"),
      aggs = Seq(AggSpec(AggFunc.Count, _ => 1.0, "cnt")),
      aggMode = AggMode.Local, rootRel = Some("R"))
    val out = executor(R, S).execute(spec)
    assert(out.rows.map(r => (r("A"), r("r"))).toSet == Set((1L, "r1"), (2L, "r2")))
  }

  test("global aggregation via the aggregator vertex") {
    val spec = q4rel.copy(
      groupBy = Seq("r", "v"),
      aggs = Seq(AggSpec(AggFunc.Count, _ => 1.0, "cnt")),
      aggMode = AggMode.Global)
    val out = executor(R, S, T, V).execute(spec)
    val ref = ref4.groupBy(r => (r("r"), r("v"))).view.mapValues(_.size)
    assert(out.rows.size == ref.size)
    out.rows.foreach(r => assert(r("cnt") == ref((r("r"), r("v"))).toDouble))
  }

  test("scalar aggregation produces a single row") {
    val spec = q4rel.copy(
      aggs = Seq(AggSpec(AggFunc.Count, _ => 1.0, "cnt")),
      aggMode = AggMode.Scalar)
    val out = executor(R, S, T, V).execute(spec)
    assert(out.rows == Vector(Map("cnt" -> ref4.size.toDouble)))
  }

  test("post-filter applies to joined rows before aggregation") {
    val spec = q4rel.copy(
      aggs = Seq(AggSpec(AggFunc.Count, _ => 1.0, "cnt")),
      aggMode = AggMode.Scalar,
      postFilter = Some((t: Tup) => t("t") == "t1"))
    val out = executor(R, S, T, V).execute(spec)
    val expect = ref4.count(_("t") == "t1").toDouble
    assert(out.rows == Vector(Map("cnt" -> expect)))
  }

  // --------------------------------------------------------------- semijoin
  test("semijoin-only mode emits the fully reduced root relation") {
    val spec = QuerySpec(Seq("V", "S"), Seq(ja("b", "S" -> "b", "V" -> "b")),
      carry = Map("S" -> Seq("s")),
      rootRel = Some("S"), semiJoinOnly = true)
    val out = executor(S, V).execute(spec)
    // S tuples with b in V: b=10 (s1), b=20 (s2); b=30 dangles
    assert(out.rows.map(_("s")).toSet == Set("s1", "s2"))
  }

  test("semijoin with global aggregation (EXISTS + GROUP BY shape)") {
    val spec = QuerySpec(Seq("V", "S"), Seq(ja("b", "S" -> "b", "V" -> "b")),
      carry = Map("S" -> Seq("s")),
      groupBy = Seq("s"), aggs = Seq(AggSpec(AggFunc.Count, _ => 1.0, "cnt")),
      aggMode = AggMode.Global, rootRel = Some("S"), semiJoinOnly = true)
    val out = executor(S, V).execute(spec)
    assert(out.rows.size == 2 && out.rows.forall(_("cnt") == 1.0))
  }

  // ------------------------------------------------------------- correlated
  test("correlated per-group average filter (q17 pattern)") {
    // lineitem-like L(k, q), part-like P(k): keep L rows with q < 0.5*avg_k(q)
    val L = rel("L", Seq("k", "q"), Seq("k"),
      Seq(Seq[Any](1, 1.0), Seq[Any](1, 10.0), Seq[Any](1, 10.0), Seq[Any](2, 5.0)))
    val P = rel("P", Seq("k"), Seq("k"), Seq(Seq(1), Seq(2)))
    val spec = QuerySpec(Seq("L", "P"), Seq(ja("k", "L" -> "k", "P" -> "k")),
      carry = Map("L" -> Seq("q")),
      aggs = Seq(AggSpec(AggFunc.Sum, t => t("q").asInstanceOf[Double], "s")),
      aggMode = AggMode.Scalar, rootRel = Some("P"),
      correlated = Some(CorrelatedAvg("L", "k", t => t("q").asInstanceOf[Double], 0.5, _ < _)))
    val out = executor(L, P).execute(spec)
    // group k=1: avg=7, thr=3.5 → keeps q=1 only; k=2: avg=5, thr=2.5 → none
    assert(out.rows == Vector(Map("s" -> 1.0)))
  }

  test("Algorithm 2 sends exactly the hand-counted messages per superstep") {
    // Chain R -A- S -B- T. GYO roots it at T, so GenSteps schedules
    // UP = R.a, S.a, S.b, T.b (start leaf R), then DOWN and COLLECT.
    // Vertex ids: r0 r1 = 0 1, s0 s1 s2 = 2 3 4, t0 t1 = 5 6, then the values
    // 1 2 3 4 5 = 7 8 9 10 11. Value 2 (vertex 8) is an A value and a B value,
    // so it is marked under R.a {r1}, S.b {s0} and T.b {t0}.
    val R3 = rel("R", Seq("a", "r"), Seq("a"), Seq(Seq(1, "r0"), Seq(2, "r1")))
    val S3 = rel("S", Seq("a", "b", "s"), Seq("a", "b"),
      Seq(Seq(1, 2, "s0"), Seq(2, 3, "s1"), Seq(4, 2, "s2"))) // s2 dangles on A
    val T3 = rel("T", Seq("b", "t"), Seq("b"), Seq(Seq(2, "t0"), Seq(5, "t1"))) // t1 dangles
    val spec = QuerySpec(Seq("R", "S", "T"),
      Seq(ja("A", "R" -> "a", "S" -> "a"), ja("B", "S" -> "b", "T" -> "b")),
      carry = Map("R" -> Seq("r"), "S" -> Seq("s"), "T" -> Seq("t")))
    val expected = Vector[Long](
      2, // UP R.a: r0 → 7, r1 → 8
      2, // UP S.a: 7 → s0, 8 → s1
      2, // UP S.b: s0 → 8, s1 → 9
      1, // UP T.b: 8 → t0 (9 has no T.b edge)
      1, // DOWN T.b: t0 → 8
      1, // DOWN S.b: 8 → s0 only; s2 shares the edge label but is not marked
      1, // DOWN S.a: s0 → 7
      1, // DOWN R.a: 7 → r0
      1, // COLLECT R.a: r0 → 7
      1, // COLLECT S.a: 7 → s0
      1, // COLLECT S.b: s0 → 8
      1, // COLLECT T.b: 8 → t0 (marked under T.b only, not under R.a)
      0) // t0 emits the row
    for (threads <- Seq(1, 4)) {
      val ex = new TagJoinExecutor(Seq(R3, S3, T3),
        rs => new LocalBspEngine(TagGraphBuilder.local(rs), threads))
      val out = ex.execute(spec)
      assert(out.stats.map(_.messagesPerStep) == Vector(expected), s"threads=$threads")
      assert(out.rows == Vector(Map("r" -> "r0", "s" -> "s0", "t" -> "t0")), s"threads=$threads")
    }
  }

  test("randomized acyclic chains match brute force") {
    val rnd = new scala.util.Random(7)
    for (trial <- 1 to 20) {
      val dom = 1 + rnd.nextInt(4)
      def mk(name: String, cols: Seq[String]) =
        rel(name, cols, cols.filter(_.startsWith("j")),
          (1 to (1 + rnd.nextInt(6))).map(_ => cols.map(c =>
            if (c.startsWith("j")) rnd.nextInt(dom): Any else s"$name-${rnd.nextInt(3)}": Any)))
      val A = mk("A", Seq("j1", "pa"))
      val B = mk("B", Seq("j1", "j2", "pb"))
      val C = mk("C", Seq("j2", "pc"))
      val joins = Seq(ja("j1", "A" -> "j1", "B" -> "j1"), ja("j2", "B" -> "j2", "C" -> "j2"))
      val spec = QuerySpec(Seq("A", "B", "C"), joins,
        carry = Map("A" -> Seq("pa"), "B" -> Seq("pb"), "C" -> Seq("pc")))
      val out = executor(A, B, C).execute(spec)
      val ref = clean(refJoin(Seq(A, B, C), joins))
        .map(_.view.filterKeys(Set("pa", "pb", "pc")).toMap)
      assert(sameBag(out.rows, ref), s"trial $trial: ${out.rows.size} vs ${ref.size}")
    }
  }
}
