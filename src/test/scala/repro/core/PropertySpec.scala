package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

/** ScalaCheck properties for the algebraic building blocks and randomized
  * end-to-end join equivalence against the brute-force reference.
  */
class PropertySpec extends AnyFunSuite {
  import TestDb._

  /** Minimal scalatest↔scalacheck bridge (scalatestplus is not available
    * offline): run the property and fail the test on the first counterexample.
    */
  private def check(p: Prop, n: Int = 50): Unit = {
    val params = org.scalacheck.Test.Parameters.default.withMinSuccessfulTests(n)
    val res = org.scalacheck.Test.check(params, p)
    assert(res.passed, res.status.toString)
  }

  private def ja(name: String, cols: (String, String)*) = JoinAttr(name, cols.toMap)

  private val smallKey: Gen[Long] = Gen.chooseNum(0L, 3L)
  private def relGen(name: String, cols: Seq[String]): Gen[repro.tag.TagRelation] =
    for {
      n <- Gen.chooseNum(0, 7)
      rows <- Gen.listOfN(n, Gen.listOfN(cols.size, smallKey))
    } yield rel(name, cols, cols, rows.map(_.map(v => v: Any)))

  test("property: two-way TAG-join equals brute force") {
    check(Prop.forAll(relGen("R", Seq("a", "b")), relGen("S", Seq("b2", "c"))) { (r, s) =>
      val j = ja("b", "R" -> "b", "S" -> "b2")
      val (out, _) = TwoWayJoin.run(engine(r, s),
        TwoWaySpec("R", "S", j, carry = Map("R" -> Seq("a", "b"), "S" -> Seq("b2", "c"))))
      sameBag(out, clean(refJoin(Seq(r, s), Seq(j))))
    }, 40)
  }

  test("property: three-way chain TAG-join equals brute force") {
    check(Prop.forAll(relGen("A", Seq("x", "p")), relGen("B", Seq("x", "y")),
        relGen("C", Seq("y", "q"))) { (a, b, c) =>
      val joins = Seq(ja("x", "A" -> "x", "B" -> "x"), ja("y", "B" -> "y", "C" -> "y"))
      val out = executor(a, b, c).execute(QuerySpec(Seq("A", "B", "C"), joins,
        carry = Map("A" -> Seq("x", "p"), "B" -> Seq("x", "y"), "C" -> Seq("y", "q"))))
      sameBag(out.rows, clean(refJoin(Seq(a, b, c), joins)))
    }, 30)
  }

  test("property: triangle cycle join equals brute force for any theta") {
    check(Prop.forAll(relGen("R", Seq("a", "b")), relGen("S", Seq("b", "c")),
        relGen("T", Seq("c", "a")), Gen.oneOf(Option.empty[Double], Some(0.0), Some(1.5))) {
      (r, s, t, theta) =>
        val spec = CycleSpec(Vector("R", "S", "T"),
          Vector(ja("A", "T" -> "a", "R" -> "a"), ja("B", "R" -> "b", "S" -> "b"),
            ja("C", "S" -> "c", "T" -> "c")),
          carry = Map("R" -> Seq("a", "b"), "S" -> Seq("b", "c"), "T" -> Seq("c", "a")),
          theta = theta)
        val (out, _) = CycleJoin.run(engine(r, s, t), spec)
        val ref = clean(refJoin(Seq(r, s, t), Seq(
          ja("A", "R" -> "a", "T" -> "a"), ja("B", "R" -> "b", "S" -> "b"),
          ja("C", "S" -> "c", "T" -> "c"))))
        sameBag(out, ref)
    }, 25)
  }

  test("property: scalar COUNT equals brute-force cardinality") {
    check(Prop.forAll(relGen("A", Seq("x")), relGen("B", Seq("x"))) { (a, b) =>
      val joins = Seq(ja("x", "A" -> "x", "B" -> "x"))
      val out = executor(a, b).execute(QuerySpec(Seq("A", "B"), joins,
        aggs = Seq(AggSpec(AggFunc.Count, _ => 1.0, "c")), aggMode = AggMode.Scalar))
      out.rows.head("c") == refJoin(Seq(a, b), joins).size.toDouble ||
        (refJoin(Seq(a, b), joins).isEmpty && out.rows.head("c") == 0.0)
    }, 40)
  }

  test("property: AggCell merge is commutative and associative (up to fp)") {
    val cell = Gen.listOf(Gen.chooseNum(-50.0, 50.0)).map(_.foldLeft(AggCell.zero)(_ add _))
    def close(x: AggCell, y: AggCell): Boolean =
      math.abs(x.sum - y.sum) < 1e-9 && x.count == y.count && x.min == y.min && x.max == y.max
    check(Prop.forAll(cell, cell)((a, b) => close(a.merge(b), b.merge(a))))
    check(Prop.forAll(cell, cell, cell)((a, b, c) =>
      close(a.merge(b).merge(c), a.merge(b.merge(c)))))
  }

  test("property: JoinMsg.Ids merge preserves all senders") {
    check(Prop.forAll(Gen.listOf(Gen.long), Gen.listOf(Gen.long)) { (a, b) =>
      JoinMsg.merge(JoinMsg.Ids(a), JoinMsg.Ids(b)) match {
        case JoinMsg.Ids(m) => m.toSet == (a ++ b).toSet && m.size == a.size + b.size
        case _              => false
      }
    })
  }

  test("property: Tables merge concatenates per tag") {
    val tab = Gen.listOf(Gen.chooseNum(0, 5)).map(_.map(i => Map[String, Any]("v" -> i)).toVector)
    check(Prop.forAll(tab, tab) { (x, y) =>
      (JoinMsg.merge(JoinMsg.Tables(Map("t" -> x)), JoinMsg.Tables(Map("t" -> y))),
        JoinMsg.merge(JoinMsg.Tables(Map("t" -> x)), JoinMsg.Tables(Map("u" -> y)))) match {
        case (JoinMsg.Tables(m1), JoinMsg.Tables(m2)) =>
          m1("t").size == x.size + y.size && m2("t") == x && m2("u") == y
        case _ => false
      }
    })
  }

  // ------------------------------------------------------- message merge laws

  /** `merge` is commutative and associative on `gen`, up to `canon`. */
  private def mergeLaws[M](gen: Gen[M], merge: (M, M) => M, canon: M => Any): Unit = {
    check(Prop.forAll(gen, gen)((a, b) => canon(merge(a, b)) == canon(merge(b, a))))
    check(Prop.forAll(gen, gen, gen)((a, b, c) =>
      canon(merge(merge(a, b), c)) == canon(merge(a, merge(b, c)))))
  }

  private type Table = RowTable.Table
  private def bag[A](xs: Iterable[A]): Map[A, Int] = xs.groupBy(identity).view.mapValues(_.size).toMap
  private def bags[K, A](m: Map[K, Iterable[A]]): Map[K, Map[A, Int]] = m.view.mapValues(bag).toMap

  private val ids: Gen[List[Long]] = Gen.listOf(Gen.chooseNum(0L, 9L))
  private val idSet: Gen[Set[Long]] = ids.map(_.toSet)
  private val table: Gen[Table] =
    Gen.listOf(Gen.chooseNum(0, 3)).map(_.map(i => Map[String, Any]("v" -> i)).toVector)
  private def keyed[K, V](keys: Gen[K], v: Gen[V]): Gen[Map[K, V]] = Gen.mapOf(Gen.zip(keys, v))
  private val tag: Gen[String] = Gen.oneOf("R", "S")
  private val anchor: Gen[Any] = Gen.oneOf[Any]("a", "b", 7L)
  private val side: Gen[Char] = Gen.oneOf('L', 'R')
  // integer-valued doubles keep sums exact, so cells compare with ==
  private val cell: Gen[AggCell] =
    Gen.listOf(Gen.chooseNum(-9, 9)).map(_.foldLeft(AggCell.zero)(_ add _.toDouble))
  private val partials: Gen[Partials] = Gen.listOf(Gen.zip(Gen.oneOf("g", "h"), Gen.chooseNum(-9, 9)))
    .map(rs => Partials.ofRows(rs.map { case (g, v) => Map[String, Any]("g" -> g, "v" -> v.toDouble) },
      Seq("g"), Seq(AggSpec(AggFunc.Sum, _("v").asInstanceOf[Double], "s"))))

  test("property: every JoinMsg merge is commutative and associative") {
    import JoinMsg._
    def canon(m: JoinMsg): Any = m match {
      case Ids(x)    => bag(x)
      case Tables(x) => bags(x)
      case other     => other
    }
    // each phase's variant, and the keep-alive Ping that may meet any of them
    for (g <- Seq[Gen[JoinMsg]](ids.map(Ids), keyed(tag, table).map(Tables), cell.map(Corr),
        partials.map(Agg)))
      mergeLaws[JoinMsg](Gen.oneOf(g, Gen.const(Ping)), JoinMsg.merge, canon)
  }

  test("property: CycMsg merge is commutative and associative, one part per (kind, side)") {
    import CycMsg._
    val part: Gen[CycMsg] = Gen.oneOf[CycMsg](
      idSet.map(Wake),
      Gen.zip(side, keyed(anchor, idSet)).map { case (s, m) => Red(s, m) },
      Gen.zip(side, keyed(anchor, idSet)).map { case (s, m) => Sig(s, m) },
      Gen.zip(side, keyed(anchor, table)).map { case (s, m) => Tab(s, m) })
    // what a vertex can receive: one part, or several merged on the way
    val msg: Gen[CycMsg] = Gen.nonEmptyListOf(part).map(_.reduce(CycMsg.merge))
    def slot(m: CycMsg): Any = m match {
      case Wake(_)   => "W"
      case Red(s, _) => ("R", s)
      case Sig(s, _) => ("S", s)
      case Tab(s, _) => ("T", s)
      case Mix(_)    => "nested"
    }
    def canon(m: CycMsg): Any = {
      val ps = parts(m)
      if (ps.map(slot).distinct.size != ps.size) "two parts share a slot"
      else ps.map {
        case Tab(s, t) => ("T", s) -> bags(t)
        case p         => slot(p) -> p
      }.toMap
    }
    mergeLaws(msg, CycMsg.merge, canon)
    check(Prop.forAll(msg, msg)((a, b) => canon(CycMsg.merge(a, b)) != "two parts share a slot"))
  }

  test("property: every TwMsg merge is commutative and associative") {
    import TwMsg._
    def canon(m: TwMsg): Any = m match {
      case TIds(x)  => bag(x)
      case TVals(x) => bags(x)
      case TRows(x) => bags(x)
    }
    val vals = Gen.listOf(Gen.zip(Gen.chooseNum(0L, 5L), Gen.listOf(anchor).map(_.toVector)))
    for (g <- Seq[Gen[TwMsg]](ids.map(TIds), keyed(tag, vals).map(TVals), keyed(tag, table).map(TRows)))
      mergeLaws(g, TwMsg.merge, canon)
  }

  test("property: every CpMsg merge is commutative and associative") {
    import CpMsg._
    def canon(m: CpMsg): Any = m match {
      case RIds(x)  => bag(x)
      case SRows(x) => bag(x)
      case other    => other
    }
    for (g <- Seq[Gen[CpMsg]](Gen.zip(idSet, idSet).map { case (r, s) => Reg(r, s) },
        ids.map(x => RIds(x.distinct.toVector)), table.map(SRows)))
      mergeLaws(g, CpMsg.merge, canon)
  }

  test("property: ValueKey.normalize is idempotent") {
    val anyVal: Gen[Any] = Gen.oneOf(
      Gen.long.map(l => l: Any), Gen.alphaStr.map(s => s: Any),
      Gen.chooseNum(-10000, 10000).map(d => java.sql.Date.valueOf(
        java.time.LocalDate.ofEpochDay(d.toLong)): Any),
      Gen.double.map(d => d: Any))
    check(Prop.forAll(anyVal) { v =>
      val n = repro.tag.ValueKey.normalize(v)
      repro.tag.ValueKey.normalize(n) == n
    })
  }

  test("property: natural join is commutative up to column union") {
    val tab = Gen.listOf(Gen.zip(Gen.chooseNum(0, 3), Gen.chooseNum(0, 3)))
      .map(_.map { case (k, v) => Map[String, Any]("k" -> k, "v" -> v) }.toVector)
    val tab2 = Gen.listOf(Gen.zip(Gen.chooseNum(0, 3), Gen.chooseNum(0, 3)))
      .map(_.map { case (k, w) => Map[String, Any]("k" -> k, "w" -> w) }.toVector)
    check(Prop.forAll(tab, tab2) { (x, y) =>
      sameBag(RowTable.naturalJoin(x, y), RowTable.naturalJoin(y, x))
    })
  }

  // Partials laws: integer-valued doubles keep every sum exact, so == holds
  private val aggRows: Gen[Vector[Map[String, Any]]] =
    Gen.listOf(Gen.zip(Gen.oneOf("g", "h"), Gen.oneOf("x", "y"), Gen.chooseNum(-9, 9)))
      .map(_.map { case (g, k, v) => Map[String, Any]("g" -> g, "k" -> k, "v" -> v.toDouble) }.toVector)
  private val byGk = Seq("g", "k")
  private val allFuncs = Seq(AggFunc.Sum, AggFunc.Count, AggFunc.Min, AggFunc.Max)
    .map(f => AggSpec(f, _("v").asInstanceOf[Double], f.toString))

  test("property: Partials.empty is an identity for merge") {
    check(Prop.forAll(partials)(p => p.merge(Partials.empty) == p && Partials.empty.merge(p) == p))
  }

  test("property: Partials merge is associative") {
    check(Prop.forAll(partials, partials, partials)((a, b, c) =>
      a.merge(b).merge(c) == a.merge(b.merge(c))))
  }

  test("property: Partials.ofRows of a concatenation is the merge of the parts") {
    check(Prop.forAll(aggRows, aggRows)((x, y) =>
      Partials.ofRows(x ++ y, byGk, allFuncs) ==
        Partials.ofRows(x, byGk, allFuncs).merge(Partials.ofRows(y, byGk, allFuncs))))
  }

  test("property: Partials.ofRow equals ofRows of the one row") {
    check(Prop.forAll(aggRows)(rows => rows.forall(r =>
      Partials.ofRow(r, byGk, allFuncs) == Partials.ofRows(Vector(r), byGk, allFuncs))))
  }

  test("property: Partials merge is order-insensitive") {
    val rows = Gen.listOf(Gen.zip(Gen.oneOf("a", "b"), Gen.chooseNum(0.0, 9.0)))
      .map(_.map { case (g, v) => Map[String, Any]("g" -> g, "v" -> v) }.toVector)
    val aggs = Seq(AggSpec(AggFunc.Sum, t => t("v").asInstanceOf[Double], "s"))
    check(Prop.forAll(rows, rows) { (x, y) =>
      Partials.ofRows(x, Seq("g"), aggs).merge(Partials.ofRows(y, Seq("g"), aggs)) ==
        Partials.ofRows(y, Seq("g"), aggs).merge(Partials.ofRows(x, Seq("g"), aggs))
    })
  }
}
