package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.bsp.LocalBspEngine

/** §6 cyclic joins: triangle (vanilla and heavy/light) and n-way cycles,
  * cross-checked against brute force; communication-bound sanity checks.
  */
class CycleJoinSpec extends AnyFunSuite {
  import TestDb._

  private def ja(name: String, cols: (String, String)*) = JoinAttr(name, cols.toMap)

  // triangle R(A,B) ⋈ S(B,C) ⋈ T(C,A) — Figure 5 shape
  private def triSpec(theta: Option[Double]) = CycleSpec(
    rels = Vector("R", "S", "T"),
    attrs = Vector(
      ja("A", "T" -> "a", "R" -> "a"),   // X1 joins R3=T and R1=R
      ja("B", "R" -> "b", "S" -> "b"),   // X2 joins R1 and R2
      ja("C", "S" -> "c", "T" -> "c")),  // X3 joins R2 and R3
    carry = Map("R" -> Seq("a", "b"), "S" -> Seq("c"), "T" -> Seq("t")),
    theta = theta)

  private def refTriangle(r: repro.tag.TagRelation, s: repro.tag.TagRelation,
      t: repro.tag.TagRelation): Vector[repro.tag.Tup] =
    clean(refJoin(Seq(r, s, t), Seq(
      ja("A", "R" -> "a", "T" -> "a"), ja("B", "R" -> "b", "S" -> "b"),
      ja("C", "S" -> "c", "T" -> "c"))))
      .map(_.view.filterKeys(Set("a", "b", "c", "t")).toMap)

  test("Figure 5: single triangle is found") {
    val r = rel("R", Seq("a", "b"), Seq("a", "b"), Seq(Seq("a1", "b1"), Seq("a2", "b2")))
    val s = rel("S", Seq("b", "c"), Seq("b", "c"), Seq(Seq("b1", "c1"), Seq("b3", "c2")))
    val t = rel("T", Seq("c", "a", "t"), Seq("c", "a"), Seq(Seq("c1", "a1", "t1"), Seq("c2", "a9", "t2")))
    val (out, _) = CycleJoin.run(engine(r, s, t), triSpec(None))
    assert(sameBag(out, Vector(Map("a" -> "a1", "b" -> "b1", "c" -> "c1", "t" -> "t1"))))
  }

  test("no triangle yields empty output") {
    val r = rel("R", Seq("a", "b"), Seq("a", "b"), Seq(Seq("a1", "b1")))
    val s = rel("S", Seq("b", "c"), Seq("b", "c"), Seq(Seq("b1", "c1")))
    val t = rel("T", Seq("c", "a", "t"), Seq("c", "a"), Seq(Seq("c1", "a2", "t1")))
    val (out, _) = CycleJoin.run(engine(r, s, t), triSpec(None))
    assert(out.isEmpty)
  }

  private def randomTriangleDb(seed: Int, n: Int, dom: Int) = {
    val rnd = new scala.util.Random(seed)
    def pick() = s"v${rnd.nextInt(dom)}"
    (rel("R", Seq("a", "b"), Seq("a", "b"), (1 to n).map(_ => Seq[Any](pick(), pick()))),
      rel("S", Seq("b", "c"), Seq("b", "c"), (1 to n).map(_ => Seq[Any](pick(), pick()))),
      rel("T", Seq("c", "a", "t"), Seq("c", "a"),
        (1 to n).map(i => Seq[Any](pick(), pick(), s"t$i"))))
  }

  test("randomized triangles: vanilla pass matches brute force") {
    for (seed <- 1 to 15) {
      val (r, s, t) = randomTriangleDb(seed, 8, 3)
      val (out, _) = CycleJoin.run(engine(r, s, t), triSpec(None))
      assert(sameBag(out, refTriangle(r, s, t)), s"seed=$seed")
    }
  }

  test("randomized triangles: heavy/light split matches vanilla for any θ") {
    for (seed <- 1 to 10; theta <- Seq(0.0, 1.0, 2.0, 100.0)) {
      val (r, s, t) = randomTriangleDb(seed, 8, 3)
      val (v, _) = CycleJoin.run(engine(r, s, t), triSpec(None))
      val (hl, stats) = CycleJoin.run(engine(r, s, t), triSpec(Some(theta)))
      assert(sameBag(v, hl), s"seed=$seed theta=$theta")
      assert(stats.size == 2) // heavy pass + light pass
    }
  }

  test("skewed instance: heavy value is classified heavy and still correct") {
    // a1 occurs 6x in R (heavy for θ=2); plus a light a2
    val r = rel("R", Seq("a", "b"), Seq("a", "b"),
      (1 to 6).map(i => Seq[Any]("a1", s"b$i")) :+ Seq[Any]("a2", "b1"))
    val s = rel("S", Seq("b", "c"), Seq("b", "c"),
      (1 to 6).map(i => Seq[Any](s"b$i", "c1")))
    val t = rel("T", Seq("c", "a", "t"), Seq("c", "a"),
      Seq(Seq("c1", "a1", "t1"), Seq("c1", "a2", "t2")))
    val (v, _) = CycleJoin.run(engine(r, s, t), triSpec(None))
    val (hl, _) = CycleJoin.run(engine(r, s, t), triSpec(Some(2.0)))
    assert(sameBag(v, hl) && v.size == 7)
  }

  test("tuple filters prune cycle participants") {
    val (r, s, t) = randomTriangleDb(3, 8, 2)
    val flt = triSpec(None).copy(tupleFilter = Map("T" -> (tp => tp("t") != "t1")))
    val (out, _) = CycleJoin.run(engine(r, s, t), flt)
    val ref = refTriangle(r, s, t).filter(_("t") != "t1")
    assert(sameBag(out, ref))
  }

  test("4-cycle matches brute force") {
    val rnd = new scala.util.Random(11)
    def pick() = s"v${rnd.nextInt(3)}"
    val r1 = rel("R1", Seq("x1", "x2"), Seq("x1", "x2"), (1 to 8).map(_ => Seq[Any](pick(), pick())))
    val r2 = rel("R2", Seq("x2", "x3"), Seq("x2", "x3"), (1 to 8).map(_ => Seq[Any](pick(), pick())))
    val r3 = rel("R3", Seq("x3", "x4"), Seq("x3", "x4"), (1 to 8).map(_ => Seq[Any](pick(), pick())))
    val r4 = rel("R4", Seq("x4", "x1"), Seq("x4", "x1"), (1 to 8).map(_ => Seq[Any](pick(), pick())))
    val joins = Seq(
      ja("X1", "R4" -> "x1", "R1" -> "x1"), ja("X2", "R1" -> "x2", "R2" -> "x2"),
      ja("X3", "R2" -> "x3", "R3" -> "x3"), ja("X4", "R3" -> "x4", "R4" -> "x4"))
    val spec = CycleSpec(Vector("R1", "R2", "R3", "R4"),
      Vector(joins(0), joins(1), joins(2), joins(3)),
      carry = Map("R1" -> Seq("x1", "x2"), "R2" -> Seq("x3"), "R3" -> Seq("x4")))
    for (theta <- Seq(None, Some(1.0))) {
      val (out, _) = CycleJoin.run(engine(r1, r2, r3, r4), spec.copy(theta = theta))
      val ref = clean(refJoin(Seq(r1, r2, r3, r4), joins))
        .map(_.view.filterKeys(Set("x1", "x2", "x3", "x4")).toMap)
      assert(sameBag(out, ref), s"theta=$theta: ${out.size} vs ${ref.size}")
    }
  }

  /** A k-cycle R1(x1,x2) ⋈ … ⋈ Rk(xk,x1) of `rows` random rows per
    * relation over `dom` values, its spec, and the brute-force result.
    */
  private def ring(k: Int, rows: Int, dom: Int, seed: Int) = {
    val rnd = new scala.util.Random(seed)
    def pick() = s"v${rnd.nextInt(dom)}"
    val rels = (1 to k).map { i =>
      val c1 = s"x$i"; val c2 = s"x${i % k + 1}"
      rel(s"R$i", Seq(c1, c2), Seq(c1, c2), (1 to rows).map(_ => Seq[Any](pick(), pick())))
    }
    val joins = (1 to k).map { i =>
      val prev = if (i == 1) k else i - 1
      ja(s"X$i", s"R$prev" -> s"x$i", s"R$i" -> s"x$i")
    }
    val spec = CycleSpec(Vector.tabulate(k)(i => s"R${i + 1}"), joins.toVector,
      carry = (1 to k).map(i => s"R$i" -> Seq(s"x$i", s"x${i % k + 1}")).toMap)
    val ref = clean(refJoin(rels, joins)).map(_.view.filterKeys((1 to k).map(i => s"x$i").toSet).toMap)
    (rels, spec, ref)
  }

  test("5-cycle (odd, unequal path lengths) matches brute force") {
    val (rels, spec, ref) = ring(5, 6, 2, 13)
    for (theta <- Seq(None, Some(2.0))) {
      val (out, _) = CycleJoin.run(engine(rels: _*), spec.copy(theta = theta))
      assert(sameBag(out, ref), s"theta=$theta: ${out.size} vs ${ref.size}")
    }
  }

  test("cycle stats do not depend on the thread count") {
    val (r, s, t) = randomTriangleDb(5, 60, 6)
    val (r4, spec4, ref4) = ring(4, 40, 5, 17)
    val (r5, spec5, ref5) = ring(5, 30, 4, 19)
    val cases = Seq(
      ("triangle", Seq(r, s, t), triSpec(None), refTriangle(r, s, t)),
      ("4-cycle", r4, spec4, ref4),
      ("5-cycle", r5, spec5, ref5))
    for ((name, rels, spec0, ref) <- cases; theta <- Seq(None, Some(2.0))) {
      val g = graph(rels: _*)
      val spec = spec0.copy(theta = theta)
      val stats = for (threads <- Seq(1, 2, 8, 8)) yield {
        val (out, st) = CycleJoin.run(new LocalBspEngine(g, threads), spec)
        assert(sameBag(out, ref), s"$name theta=$theta threads=$threads")
        st
      }
      assert(stats.distinct.size == 1, s"$name theta=$theta: $stats")
    }
  }

  test("PK-FK cycle communication stays linear in IN (§6.1.1)") {
    // A is a key of R and T: each a-value occurs once per relation
    val n = 20
    val r = rel("R", Seq("a", "b"), Seq("a", "b"), (1 to n).map(i => Seq[Any](i, i % 5)))
    val s = rel("S", Seq("b", "c"), Seq("b", "c"), (0 until 5).map(i => Seq[Any](i, i)))
    val t = rel("T", Seq("c", "a", "t"), Seq("c", "a"), (1 to n).map(i => Seq[Any](i % 5, i, s"t$i")))
    val (out, stats) = CycleJoin.run(engine(r, s, t), triSpec(None))
    val in = 2 * n + 5
    assert(stats.head.totalMessages <= 20 * in) // small constant factor of IN
    assert(out.size == n)
  }
}

/** §6.3 Cartesian product via the global aggregator vertex. */
class CartesianProductSpec extends AnyFunSuite {
  import TestDb._

  private val r = rel("R", Seq("x"), Seq("x"), Seq(Seq(1), Seq(2), Seq(3)))
  private val s = rel("S", Seq("y"), Seq("y"), Seq(Seq("a"), Seq("b")))

  test("product size is |R| * |S|") {
    val (out, _) = CartesianProduct.run(engine(r, s), "R", "S",
      carry = Map("R" -> Seq("x"), "S" -> Seq("y")))
    assert(out.size == 6)
    assert(out.toSet == (for (x <- 1 to 3; y <- Seq("a", "b")) yield Map[String, Any]("x" -> x.toLong, "y" -> y)).toSet)
  }

  test("communication cost is O(|R| * |S|) (§6.3)") {
    val (_, stats) = CartesianProduct.run(engine(r, s), "R", "S",
      carry = Map("R" -> Seq("x"), "S" -> Seq("y")))
    assert(stats.totalMessages <= 5 + 3 + 2 * 3 + 5)
  }

  test("filters apply before the product") {
    val (out, _) = CartesianProduct.run(engine(r, s), "R", "S",
      tupleFilter = Map("R" -> (t => t("x") != 2L)),
      carry = Map("R" -> Seq("x"), "S" -> Seq("y")))
    assert(out.size == 4)
  }

  test("result is distributed over R-tuple vertices then gathered") {
    val (out, stats) = CartesianProduct.run(engine(r, s), "R", "S",
      carry = Map("R" -> Seq("x"), "S" -> Seq("y")))
    assert(stats.supersteps <= 4)
    assert(out.groupBy(_("x")).forall(_._2.size == 2))
  }
}
