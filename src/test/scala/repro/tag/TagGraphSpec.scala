package repro.tag

import repro.SparkSpec
import repro.core.TestDb

/** TAG encoding invariants (§3), on the paper's Figure 1 example. */
class TagGraphSpec extends SparkSpec {

  // Figure 1: NATION(nationkey, name), CUSTOMER(custkey, nationkey),
  // ORDER(orderkey, custkey, date)
  private val nation = TestDb.rel("NATION", Seq("nationkey", "name"),
    Seq("nationkey", "name"),
    Seq(Seq(1, "USA"), Seq(2, "FRANCE")))
  private val customer = TestDb.rel("CUSTOMER", Seq("custkey", "nationkey"),
    Seq("custkey", "nationkey"),
    Seq(Seq(10, 1), Seq(2, 2)))
  private val order = TestDb.rel("ORDER", Seq("orderkey", "custkey", "odate"),
    Seq("orderkey", "custkey", "odate"),
    Seq(Seq(100, 10, java.sql.Date.valueOf("1996-01-02")),
        Seq(2, 2, java.sql.Date.valueOf("1996-01-02"))))

  private val g = TestDb.graph(nation, customer, order)

  test("one tuple vertex per tuple") {
    assert((0 until g.numVertices).count(g.isTuple) == 6)
  }

  test("the graph is bipartite: edges connect tuple and attribute vertices only") {
    for (v <- 0 until g.numVertices; e <- g.outEdges(v))
      assert(g.isTuple(v) != g.isTuple(e.dst.toInt))
  }

  test("attribute vertices are shared across relations and attribute names") {
    // value 2 is NATION.nationkey, CUSTOMER.custkey, CUSTOMER.nationkey,
    // ORDER.orderkey, ORDER.custkey — exactly one vertex, five+ edges
    val v2 = g.attrIndex(2L)
    val labels = g.outEdges(v2).map(_.label).toSet
    assert(labels == Set("NATION.nationkey", "CUSTOMER.custkey", "CUSTOMER.nationkey",
      "ORDER.orderkey", "ORDER.custkey"))
  }

  test("one attribute vertex per value regardless of occurrence count") {
    val dateVerts = (0 until g.numVertices).filter(v => !g.isTuple(v) &&
      g.attrValue(v).isInstanceOf[ValueKey.DateKey])
    assert(dateVerts.size == 1) // both orders share the date
    assert(g.degree(dateVerts.head) == 2)
  }

  test("edges are labeled relation.attribute and mirrored in both directions") {
    val v2 = g.attrIndex(2L)
    for (e <- g.outEdges(v2)) {
      val back = g.outEdges(e.dst.toInt)
      assert(back.exists(b => b.dst == v2.toLong && b.label == e.label))
    }
  }

  test("graph size is linear in the database size") {
    // 6 tuples, ≤ sum of attribute occurrences distinct values, 2*occurrences edges
    val occurrences = 2 * 2 + 2 * 2 + 2 * 3
    assert(g.numEdges == 2 * occurrences)
    assert(g.numVertices <= 6 + occurrences)
  }

  test("nulls and floats never become attribute vertices") {
    val r = TestDb.rel("F", Seq("a", "b"), Seq("a", "b"),
      Seq(Seq[Any](1.5, null), Seq[Any](2.5, 7)))
    val gf = TestDb.graph(r)
    val attrs = (0 until gf.numVertices).filterNot(gf.isTuple)
    assert(attrs.map(gf.attrValue).toSet == Set(7L))
  }

  test("tuple payload is preserved on tuple vertices") {
    val t = (0 until g.numVertices).find(v => g.isTuple(v) && g.vertexLabel(v) == "NATION").get
    assert(g.tupleData(t).contains("name"))
  }

  test("the GraphX graph has the CSR's vertex ids, infos and edges") {
    val gx = TagGraphBuilder.graphx(spark, Seq(nation, customer, order))
    val verts = gx.vertices.collect()
    assert(verts.length == g.numVertices)
    assert(verts.toMap == (0 until g.numVertices).map(v => v.toLong -> g.info(v)).toMap)
    def bag(es: Seq[(Long, Long, String)]) = es.groupBy(identity).view.mapValues(_.size).toMap
    assert(bag(gx.edges.map(e => (e.srcId, e.dstId, e.attr)).collect().toSeq) ==
      bag(for (v <- 0 until g.numVertices; e <- g.outEdges(v)) yield (v.toLong, e.dst, e.label)))
  }
}
