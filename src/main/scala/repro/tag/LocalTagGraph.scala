package repro.tag

import repro.bsp.{OutEdges, VertexInfo}

/** In-memory CSR representation of a TAG graph (§3), the substrate for the
  * shared-memory BSP engine (the paper's single-server TigerGraph setting).
  *
  * Vertices `0 until numVertices`; tuple vertices carry their tuple, attribute
  * vertices their normalized value. Undirected TAG edges are materialized as
  * two directed edges so a standard vertex-centric program can message in
  * both directions (§3 footnote 3). Each vertex's CSR slice is sorted by
  * (label id, dst), so its edges of one label are one contiguous range
  * ([[OutEdges.withLabel]]).
  */
final class LocalTagGraph(
    val numVertices: Int,
    val vertexLabel: Array[String],      // relation name, or "#attr" for attribute vertices
    val isTuple: Array[Boolean],
    val tupleData: Array[Tup],           // null for attribute vertices
    val attrValue: Array[Any],           // null for tuple vertices
    val edgeOffsets: Array[Int],         // CSR offsets, length numVertices+1
    val edgeDst: Array[Int],
    val edgeLabelId: Array[Int],
    val labelNames: Array[String],       // edge label id → "R.A"
) extends Serializable {

  def numEdges: Int = edgeDst.length

  def info(v: Int): VertexInfo =
    VertexInfo(v.toLong, vertexLabel(v), isTuple(v), tupleData(v), attrValue(v))

  def degree(v: Int): Int = edgeOffsets(v + 1) - edgeOffsets(v)

  /** Edge label → label id. */
  private val labelIds: Map[String, Int] = labelNames.iterator.zipWithIndex.toMap

  /** The id of edge label `name`, or -1 when no edge has it. */
  private def labelId(name: String): Int = labelIds.getOrElse(name, -1)

  /** Out-edges of `v` as the program-facing view: its CSR slice. */
  def outEdges(v: Int): OutEdges = new LocalTagGraph.Slice(this, edgeOffsets(v), edgeOffsets(v + 1))

  /** Vertex label → the id ranges `[lo, hi)` of its vertices, ascending. A
    * relation's tuple vertices are one range, the attribute vertices another.
    */
  lazy val vertexRanges: Map[String, Vector[(Int, Int)]] = {
    val b = Vector.newBuilder[(String, (Int, Int))]
    var lo = 0
    while (lo < numVertices) {
      var hi = lo + 1
      while (hi < numVertices && vertexLabel(hi) == vertexLabel(lo)) hi += 1
      b += vertexLabel(lo) -> (lo, hi)
      lo = hi
    }
    b.result().groupMap(_._1)(_._2)
  }

  /** Vertex ids of attribute vertices, keyed by normalized value. */
  lazy val attrIndex: Map[Any, Int] =
    (0 until numVertices).iterator.filterNot(isTuple(_)).map(v => attrValue(v) -> v).toMap
}

object LocalTagGraph {

  /** CSR entries `[from, until)` of `g`: one vertex's out-edges, or the
    * edges of one label among them.
    */
  private final class Slice(g: LocalTagGraph, from: Int, until: Int) extends OutEdges {
    def length: Int = until - from
    def dst(i: Int): Long = g.edgeDst(from + i)
    def label(i: Int): String = g.labelNames(g.edgeLabelId(from + i))
    def withLabel(l: String): OutEdges = {
      val id = g.labelId(l)
      val lab = g.edgeLabelId
      val lo = OutEdges.lowerBound(from, until)(lab(_) < id)
      new Slice(g, lo, OutEdges.lowerBound(lo, until)(lab(_) <= id))
    }
  }
}
