package repro.tag

import repro.bsp.{OutEdge, VertexInfo}

/** In-memory CSR representation of a TAG graph (§3), the substrate for the
  * shared-memory BSP engine (the paper's single-server TigerGraph setting).
  *
  * Vertices `0 until numVertices`; tuple vertices carry their tuple, attribute
  * vertices their normalized value. Undirected TAG edges are materialized as
  * two directed edges so a standard vertex-centric program can message in
  * both directions (§3 footnote 3).
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

  /** Out-edges of `v` as the program-facing view. */
  def outEdges(v: Int): IndexedSeq[OutEdge] = new scala.collection.immutable.IndexedSeq[OutEdge] {
    private val off = edgeOffsets(v)
    val length: Int = edgeOffsets(v + 1) - off
    def apply(i: Int): OutEdge = OutEdge(edgeDst(off + i).toLong, labelNames(edgeLabelId(off + i)))
  }

  /** Vertex ids of attribute vertices, keyed by normalized value. */
  lazy val attrIndex: Map[Any, Int] =
    (0 until numVertices).iterator.filterNot(isTuple(_)).map(v => attrValue(v) -> v).toMap
}
