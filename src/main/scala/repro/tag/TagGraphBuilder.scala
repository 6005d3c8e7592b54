package repro.tag

import org.apache.spark.graphx.{Edge, Graph}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bsp.VertexInfo

import scala.collection.mutable

/** One input relation for TAG encoding.
  *
  * @param name     relation name (edge labels become `name.attr`)
  * @param rows     tuples (normalized values; a hidden `\$rid_name` column is
  *                 injected automatically)
  * @param attrCols columns materialized as attribute vertices (§3 lets the
  *                 loader skip e.g. floats and long strings; everything else
  *                 stays payload inside the tuple vertex)
  */
final case class TagRelation(name: String, rows: IndexedSeq[Tup], attrCols: Seq[String])
    extends Serializable

object TagRelation {

  /** Normalize a DataFrame into a [[TagRelation]] (collects to the driver —
    * the single-server setting holds all working data in RAM, §8.1).
    */
  def fromDataFrame(name: String, df: DataFrame, attrCols: Seq[String]): TagRelation = {
    val cols = df.columns
    val rid  = ridCol(name)
    val rows = df.collect().iterator.zipWithIndex.map { case (r, i) =>
      val m = mutable.Map.empty[String, Any]
      var c = 0
      while (c < cols.length) { m(cols(c)) = ValueKey.normalize(r.get(c)); c += 1 }
      m(rid) = i.toLong
      m.toMap
    }.toIndexedSeq
    TagRelation(name, rows, attrCols)
  }
}

/** Constructs TAG graphs (§3) from relations: one tuple vertex per tuple, one
  * shared attribute vertex per distinct normalized value across the whole
  * database, and an `R.A`-labeled edge (in both directions) per attribute
  * occurrence. Query-independent; built once per database.
  */
object TagGraphBuilder {

  val AttrLabel = "#attr"

  /** Build the in-memory CSR TAG graph for the shared-memory engine. */
  def local(relations: Seq[TagRelation]): LocalTagGraph = {
    val nTuples = relations.map(_.rows.size).sum

    // Tuple vertices first (dense ids), then attribute vertices.
    val vertexLabel = mutable.ArrayBuffer.empty[String]
    val tupleData   = mutable.ArrayBuffer.empty[Tup]
    relations.foreach { rel =>
      rel.rows.foreach { t => vertexLabel += rel.name; tupleData += t }
    }

    val attrId = mutable.HashMap.empty[Any, Int]
    val attrVals = mutable.ArrayBuffer.empty[Any]
    def attrVertex(v: Any): Int =
      attrId.getOrElseUpdate(v, { attrVals += v; nTuples + attrVals.size - 1 })

    val labelId = mutable.HashMap.empty[String, Int]
    val labelNames = mutable.ArrayBuffer.empty[String]
    def label(l: String): Int =
      labelId.getOrElseUpdate(l, { labelNames += l; labelNames.size - 1 })

    // First pass: undirected edge list (tuple, attr, label), label-major:
    // label ids ascend along the list, and tuple ids ascend within a label.
    val eTb = new mutable.ArrayBuilder.ofInt
    val eAb = new mutable.ArrayBuilder.ofInt
    val eLb = new mutable.ArrayBuilder.ofInt
    var base = 0
    relations.foreach { rel =>
      rel.attrCols.foreach { c =>
        val lid = label(s"${rel.name}.$c")
        var tid = base
        rel.rows.foreach { t =>
          val v = t.getOrElse(c, null)
          if (v != null && ValueKey.materializable(v)) {
            eTb += tid; eAb += attrVertex(v); eLb += lid
          }
          tid += 1
        }
      }
      base += rel.rows.size
    }
    val (eT, eA, eL) = (eTb.result(), eAb.result(), eLb.result())

    val n = nTuples + attrVals.size
    // Degree count (both directions), then CSR fill in edge-list order, so
    // each vertex's slice comes out sorted by (label id, dst).
    val deg = new Array[Int](n)
    var i = 0
    while (i < eT.length) { deg(eT(i)) += 1; deg(eA(i)) += 1; i += 1 }
    val off = new Array[Int](n + 1)
    i = 0
    while (i < n) { off(i + 1) = off(i) + deg(i); i += 1 }
    val cursor = java.util.Arrays.copyOf(off, n)
    val dst = new Array[Int](2 * eT.length)
    val lab = new Array[Int](2 * eT.length)
    i = 0
    while (i < eT.length) {
      val t = eT(i); val a = eA(i); val l = eL(i)
      dst(cursor(t)) = a; lab(cursor(t)) = l; cursor(t) += 1
      dst(cursor(a)) = t; lab(cursor(a)) = l; cursor(a) += 1
      i += 1
    }

    val labels  = vertexLabel.toArray ++ Array.fill(attrVals.size)(AttrLabel)
    val isTuple = Array.tabulate(n)(_ < nTuples)
    val tData   = tupleData.toArray[Tup] ++ Array.fill[Tup](attrVals.size)(null)
    val aData   = Array.fill[Any](nTuples)(null) ++ attrVals.toArray[Any]
    new LocalTagGraph(n, labels, isTuple, tData, aData, off, dst, lab, labelNames.toArray)
  }

  /** The TAG graph as a GraphX `Graph` for the distributed BSP engine
    * (Tables 16/17): a view of [[local]]'s CSR with the same vertex ids,
    * vertex attr = the vertex's `VertexInfo`, one edge per CSR entry with
    * its `R.A` label.
    */
  def graphx(spark: SparkSession, relations: Seq[TagRelation]): Graph[VertexInfo, String] = {
    val g = local(relations)
    val ids = 0 until g.numVertices
    val edges = for (v <- ids; e <- g.outEdges(v)) yield Edge(v.toLong, e.dst, e.label)
    val sc = spark.sparkContext
    Graph(sc.parallelize(ids.map(g.info)).map(i => (i.id, i)), sc.parallelize(edges))
  }
}
