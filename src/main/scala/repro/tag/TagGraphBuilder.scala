package repro.tag

import org.apache.spark.graphx.{Edge, Graph, VertexId}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}

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

    // First pass: undirected edge list (tuple, attr, label).
    val eT = new mutable.ArrayBuffer[Int]()
    val eA = new mutable.ArrayBuffer[Int]()
    val eL = new mutable.ArrayBuffer[Int]()
    var tid = 0
    relations.foreach { rel =>
      val labs = rel.attrCols.map(c => (c, label(s"${rel.name}.$c"))).toArray
      rel.rows.foreach { t =>
        labs.foreach { case (c, lid) =>
          val v = t.getOrElse(c, null)
          if (v != null && ValueKey.materializable(v)) {
            eT += tid; eA += attrVertex(v); eL += lid
          }
        }
        tid += 1
      }
    }

    val n = nTuples + attrVals.size
    // Degree count (both directions), then CSR fill.
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

  def fromDataFrames(rels: Seq[(String, DataFrame, Seq[String])]): LocalTagGraph =
    local(rels.map { case (n, df, ac) => TagRelation.fromDataFrame(n, df, ac) })

  /** Distributed TAG graph as a GraphX `Graph`: vertex attr = VertexInfo-like
    * payload, edge attr = `R.A` label. Used by the distributed BSP engine
    * (Tables 16/17).
    */
  def graphx(spark: SparkSession, relations: Seq[TagRelation]): Graph[repro.bsp.VertexInfo, String] = {
    val sc = spark.sparkContext

    var offset = 0L
    val tupleParts = relations.map { rel =>
      val base = offset
      offset += rel.rows.size
      sc.parallelize(rel.rows.zipWithIndex.map { case (t, i) =>
        (base + i, repro.bsp.VertexInfo(base + i, rel.name, isTuple = true, t, null))
      })
    }
    val tupleVerts: RDD[(VertexId, repro.bsp.VertexInfo)] = sc.union(tupleParts)

    val occurrences: RDD[(Any, (VertexId, String))] = sc.union(relations.map { rel =>
      val base = relationBase(relations, rel.name)
      sc.parallelize(rel.rows.zipWithIndex.flatMap { case (t, i) =>
        rel.attrCols.flatMap { c =>
          val v = t.getOrElse(c, null)
          if (v != null && ValueKey.materializable(v)) Some((v, (base + i, s"${rel.name}.$c")))
          else None
        }
      })
    })

    val attrBase = offset
    val attrVerts = occurrences.keys.distinct().zipWithIndex().map { case (v, i) =>
      (v, attrBase + i)
    }.cache()

    val edges: RDD[Edge[String]] = occurrences.join(attrVerts).flatMap {
      case (_, ((tid, lab), aid)) =>
        Iterator(Edge(tid, aid, lab), Edge(aid, tid, lab))
    }
    val verts = tupleVerts ++ attrVerts.map { case (v, id) =>
      (id, repro.bsp.VertexInfo(id, AttrLabel, isTuple = false, null, v))
    }
    Graph(verts, edges)
  }

  private def relationBase(relations: Seq[TagRelation], name: String): Long = {
    var off = 0L
    relations.foreach { r => if (r.name == name) return off else off += r.rows.size }
    sys.error(s"unknown relation $name")
  }
}
