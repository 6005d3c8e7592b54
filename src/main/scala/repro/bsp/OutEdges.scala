package repro.bsp

import scala.collection.immutable

/** The out-edges of one vertex, sorted by (label, dst), so that the edges of
  * one `R.A` label are one contiguous range of the view ([[withLabel]]).
  *
  * Both engines pass one of these as the `edges` of
  * [[VertexProgram.initiallyActive]] and [[VertexProgram.compute]]. A
  * program that sends along one label then pays for the matching edges, not
  * for the vertex's degree, and allocates no [[OutEdge]] (Ligra's `edgeMap`
  * over a sparse frontier; Shun & Blelloch, PPoPP 2013). The view is still an
  * `IndexedSeq[OutEdge]`, so a wrapper that forwards `edges` unchanged keeps
  * this property, and [[OutEdges.withLabel]] accepts any other edge sequence.
  */
abstract class OutEdges extends immutable.IndexedSeq[OutEdge] with Serializable {

  /** Target vertex of edge `i`. */
  def dst(i: Int): Long

  /** `R.A` label of edge `i`. */
  def label(i: Int): String

  /** The edges labelled `label`, in `dst` order: a sub-range of this view. */
  def withLabel(label: String): OutEdges

  final def apply(i: Int): OutEdge = OutEdge(dst(i), label(i))

  /** `f` on the target of every edge, in order. */
  final def foreachDst(f: Long => Unit): Unit = {
    var i = 0
    while (i < length) { f(dst(i)); i += 1 }
  }
}

object OutEdges {

  /** The edges of `edges` labelled `label`, whatever sequence the engine
    * passed.
    */
  def withLabel(edges: IndexedSeq[OutEdge], label: String): OutEdges = edges match {
    case es: OutEdges => es.withLabel(label)
    case es           => sorted(es.filter(_.label == label))
  }

  /** A view of `edges` sorted by (label, dst): the distributed engine's
    * per-vertex edge list.
    */
  def sorted(edges: Iterable[OutEdge]): OutEdges = {
    val es = edges.toArray.sortBy(e => (e.label, e.dst))
    new Sorted(es.map(_.dst), es.map(_.label), 0, es.length)
  }

  /** The first index in `[from, until)` whose key is not below the probe,
    * for keys ascending along the range; `below(i)` tells whether key `i`
    * is below it.
    */
  def lowerBound(from: Int, until: Int)(below: Int => Boolean): Int = {
    var lo = from
    var hi = until
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (below(mid)) lo = mid + 1 else hi = mid
    }
    lo
  }

  private final class Sorted(dsts: Array[Long], labels: Array[String], from: Int, until: Int)
      extends OutEdges {
    def length: Int = until - from
    def dst(i: Int): Long = dsts(from + i)
    def label(i: Int): String = labels(from + i)
    def withLabel(l: String): OutEdges = {
      val lo = lowerBound(from, until)(labels(_).compareTo(l) < 0)
      new Sorted(dsts, labels, lo, lowerBound(lo, until)(labels(_).compareTo(l) <= 0))
    }
  }
}
