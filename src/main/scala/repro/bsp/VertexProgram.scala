package repro.bsp

/** Identity and payload of a TAG vertex as seen by a vertex program.
  *
  * Mirrors the paper's §2 model: a vertex has an id, a label (the relation
  * name for tuple vertices, a type tag for attribute vertices), and state.
  * Tuple vertices store the tuple (`tuple`); attribute vertices store the
  * attribute value (`value`).
  */
final case class VertexInfo(
    id: Long,
    label: String,
    isTuple: Boolean,
    tuple: Map[String, Any],
    value: Any,
) extends Serializable

/** A directed out-edge: target vertex id plus the paper's `R.A` edge label. */
final case class OutEdge(dst: Long, label: String) extends Serializable

/** Message sink handed to [[VertexProgram.compute]]. Targets are either
  * out-edge neighbours, any vertex id learned during the computation, or the
  * global aggregator vertex ([[VertexProgram.AggregatorId]]) — exactly the
  * §2 messaging model.
  */
trait SendCtx[M] {
  def send(target: Long, m: M): Unit
}

/** A vertex-centric BSP program in the Pregel style of §2.
  *
  * The engine runs supersteps: at step `i`, every vertex that received a
  * message in step `i-1` (or is initially active at step 0) runs
  * [[compute]]: it processes its merged inbox, updates its state, and emits
  * messages for step `i+1`. Execution halts when no messages were sent or
  * after [[maxSteps]] supersteps. Messages to the same target within a
  * superstep are combined with [[merge]] (commutative-combiner discipline).
  *
  * The `edges` an engine passes are an [[OutEdges]] view sorted by label,
  * so [[OutEdges.withLabel]] selects one label's edges without a scan.
  * [[startLabels]] narrows only which vertices an engine asks at step 0,
  * so a wrapper that forwards every other member but not it gets the same
  * run.
  *
  * `S` is the per-vertex algorithm state, `M` the message type.
  */
trait VertexProgram[S, M] extends Serializable {

  /** Initial algorithm state for every vertex, before superstep 0.
    *
    * Must be a pure function of `v`: an engine may call it more than once
    * for a vertex, and reports it as the final state of a vertex that never
    * ran [[compute]] instead of storing it.
    */
  def initialState(v: VertexInfo): S

  /** Vertices active at superstep 0; they run [[compute]] with no inbox
    * (the paper activates e.g. all `startLabel` vertices).
    */
  def initiallyActive(v: VertexInfo, s: S, edges: IndexedSeq[OutEdge]): Boolean

  /** Vertex labels (relation names, or the attribute label `#attr`) that
    * hold every initially active vertex; `None`, the default, means every
    * label. An engine asks [[initiallyActive]] only of these labels'
    * vertices, which are contiguous id ranges on [[LocalBspEngine]], so a
    * program that starts at one relation does not pay a step-0 scan of the
    * whole graph.
    */
  def startLabels: Option[Set[String]] = None

  /** One superstep of one active vertex: process the merged inbox (`None`
    * only for initially-active vertices at step 0), emit messages via `ctx`,
    * return the new state. The vertex's out-edge list is local data (§2:
    * each vertex "holds … a list of outgoing edges").
    */
  def compute(step: Int, v: VertexInfo, s: S, msg: Option[M],
      edges: IndexedSeq[OutEdge], ctx: SendCtx[M]): S

  /** The global aggregator vertex: receives its merged inbox each superstep
    * and may answer with direct messages delivered next superstep (§6.3).
    */
  def aggregatorCompute(step: Int, merged: M): Iterator[(Long, M)] = Iterator.empty

  /** Commutative, associative message combiner. */
  def merge(a: M, b: M): M

  /** Hard superstep bound (query-dependent, data-independent — §5.2.1). */
  def maxSteps: Int
}

object VertexProgram {
  /** Reserved id of the global aggregator vertex (its id is "known to all"). */
  val AggregatorId: Long = -1L
}

/** Per-run metrics: the paper's communication cost measure (§2) is the total
  * number of messages sent over all supersteps; we also keep the per-step
  * breakdown so tests can check the §4–§6 bounds.
  */
final case class BspStats(
    supersteps: Int,
    messagesPerStep: Vector[Long],
) extends Serializable {
  def totalMessages: Long = messagesPerStep.sum
}

/** Result of a BSP run over a fixed graph. */
trait BspRun[S, M] {

  /** Gather `f` over all final (vertex, state) pairs; on the distributed
    * engine `f` runs on the executors so only its (typically tiny) output
    * crosses the wire.
    */
  def mapStates[O: scala.reflect.ClassTag](f: (VertexInfo, S) => IterableOnce[O]): Vector[O]

  /** All messages ever merged into the global aggregator vertex, combined. */
  def aggregate: Option[M]

  def stats: BspStats
}

/** An engine executes vertex programs over one fixed TAG graph. */
trait BspEngine {
  def run[S, M](program: VertexProgram[S, M])(implicit
      st: scala.reflect.ClassTag[S],
      mt: scala.reflect.ClassTag[M]): BspRun[S, M]
}
