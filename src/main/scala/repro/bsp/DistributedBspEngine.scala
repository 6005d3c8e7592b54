package repro.bsp

import org.apache.spark.HashPartitioner
import org.apache.spark.graphx.Graph
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

import scala.collection.immutable.ArraySeq
import scala.reflect.ClassTag

/** Distributed vertex-centric BSP engine over Spark.
  *
  * This is our substitute for TigerGraph's distributed mode (§8.6): the TAG
  * graph is a GraphX `Graph`; we derive the Pregel-style adjacency view
  * (each vertex holds its out-edge list, exactly the §2 model) and run
  * supersteps as Spark stages — message delivery is a `reduceByKey` shuffle,
  * the BSP barrier is the stage boundary. The same [[VertexProgram]]s run
  * unchanged on this engine and on [[LocalBspEngine]].
  *
  * A run keeps one RDD of vertex records (info, out-edges, state, the
  * messages sent in the last superstep), partitioned like the adjacency.
  * The inbox is the `reduceByKey` of the records' messages under the same
  * partitioner, so a superstep zips each record partition with its inbox
  * partition: only messages are shuffled, and `compute` runs once per
  * active vertex. One `collect` per superstep returns each partition's send
  * count and its pre-merged share of the aggregator's inbox; the
  * aggregator's answers join the next superstep's messages and count as
  * sent messages, as on [[LocalBspEngine]].
  */
final class DistributedBspEngine(
    adjacency: RDD[(Long, (VertexInfo, Array[OutEdge]))]) extends BspEngine with Serializable {
  import DistributedBspEngine._

  // modest partition count: each superstep is a full stage round-trip, so
  // task-launch overhead dominates at repro scale — fewer, fatter tasks win
  private val partitioner =
    new HashPartitioner(math.min(8, math.max(2, adjacency.sparkContext.defaultParallelism)))
  private val adj = adjacency.partitionBy(partitioner).persist(StorageLevel.MEMORY_AND_DISK)

  override def run[S, M](program: VertexProgram[S, M])(implicit
      st: ClassTag[S], mt: ClassTag[M]): BspRun[S, M] = {
    val sc = adj.sparkContext
    val perStep = Vector.newBuilder[Long]
    var aggAll: Option[M] = None
    var answers: Seq[(Long, M)] = Nil // the aggregator's answers of the last superstep
    var records: RDD[Rec[S, M]] = adj.mapPartitions(_.map { case (_, (info, edges)) =>
      Rec(info, ArraySeq.unsafeWrapArray(edges), program.initialState(info), NoSends)
    }, preservesPartitioning = true)
    var step = 0
    var done = false

    while (!done && step < program.maxSteps) {
      val curStep = step
      val next: RDD[Rec[S, M]] =
        if (step == 0)
          records.mapPartitions(_.map { r =>
            if (program.initiallyActive(r.info, r.state, r.edges)) compute(program, curStep, r, None)
            else r
          }, preservesPartitioning = true)
        else {
          val sent = records.flatMap(_.sent.iterator.filter(_._1 != VertexProgram.AggregatorId))
          val inbox = (if (answers.isEmpty) sent else sent ++ sc.parallelize(answers))
            .reduceByKey(partitioner, program.merge(_, _))
          records.zipPartitions(inbox, preservesPartitioning = true) { (rs, ms) =>
            val in = ms.toMap
            rs.map { r =>
              in.get(r.info.id) match {
                case Some(m)                => compute(program, curStep, r, Some(m))
                case None if r.sent.isEmpty => r
                case None                   => r.copy(sent = NoSends)
              }
            }
          }
        }
      next.persist(StorageLevel.MEMORY_AND_DISK)

      // The superstep's one job: per partition, the messages sent and the
      // partition's share of the aggregator's inbox, merged in record order.
      val parts = next.mapPartitions { rs =>
        var n = 0L
        var agg = Option.empty[M]
        rs.foreach(_.sent.foreach { case (target, m) =>
          n += 1
          if (target == VertexProgram.AggregatorId) agg = Some(agg.fold(m)(program.merge(_, m)))
        })
        Iterator.single((n, agg))
      }.collect()

      // Aggregator traffic: merged on the driver, answers re-injected (§2).
      answers = parts.iterator.flatMap(_._2).reduceOption(program.merge) match {
        case None => Nil
        case Some(merged) =>
          aggAll = Some(aggAll.fold(merged)(program.merge(_, merged)))
          program.aggregatorCompute(step, merged).toVector
      }
      val sentCount = parts.iterator.map(_._1).sum + answers.size
      perStep += sentCount

      records.unpersist(blocking = false)
      records = next
      step += 1
      done = sentCount == 0
    }

    val finalRecords = records
    val finalStats = BspStats(step, perStep.result())
    val agg = aggAll
    new BspRun[S, M] {
      def mapStates[O: ClassTag](f: (VertexInfo, S) => IterableOnce[O]): Vector[O] =
        finalRecords.flatMap(r => f(r.info, r.state)).collect().toVector
      def aggregate: Option[M] = agg
      def stats: BspStats = finalStats
    }
  }
}

object DistributedBspEngine {

  /** One vertex of a run: its info and out-edges, its state, and the
    * messages it sent in the superstep that produced this record.
    */
  private final case class Rec[S, M](info: VertexInfo, edges: IndexedSeq[OutEdge], state: S,
      sent: Vector[(Long, M)])

  private val NoSends = Vector.empty

  private def compute[S, M](program: VertexProgram[S, M], step: Int, r: Rec[S, M],
      msg: Option[M]): Rec[S, M] = {
    val out = Vector.newBuilder[(Long, M)]
    val ctx = new SendCtx[M] { def send(target: Long, m: M): Unit = out += (target -> m) }
    val s = program.compute(step, r.info, r.state, msg, r.edges, ctx)
    Rec(r.info, r.edges, s, out.result())
  }

  /** Derive the adjacency-view engine from a GraphX TAG graph. */
  def fromGraph(g: Graph[VertexInfo, String]): DistributedBspEngine = {
    val adjacency = g.edges
      .map(e => (e.srcId, OutEdge(e.dstId, e.attr)))
      .groupByKey()
      .mapValues(_.toArray)
    val full = g.vertices.leftOuterJoin(adjacency).map { case (id, (info, edges)) =>
      (id, (info, edges.getOrElse(Array.empty[OutEdge])))
    }
    new DistributedBspEngine(full)
  }
}
