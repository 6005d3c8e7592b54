package repro.core

import scala.collection.mutable

/** The TAG traversal plan of §5.1: a tree of alternating relation nodes and
  * attribute nodes. The edge between attribute node `A` and relation node
  * `R` carries the label `R.<col>` where `<col>` is `A`'s column in `R` —
  * exactly the TAG edge labels of the encoded graph, so a list of plan edge
  * labels drives the vertex program directly.
  */
sealed trait PlanNode extends Serializable {
  def children: Seq[PlanNode]
}
final case class RelNode(rel: String, children: Seq[AttrNode]) extends PlanNode
final case class AttrNode(attr: JoinAttr, children: Seq[RelNode]) extends PlanNode

/** One traversal step: send along TAG edges labeled `label`.
  * `rel`/`attrCol` are the parsed halves of the label (`rel.attrCol`);
  * `attrName` is the logical join-attribute name for predicate lookup.
  */
final case class TraversalStep(label: String, rel: String, attrCol: String, attrName: String)
    extends Serializable

final case class TagPlan(root: PlanNode, startRel: String, steps: Vector[TraversalStep])
    extends Serializable

object TagPlan {

  /** Build the TAG plan from a join tree (§5.1 construction). When
    * `rootAttr` is set (local aggregation, §7), the plan is additionally
    * rooted at that attribute node placed above the join-tree root.
    */
  def fromJoinTree(tree: JoinTree, rootAttr: Option[JoinAttr] = None): TagPlan = {
    def build(rel: String, fromAttr: Option[String]): RelNode = {
      val byAttr = tree.childrenOf(rel).groupBy(_.attr.name)
      if (tree.childrenOf(rel).map(_.child).distinct.size != tree.childrenOf(rel).size)
        throw new UnsupportedQuery(s"multi-attribute tree edge at $rel — executor supports " +
          "single-attribute joins; use TwoWayJoin with TwoWaySpec.others or pre-combine the key")
      val attrChildren = byAttr.collect {
        case (name, es) if !fromAttr.contains(name) =>
          AttrNode(es.head.attr, es.map(e => build(e.child, Some(name))).toVector)
      }.toVector.sortBy(_.attr.name)
      // edges on the attr we came from hang off that (existing, upper) node:
      // handled by the parent call below.
      val upAttrExtra = byAttr.get(fromAttr.getOrElse("")).map(_.toVector).getOrElse(Vector.empty)
      RelNode(rel, attrChildren ++ upAttrExtra.map(e => AttrNode(e.attr, Vector(build(e.child, Some(e.attr.name))))))
    }
    // NB: a child edge on the same attribute we arrived from is legal in a
    // join tree (chain R -A- S -A- T). The paper's plan attaches all bags of
    // A to one A node; we conservatively create a fresh A node below — the
    // driven traversal is equivalent (same labels, same semijoin sequence).

    val rootRel = build(tree.root, None)
    rootAttr match {
      case None => plan(rootRel)
      case Some(a) =>
        require(a.cols.contains(tree.root), s"LA root attribute ${a.name} must belong to ${tree.root}")
        plan(AttrNode(a, Vector(rootRel)))
    }
  }

  private def label(rel: String, a: JoinAttr): String = s"$rel.${a.col(rel)}"

  /** Algorithm 1 (GenSteps): connected bottom-up traversal of the plan.
    * DFS records each in-edge label on entry and again on exit unless the
    * node lies on the rightmost root-leaf path; the LIFO pop order is the
    * driving list. The start relation is the rightmost leaf.
    */
  def plan(root: PlanNode): TagPlan = {
    val stack = mutable.Stack.empty[TraversalStep]

    def stepOf(rel: String, a: JoinAttr): TraversalStep =
      TraversalStep(label(rel, a), rel, a.col(rel), a.name)

    var startRel: String = null

    def dfs(node: PlanNode, inStep: Option[TraversalStep], rightmost: Boolean): Unit = {
      inStep.foreach(stack.push)
      val kids = node.children
      kids.zipWithIndex.foreach { case (child, i) =>
        val step = (node, child) match {
          case (r: RelNode, a: AttrNode) => stepOf(r.rel, a.attr)
          case (a: AttrNode, r: RelNode) => stepOf(r.rel, a.attr)
          case _                         => sys.error("plan must alternate rel/attr nodes")
        }
        dfs(child, Some(step), rightmost && i == kids.size - 1)
      }
      if (kids.isEmpty && rightmost) {
        startRel = node match {
          case r: RelNode  => r.rel
          case a: AttrNode => sys.error(s"plan leaf must be a relation, got attr ${a.attr.name}")
        }
      }
      if (!rightmost) inStep.foreach(stack.push)
    }

    dfs(root, None, rightmost = true)
    val steps = Vector.newBuilder[TraversalStep]
    while (stack.nonEmpty) steps += stack.pop()
    TagPlan(root, startRel, steps.result())
  }
}
