package repro.core

import org.apache.spark.sql.catalyst.expressions.Attribute
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, UnaryNode}

/** Logical skyline node (§5.2 of the paper).
  *
  * A single unary node: its child provides the input tuples, its output is a
  * subset of them (the Pareto front over `dimensions`), so `output` is simply
  * the child's output — the skyline behaves like a filter in the plan and has
  * no side effects on surrounding operators (§5.9).
  *
  * @param distinct   keep one tuple per distinct combination of skyline
  *                   dimension values (SKYLINE OF DISTINCT)
  * @param complete   user-asserted absence of nulls in the skyline dimensions
  *                   (SKYLINE OF ... COMPLETE); lets the planner pick the
  *                   faster complete algorithm even when the schema says the
  *                   columns are nullable
  * @param dimensions at least one [[SkylineDimension]]
  */
case class SkylineOperator(
    distinct: Boolean,
    complete: Boolean,
    dimensions: Seq[SkylineDimension],
    child: LogicalPlan)
    extends UnaryNode {

  require(dimensions.nonEmpty, "SKYLINE OF requires at least one dimension")
  require(dimensions.lengthCompare(DominanceChecker.MaxDimensions) <= 0,
    s"SKYLINE OF supports at most ${DominanceChecker.MaxDimensions} dimensions, " +
      s"got ${dimensions.length}")

  override def output: Seq[Attribute] = child.output

  override def maxRows: Option[Long] = child.maxRows

  override def simpleString(maxFields: Int): String = {
    val flags =
      (if (distinct) " DISTINCT" else "") + (if (complete) " COMPLETE" else "")
    s"Skyline$flags [${dimensions.mkString(", ")}]"
  }

  override protected def withNewChildInternal(newChild: LogicalPlan): SkylineOperator =
    copy(child = newChild)
}
