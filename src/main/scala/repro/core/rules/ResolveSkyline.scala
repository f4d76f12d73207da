package repro.core.rules

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.analysis.ColumnResolutionHelper
import org.apache.spark.sql.catalyst.expressions.NamedExpression
import org.apache.spark.sql.catalyst.expressions.aggregate.AggregateExpression
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Filter, LogicalPlan, Project}
import org.apache.spark.sql.catalyst.rules.Rule
import org.apache.spark.sql.skyline.Bridge
import repro.core.SkylineOperator

/** Analyzer extension for skyline queries (§5.3, Listings 6 and 7).
  *
  * Dimensions over the child's output are resolved by Spark's generic
  * expression resolution. The two cases the paper adds are resolved by the
  * same Catalyst code that resolves ORDER BY and HAVING:
  *
  *  1. **Dimensions missing from the projection** (Listing 6):
  *     `SELECT price FROM hotels SKYLINE OF price MIN, rating MAX`.
  *     `resolveExprsAndAddMissingAttrs` resolves `rating` below the Project
  *     and adds it to the projection, as for `ORDER BY rating`.
  *
  *  2. **Aggregate dimensions** (Listing 7):
  *     `SELECT cat, sum(price) AS s FROM t GROUP BY cat SKYLINE OF count(*) MAX`.
  *     `resolveColWithAgg` and `ResolveAggregateFunctions` resolve the
  *     dimension against the Aggregate below, through a HAVING Filter and
  *     Project, as for `HAVING count(*) > 1`. An aggregate the Aggregate does
  *     not compute yet is appended to it and passed up through the HAVING
  *     nodes; one it already computes is reused.
  *
  * When the child was widened, a Project on top restores its output.
  * Installed via `injectResolutionRule`, so it iterates to fixed point with
  * the built-in resolution rules.
  */
case class ResolveSkyline(session: SparkSession)
    extends Rule[LogicalPlan] with ColumnResolutionHelper {

  private lazy val analyzer = Bridge.analyzer(session)

  // `CatalogManager` is `private[sql]`, so the type is left to inference.
  override def catalogManager = analyzer.catalogManager

  override def apply(plan: LogicalPlan): LogicalPlan = plan.resolveOperatorsUp {
    case sky: SkylineOperator if sky.childrenResolved && needsRewrite(sky) =>
      val (dims, child) =
        resolveExprsAndAddMissingAttrs(sky.dimensions.map(_.child), sky.child)
      val (newDims, newChild) = aggregateBelow(child) match {
        case Some(agg) =>
          val withAgg = dims.map(resolveColWithAgg(_, agg))
          // Keep the partial resolution, e.g. `min(reviews)` waits for
          // ResolveFunctions once `reviews` resolved below the Aggregate.
          if (!withAgg.forall(_.resolved)) (withAgg, child)
          else {
            val (extra, resolved) =
              analyzer.ResolveAggregateFunctions.resolveExprsWithAggregate(withAgg, agg)
            (resolved, if (extra.isEmpty) child else addAggregates(child, extra))
          }
        case None => (dims, child)
      }
      val newSky = sky.copy(
        dimensions = sky.dimensions.zip(newDims).map { case (d, e) => d.copy(child = e) },
        child = newChild)
      if (newChild.output == sky.child.output) newSky else Project(sky.child.output, newSky)
  }

  /** Unresolved dimensions need help; so do resolved dimensions the child
    * no longer outputs (e.g. `df.select("id").skyline(smin(df("price")))`,
    * as for ORDER BY), and dimensions holding a bare aggregate function
    * (e.g. `SKYLINE OF count(1) MAX`), which are resolved as expressions yet
    * only evaluable inside the child Aggregate.
    */
  private def needsRewrite(sky: SkylineOperator): Boolean =
    !sky.resolved || sky.missingInput.nonEmpty ||
      sky.dimensions.exists(_.child.exists(_.isInstanceOf[AggregateExpression]))

  /** The Aggregate of a grouped query, seen through HAVING's Filter and the
    * Project that HAVING resolution may put above it.
    */
  private def aggregateBelow(plan: LogicalPlan): Option[Aggregate] = plan match {
    case agg: Aggregate => Some(agg)
    case Filter(_, child) => aggregateBelow(child)
    case Project(_, child) => aggregateBelow(child)
    case _ => None
  }

  /** Append `extra` to the Aggregate under `plan` and pass the new columns
    * up through the Filters and Projects above it.
    */
  private def addAggregates(plan: LogicalPlan, extra: Seq[NamedExpression]): LogicalPlan =
    plan match {
      case agg: Aggregate =>
        agg.copy(aggregateExpressions = agg.aggregateExpressions ++ extra)
      case f: Filter => f.copy(child = addAggregates(f.child, extra))
      case p: Project => p.copy(
        projectList = p.projectList ++ extra.map(_.toAttribute),
        child = addAggregates(p.child, extra))
    }
}
