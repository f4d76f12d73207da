package repro.core.parser

import org.apache.spark.sql.catalyst.{FunctionIdentifier, TableIdentifier}
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.parser.{ParameterContext, ParserInterface}
import org.apache.spark.sql.catalyst.plans.logical._
import org.apache.spark.sql.types.{DataType, StructType}
import repro.core.{SkylineDimension, SkylineOperator}

/** Spark SQL parser with skyline support (§5.1).
  *
  * Wraps the session's default parser: queries without a skyline clause go
  * straight through; for skyline queries the clause is extracted, the
  * remaining SQL is parsed by the delegate, and a [[SkylineOperator]] is
  * inserted at the position the grammar dictates — after HAVING (i.e., above
  * the fully built query body) but **below** ORDER BY / LIMIT / OFFSET.
  *
  * Installed via `SparkSessionExtensions.injectParser` (see
  * [[repro.core.SkylineExtensions]]).
  */
class SkylineSqlParser(delegate: ParserInterface) extends ParserInterface {

  override def parsePlan(sqlText: String): LogicalPlan = rewrite(sqlText, delegate.parsePlan)

  override def parseQuery(sqlText: String): LogicalPlan = rewrite(sqlText, delegate.parseQuery)

  // Spark's default implementation would drop the parameters.
  override def parsePlanWithParameters(sqlText: String, ctx: ParameterContext): LogicalPlan =
    rewrite(sqlText, delegate.parsePlanWithParameters(_, ctx))

  private def rewrite(sqlText: String, parse: String => LogicalPlan): LogicalPlan =
    SkylineClauseExtractor.extract(sqlText) match {
      case None => parse(sqlText)
      case Some(ex) =>
        val dims = ex.items.map { case (text, dir) =>
          SkylineDimension(delegate.parseExpression(text), dir)
        }
        insertSkyline(parse(ex.stripped), ex.distinct, ex.complete, dims)
    }

  /** Place the skyline below the ordering/limiting operators that
    * syntactically follow it, and below a WITH clause's body wrapper.
    */
  private def insertSkyline(
      plan: LogicalPlan,
      distinct: Boolean,
      complete: Boolean,
      dims: Seq[SkylineDimension]): LogicalPlan = plan match {
    case p @ (_: Sort | _: GlobalLimit | _: LocalLimit | _: Offset | _: UnresolvedWith) =>
      p.withNewChildren(Seq(insertSkyline(p.children.head, distinct, complete, dims)))
    case other =>
      SkylineOperator(distinct, complete, dims, other)
  }

  // ---- everything else is delegated unchanged --------------------------

  override def parseExpression(sqlText: String): Expression =
    delegate.parseExpression(sqlText)

  override def parseTableIdentifier(sqlText: String): TableIdentifier =
    delegate.parseTableIdentifier(sqlText)

  override def parseFunctionIdentifier(sqlText: String): FunctionIdentifier =
    delegate.parseFunctionIdentifier(sqlText)

  override def parseMultipartIdentifier(sqlText: String): Seq[String] =
    delegate.parseMultipartIdentifier(sqlText)

  override def parseTableSchema(sqlText: String): StructType =
    delegate.parseTableSchema(sqlText)

  override def parseDataType(sqlText: String): DataType =
    delegate.parseDataType(sqlText)

  override def parseRoutineParam(sqlText: String): StructType =
    delegate.parseRoutineParam(sqlText)
}
