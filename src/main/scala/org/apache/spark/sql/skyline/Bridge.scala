package org.apache.spark.sql.skyline

import org.apache.spark.sql.{Column, DataFrame, SparkSession, classic}
import org.apache.spark.sql.catalyst.analysis.Analyzer
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.internal.SQLConf

/** Access to the `private[sql]` seams the DataFrame API, the typed conf and
  * the analyzer rule need.
  *
  * In the paper the skyline code lives inside the Spark source tree and uses
  * these directly; building against stock Spark, this one-file shim in the
  * `org.apache.spark.sql` namespace provides the same access (the standard
  * technique used by Spark connector libraries).
  */
object Bridge {

  /** Wrap a logical plan as a DataFrame (`Dataset.ofRows`). */
  def ofRows(session: SparkSession, plan: LogicalPlan): DataFrame =
    classic.Dataset.ofRows(session.asInstanceOf[classic.SparkSession], plan)

  /** Wrap a Catalyst expression back into a public [[Column]]. */
  def column(e: Expression): Column = classic.ExpressionUtils.column(e)

  /** Mark a column non-nullable (AssertNotNull) — used by data generators to
    * produce "complete" schemas the planner can trust (§5.5 relies on
    * nullability for algorithm selection).
    */
  def assertNotNull(session: SparkSession, col: Column): Column =
    column(org.apache.spark.sql.catalyst.expressions.objects.AssertNotNull(
      expression(session, col)))

  /** The Catalyst expression behind a public [[Column]], converted through
    * the session's column-node converter (a bare `ExpressionUtils.expression`
    * yields a lazy `ColumnNodeExpression` placeholder that custom logical
    * nodes cannot resolve).
    */
  def expression(session: SparkSession, col: Column): Expression =
    session.asInstanceOf[classic.SparkSession].expression(col)

  /** The session's analyzer, whose HAVING resolution
    * (`ResolveAggregateFunctions`) the skyline analyzer rule reuses.
    */
  def analyzer(session: SparkSession): Analyzer =
    session.asInstanceOf[classic.SparkSession].sessionState.analyzer

  /** Register `key` as a typed SQL conf that takes only `values` (Spark's
    * typed `ConfigBuilder` is `private[spark]`): `SET` then rejects any other
    * value and `SET -v` lists the conf with `doc`. A key registers once per
    * JVM. The returned reader checks the value again, since a value set
    * before registration bypassed `SET`'s check.
    */
  def stringConf(key: String, values: Seq[String], default: String, doc: String)
      : SparkSession => String = {
    val entry = SQLConf.buildConf(key).doc(doc).stringConf
      .checkValues(values.toSet).createWithDefault(default)
    session => session.asInstanceOf[classic.SparkSession].sessionState.conf.getConf(entry)
  }
}
