package repro.perfbench

import org.apache.spark.sql.catalyst.plans.physical.SinglePartition
import org.apache.spark.sql.execution._
import org.apache.spark.sql.execution.adaptive.{AQEShuffleReadExec, AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.execution.metric.{SQLShuffleReadMetricsReporter => R, SQLShuffleWriteMetricsReporter => W}

/** An executed physical plan seen from outside, through the adaptive
  * wrapper and its query stages (the top of `executedPlan` is only the AQE
  * wrapper), with the skyline's local and global steps located by their
  * position: the *gather* is a single-partition shuffle exchange, the
  * *local* node is the first real node below it and the *global* node the
  * first real node above it.
  */
final class PlanView(root: SparkPlan) {

  private def kids(p: SparkPlan): Seq[SparkPlan] = p match {
    case a: AdaptiveSparkPlanExec => Seq(a.executedPlan)
    case q: QueryStageExec        => Seq(q.plan)
    case other                    => other.children
  }

  /** Every node with the chain of its ancestors, nearest first. */
  private val withAncestors: Seq[(SparkPlan, List[SparkPlan])] = {
    def walk(p: SparkPlan, up: List[SparkPlan]): Seq[(SparkPlan, List[SparkPlan])] =
      (p -> up) +: kids(p).flatMap(walk(_, p :: up))
    walk(root, Nil)
  }

  val nodes: Seq[SparkPlan] = withAncestors.map(_._1)

  /** Plan nodes that only wrap or forward their child's rows. */
  private def wrapper(p: SparkPlan): Boolean = p match {
    case _: AdaptiveSparkPlanExec | _: QueryStageExec | _: AQEShuffleReadExec |
         _: WholeStageCodegenExec | _: InputAdapter => true
    case _ => false
  }

  /** Nodes that keep the row count of their child. */
  private def sameCardinality(p: SparkPlan): Boolean = wrapper(p) || (p match {
    case _: ProjectExec | _: ColumnarToRowExec => true
    case _ => false
  })

  val shuffles: Seq[ShuffleExchangeExec] =
    nodes.collect { case s: ShuffleExchangeExec => s }.distinctBy(_.shuffleId)

  private val gatherWithAncestors: Seq[(ShuffleExchangeExec, List[SparkPlan])] =
    withAncestors.collect {
      case (s: ShuffleExchangeExec, up) if s.outputPartitioning == SinglePartition => (s, up)
    }.distinctBy(_._1.shuffleId)

  val gathers: Seq[ShuffleExchangeExec] = gatherWithAncestors.map(_._1)

  /** Names of the skyline nodes in the executed plan. */
  def skylineNodes: Seq[String] = nodes.map(_.nodeName).filter(_.contains("Skyline"))

  def metric(p: SparkPlan, key: String): Long = p.metrics.get(key).map(_.value).getOrElse(0L)

  def recordsWritten(s: ShuffleExchangeExec): Long = metric(s, W.SHUFFLE_RECORDS_WRITTEN)
  def bytesWritten(s: ShuffleExchangeExec): Long = metric(s, W.SHUFFLE_BYTES_WRITTEN)
  def writeNs(s: ShuffleExchangeExec): Long = metric(s, W.SHUFFLE_WRITE_TIME)
  def fetchWaitMs(s: ShuffleExchangeExec): Long = metric(s, R.FETCH_WAIT_TIME)

  /** Rows entering the local step: the row count of the first node below
    * the local node that counts its rows (a scan, a filter, an aggregate or
    * a shuffle exchange).
    */
  def localRowsIn: Option[Long] = gathers.map { g =>
    def below(p: SparkPlan): SparkPlan = if (wrapper(p)) below(kids(p).head) else p
    def counted(p: SparkPlan): Option[Long] = p match {
      case s: ShuffleExchangeExec => Some(recordsWritten(s))
      case _ if p.metrics.contains("numOutputRows") => Some(metric(p, "numOutputRows"))
      case _ if kids(p).size == 1 => counted(kids(p).head)
      case _ => None
    }
    kids(below(g.child)).headOption.flatMap(c => counted(below(c)))
  }.foldLeft(Option(0L)) { (acc, v) => for (a <- acc; b <- v) yield a + b }

  /** Rows the local step emitted: what the gather wrote. */
  def localRowsOut: Long = gathers.map(recordsWritten).sum

  /** True when every node above the global node keeps its row count, so the
    * rows leaving the query are the rows the global step emitted.
    */
  def globalIsRoot: Boolean = gatherWithAncestors.nonEmpty && gatherWithAncestors.forall {
    case (_, up) => up.dropWhile(wrapper) match {
      case _ :: above => above.forall(sameCardinality)
      case Nil        => false
    }
  }
}
