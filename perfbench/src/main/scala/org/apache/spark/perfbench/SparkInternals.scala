package org.apache.spark.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.StageInfo

/** The two `private[spark]` seams the benchmark needs, reached from this
  * package the way the program's own `Bridge` reaches `private[sql]` ones.
  */
object SparkInternals {

  /** Wait until every queued listener event has been delivered, so that a
    * query's job, stage and task events are all in before they are read.
    */
  def drainListenerBus(sc: SparkContext, timeoutMs: Long = 30000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMs)

  /** The shuffle a map stage writes, to tie stages to plan exchanges. */
  def shuffleDepId(stage: StageInfo): Option[Int] = stage.shuffleDepId
}
