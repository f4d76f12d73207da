package repro.perfbench

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}

import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler._

/** Listener that keeps the job, stage and task events the traced pass needs,
  * in memory, until `clear()`.
  */
final class Recorder extends SparkListener {
  import Recorder._

  private val jobs = new ConcurrentHashMap[Int, Job]()
  private val stages = new ConcurrentHashMap[Int, StageInfo]()
  private val planned = new ConcurrentHashMap[Int, StageInfo]()
  private val tasks = new ConcurrentHashMap[Int, ConcurrentLinkedQueue[Task]]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val props = Option(e.properties)
    def prop(k: String) = props.flatMap(p => Option(p.getProperty(k)))
    jobs.put(e.jobId, new Job(e.jobId, e.time, e.stageIds, prop(QueryKey),
      prop("spark.sql.execution.id")))
    e.stageInfos.foreach(i => planned.put(i.stageId, i))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobs.get(e.jobId)).foreach(_.endMs = e.time)

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    stages.put(e.stageInfo.stageId, e.stageInfo)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(e.taskMetrics).foreach { m =>
      tasks.computeIfAbsent(e.stageId, _ => new ConcurrentLinkedQueue[Task]()).add(Task(
        durationMs = e.taskInfo.duration,
        cpuNs = m.executorCpuTime,
        recordsRead = m.shuffleReadMetrics.recordsRead,
        fetchWaitMs = m.shuffleReadMetrics.fetchWaitTime))
    }

  /** Jobs run on behalf of the query tagged `query`, by job id. */
  def jobsOf(query: String): Seq[Job] =
    jobs.values.asScala.filter(_.query.contains(query)).toSeq.sortBy(_.id)

  /** A stage that ran (completed), with its final timings. */
  def stage(id: Int): Option[StageInfo] = Option(stages.get(id))

  /** Any stage of a recorded job, including stages skipped because their
    * shuffle output already existed.
    */
  def plannedStage(id: Int): Option[StageInfo] = Option(planned.get(id))

  def tasksOf(stageId: Int): Seq[Task] =
    Option(tasks.get(stageId)).map(_.asScala.toSeq).getOrElse(Nil)

  def clear(): Unit = { jobs.clear(); stages.clear(); planned.clear(); tasks.clear() }
}

object Recorder {
  /** Local property that tags every job a traced query submits; child
    * threads (adaptive stages, broadcasts) inherit it.
    */
  val QueryKey = "perfbench.query"

  final class Job(val id: Int, val startMs: Long, val stageIds: Seq[Int],
                  val query: Option[String], val executionId: Option[String]) {
    @volatile var endMs: Long = -1L
  }

  final case class Task(durationMs: Long, cpuNs: Long, recordsRead: Long, fetchWaitMs: Long)
}
