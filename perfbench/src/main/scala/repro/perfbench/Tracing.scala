package repro.perfbench

import scala.collection.mutable

import org.apache.spark.perfbench.SparkInternals
import org.apache.spark.sql.{DataFrame, SparkSession}

/** Per-layer measurement of the traced loop, from Spark's own surfaces:
  * the query's `QueryPlanningTracker` (phases and rule counters), a
  * listener for jobs, stages and tasks (tied to the query by its SQL
  * execution id), and the `SQLMetric`s of the executed plan's exchanges and
  * scans, read through the adaptive wrapper.
  *
  * Local and global steps are found by position (see [[PlanView]]): the
  * stages that write the gather's shuffle are local, the stages that read
  * it are global.
  */
final class Tracing(spark: SparkSession, workload: Workload, inputRows: Long) {
  import Tracing.QueryStats

  private val recorder = new Recorder
  spark.sparkContext.addSparkListener(recorder)

  val trace = new Trace
  private val queries = mutable.ArrayBuffer.empty[QueryStats]
  private val violationLog = mutable.ArrayBuffer.empty[String]
  private val planLog = mutable.LinkedHashMap.empty[String, (Seq[String], Int)]

  def violations: Seq[String] = violationLog.toSeq
  def plans: Seq[(String, (Seq[String], Int))] = planLog.toSeq

  def close(): Unit = spark.sparkContext.removeSparkListener(recorder)

  private val ruleNames = Seq("ResolveSkyline", "SkylinePushThroughJoin")

  private var tag = ""

  /** Tag the jobs of the next query; call on the client thread before it. */
  def begin(): Unit = {
    tag = (queries.length + 1).toString
    spark.sparkContext.setLocalProperty(Recorder.QueryKey, tag)
  }

  def record(shape: Shape, df: DataFrame, resultRows: Long,
             startMs: Long, endMs: Long, wallS: Double): Unit = {
    spark.sparkContext.setLocalProperty(Recorder.QueryKey, null)
    SparkInternals.drainListenerBus(spark.sparkContext)
    val qe = df.queryExecution
    val plan = new PlanView(qe.executedPlan)
    val traceId = queries.length + 1
    val root = trace.add(0, traceId, "query", shape.name, startMs.toDouble, endMs.toDouble)

    val phases = qe.tracker.phases.map { case (phase, p) =>
      val layer = phase match {
        case "parsing"  => "parser"
        case "planning" => "strategy"
        case _          => "rules"
      }
      trace.add(root, traceId, layer, phase, p.startTimeMs.toDouble, p.endTimeMs.toDouble)
      phase -> p.durationMs.toDouble
    }
    val rules = ruleNames.map { name =>
      val hits = qe.tracker.rules.filter { case (k, _) => k.split('.').last.stripSuffix("$") == name }
      name -> (hits.values.map(_.totalTimeNs).sum / 1e6,
        hits.values.map(_.numInvocations).sum, hits.values.map(_.numEffectiveInvocations).sum)
    }.toMap

    val jobs = recorder.jobsOf(tag)
    val owner = mutable.LinkedHashMap.empty[Int, Int] // stage -> job span
    jobs.foreach { j =>
      val span = trace.add(root, traceId, "spark.job",
        s"job ${j.id} (execution ${j.executionId.getOrElse("-")})", j.startMs.toDouble,
        (if (j.endMs >= 0) j.endMs else endMs).toDouble)
      j.stageIds.foreach(s => if (!owner.contains(s)) owner(s) = span)
    }
    val ran = owner.keys.flatMap(recorder.stage).toSeq
    val gatherIds = plan.gathers.map(_.shuffleId).toSet
    // a later job re-plans the gather's map stage under a new id and skips
    // it, so the global stage's parent is found by shuffle, not by stage id
    val writesGather = owner.keys.filter(id => recorder.plannedStage(id)
      .exists(s => SparkInternals.shuffleDepId(s).exists(gatherIds))).toSet
    val localStages = ran.filter(s => writesGather(s.stageId))
    val localIds = localStages.map(_.stageId).toSet
    val globalStages = ran.filter(s => s.parentIds.exists(writesGather) &&
      recorder.tasksOf(s.stageId).nonEmpty)
    def wallOf(s: org.apache.spark.scheduler.StageInfo): Double =
      (for (a <- s.submissionTime; b <- s.completionTime) yield (b - a).toDouble).getOrElse(0.0)
    ran.foreach { s =>
      val layer =
        if (localIds(s.stageId)) "physical.local"
        else if (globalStages.contains(s)) "physical.global"
        else "spark.stage"
      trace.add(owner(s.stageId), traceId, layer, s"stage ${s.stageId}",
        s.submissionTime.getOrElse(0L).toDouble, s.completionTime.getOrElse(0L).toDouble)
    }

    val local = if (localStages.isEmpty) None else {
      val tasks = localStages.flatMap(s => recorder.tasksOf(s.stageId))
      val durations = tasks.map(_.durationMs.toDouble)
      val skew = if (durations.isEmpty) 1.0
        else durations.max / math.max(Main.median(durations), 1.0)
      Some((localStages.map(wallOf).sum, tasks.map(_.cpuNs).sum / 1e6,
        plan.localRowsIn.getOrElse(0L), plan.localRowsOut, skew))
    }
    val global = if (globalStages.isEmpty) None else {
      val rowsIn = globalStages.flatMap(s => recorder.tasksOf(s.stageId)).map(_.recordsRead).sum
      Some((globalStages.map(wallOf).sum, rowsIn,
        if (plan.globalIsRoot) Some(resultRows) else None))
    }

    val nonGather = plan.shuffles.filterNot(s => gatherIds(s.shuffleId))
    val stats = QueryStats(
      wallMs = wallS * 1000,
      phasesMs = phases,
      rules = rules,
      jobs = jobs.length, stages = ran.length,
      tasks = ran.map(s => recorder.tasksOf(s.stageId).length).sum,
      exchanges = plan.shuffles.length,
      exchangeRecords = plan.shuffles.map(plan.recordsWritten).sum,
      exchangeInputRecords = nonGather.map(plan.recordsWritten).sum,
      exchangeBytes = plan.shuffles.map(plan.bytesWritten).sum,
      exchangeWriteMs = plan.shuffles.map(plan.writeNs).sum / 1e6,
      exchangeFetchWaitMs = plan.shuffles.map(plan.fetchWaitMs).sum.toDouble,
      exchangeMapWallMs = ran.filter(s => SparkInternals.shuffleDepId(s)
        .exists(id => nonGather.exists(_.shuffleId == id))).map(wallOf).sum,
      local = local, global = global)
    queries += stats
    planLog(shape.name) = (plan.skylineNodes, plan.shuffles.length)
    check(shape, stats, resultRows)
    recorder.clear()
  }

  /** The layer-consistency assertions of every traced query. */
  private def check(shape: Shape, q: QueryStats, resultRows: Long): Unit = {
    def fail(msg: String): Unit = violationLog += s"${shape.name}: $msg"
    for ((_, _, _, out, _) <- q.local; (_, in, _) <- q.global if out != in)
      fail(s"physical.local.rows_out $out != physical.global.rows_in $in")
    for ((_, _, Some(out)) <- q.global if out != resultRows)
      fail(s"physical.global.rows_out $out != result rows $resultRows")
    if (workload.name == "storesales-incomplete" && q.exchangeInputRecords != inputRows)
      fail(s"exchange.input_records ${q.exchangeInputRecords} != input rows $inputRows")
    if (shape.split && (q.local.isEmpty || q.global.isEmpty))
      fail("no local/global split found in the executed plan")
  }

  def recordKernels(k: Kernels.Result): Unit = {
    val traceId = queries.length + 1
    val start = k.spans.map(_._2).minOption.getOrElse(0L)
    val end = k.spans.map(_._3).maxOption.getOrElse(0L)
    val root = trace.add(0, traceId, "kernel", "kernels", start.toDouble, end.toDouble)
    k.spans.foreach { case (name, s, e) => trace.add(root, traceId, "kernel", name, s.toDouble, e.toDouble) }
  }

  /** The per-layer metrics: per-query means over the traced loop. */
  def metrics(k: Kernels.Result): Seq[(String, Double, String)] = {
    val n = math.max(queries.length, 1).toDouble
    def mean(f: QueryStats => Double): Double = queries.map(f).sum / n
    def meanOf[T](xs: Seq[T])(f: T => Double): Double =
      if (xs.isEmpty) 0.0 else xs.map(f).sum / xs.length
    def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b
    val locals = queries.toSeq.flatMap(_.local)
    val globals = queries.toSeq.flatMap(q => q.global.map(g => (g, q.wallMs)))
    val outs = globals.flatMap(_._1._3)
    val rule = (name: String) => {
      val rs = queries.map(_.rules(name))
      Seq((s"rules.$name.ms", rs.map(_._1).sum / n, "ms"),
        (s"rules.$name.effective_ratio", ratio(rs.map(_._3).sum.toDouble, rs.map(_._2).sum.toDouble), "ratio"))
    }
    val self = trace.selfMsByLayer
    Seq(
      ("parser.parse_ms", mean(_.phasesMs.getOrElse("parsing", 0.0)), "ms"),
      ("rules.analysis_ms", mean(_.phasesMs.getOrElse("analysis", 0.0)), "ms"),
      ("rules.optimization_ms", mean(_.phasesMs.getOrElse("optimization", 0.0)), "ms"),
    ) ++ rule("ResolveSkyline") ++ rule("SkylinePushThroughJoin") ++ Seq(
      ("strategy.planning_ms", mean(_.phasesMs.getOrElse("planning", 0.0)), "ms"),
      ("strategy.exchanges", mean(_.exchanges.toDouble), "count"),
      ("spark.jobs_per_query", mean(_.jobs.toDouble), "count"),
      ("spark.stages_per_query", mean(_.stages.toDouble), "count"),
      ("spark.tasks_per_query", mean(_.tasks.toDouble), "count"),
      ("physical.local.wall_ms", meanOf(locals)(_._1), "ms"),
      ("physical.local.cpu_ms", meanOf(locals)(_._2), "ms"),
      ("physical.local.rows_in", meanOf(locals)(_._3.toDouble), "rows"),
      ("physical.local.rows_out", meanOf(locals)(_._4.toDouble), "rows"),
      ("physical.local.reduction", ratio(locals.map(_._4).sum.toDouble, locals.map(_._3).sum.toDouble), "ratio"),
      ("physical.local.task_skew", meanOf(locals)(_._5), "ratio"),
      ("exchange.records", mean(_.exchangeRecords.toDouble), "rows"),
      ("exchange.input_records", mean(_.exchangeInputRecords.toDouble), "rows"),
      ("exchange.bytes", mean(_.exchangeBytes.toDouble), "bytes"),
      ("exchange.write_ms", mean(_.exchangeWriteMs), "ms"),
      ("exchange.fetch_wait_ms", mean(_.exchangeFetchWaitMs), "ms"),
      ("exchange.map_wall_ms", mean(_.exchangeMapWallMs), "ms"),
      ("physical.global.wall_ms", meanOf(globals)(_._1._1), "ms"),
      ("physical.global.rows_in", meanOf(globals)(_._1._2.toDouble), "rows"),
      ("physical.global.rows_out", meanOf(outs)(_.toDouble), "rows"),
      ("physical.global.share", ratio(globals.map(_._1._1).sum, globals.map(_._2).sum), "ratio"),
      ("kernel.bnl_ns_per_tuple", k.bnlNsPerTuple, "ns"),
      ("kernel.bitmap_bnl_ns_per_tuple", k.bitmapBnlNsPerTuple, "ns"),
      ("kernel.all_pairs_ns_per_pair", k.allPairsNsPerPair, "ns"),
      ("kernel.dominates_ns", k.dominatesNs, "ns"),
      ("kernel.survivors", k.survivors.toDouble, "rows"),
      ("trace.query_self_ms", self.getOrElse("query", 0.0) / n, "ms"),
      ("trace.job_self_ms", self.getOrElse("spark.job", 0.0) / n, "ms"),
    )
  }
}

object Tracing {
  final case class QueryStats(
      wallMs: Double,
      phasesMs: Map[String, Double],
      rules: Map[String, (Double, Long, Long)], // ms, invocations, effective
      jobs: Int, stages: Int, tasks: Int, exchanges: Int,
      exchangeRecords: Long, exchangeInputRecords: Long, exchangeBytes: Long,
      exchangeWriteMs: Double, exchangeFetchWaitMs: Double, exchangeMapWallMs: Double,
      local: Option[(Double, Double, Long, Long, Double)], // wall, cpu ms, in, out, skew
      global: Option[(Double, Long, Option[Long])])        // wall ms, in, out
}
