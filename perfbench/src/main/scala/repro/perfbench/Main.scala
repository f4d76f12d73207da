package repro.perfbench

import java.io.{File, PrintWriter}

import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.reference.ReferenceSkyline

/** The skyline benchmark: one workload, one seed, one JVM.
  *
  * Load model: one client thread runs a closed loop, issuing the workload's
  * SQL shapes round-robin, each only after the previous result is on the
  * driver, against `local[N]`. Inputs are generated from the seed, cached
  * and warmed up before timing. Every query's rows are compared with an
  * expected result computed beforehand by [[ExpectedSkyline]].
  *
  * `--trace 0` prints the end-to-end metrics. `--trace 1` repeats the
  * untraced loop as a baseline, then runs a traced loop (listener, planning
  * tracker, plan metrics and spans), the Spark-free kernels and the
  * `NOT EXISTS` reference, and prints the per-layer metrics. The last line
  * of standard output is the result object.
  */
object Main {

  /** Data set-up (generate, cache) is repeated and its median reported. */
  val SetupRepeats = 3

  /** Layer metrics that read 0 on every workload in local mode, where no
    * shuffle block is fetched remotely: printed, but left out of the result
    * line.
    */
  val PrintedOnly = Set("exchange.fetch_wait_ms")

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, out: File)

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt,
      need("trace") == "1", new File(need("out")))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val workload = Workloads.byName(args.workload).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload ${args.workload}; one of ${Workloads.all.map(_.name).mkString(", ")}"))
    args.out.mkdirs()
    val bench = new Bench(workload, args)
    try bench.run() finally bench.stop()
  }

  /** Seconds elapsed while running `body`. */
  def timeS[T](body: => T): (Double, T) = {
    val t0 = System.nanoTime()
    val out = body
    ((System.nanoTime() - t0) / 1e9, out)
  }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
    }

  /** Nearest-rank percentile. */
  def percentile(xs: Seq[Double], p: Double): Double =
    if (xs.isEmpty) Double.NaN
    else xs.sorted.apply(math.min(xs.length - 1, math.ceil(p * xs.length).toInt - 1).max(0))
}

/** Times of one data set-up, and the row count of the first input. */
final case class SetupTimes(generateS: Double, cacheS: Double, inputRows: Long) {
  def totalS: Double = generateS + cacheS
}

/** One query of a timed loop. */
final case class Sample(shape: String, wallS: Double, cpuS: Double, gcMs: Long,
                        allocBytes: Long, ok: Boolean)

/** The outcome of one closed loop. */
final case class LoopResult(samples: Seq[Sample], peakLiveHeapBytes: Long) {
  def good: Seq[Sample] = samples.filter(_.ok)
  def attempted: Int = samples.length
  def failed: Int = samples.count(!_.ok)

  /** Whole rounds (one query of every shape) without a failed query. */
  def rounds(shapes: Int): Seq[Seq[Sample]] = samples.grouped(shapes).filter(_.forall(_.ok)).toSeq

  /** The median over rounds of a round's mean query time. With one shape
    * this is the median query time; over a mix it does not jump between
    * the shapes on either side of the middle as the sample count varies.
    */
  def p50(shapes: Int): Double = Main.median(rounds(shapes).map(r => r.map(_.wallS).sum / r.length))
}

final class Bench(workload: Workload, args: Main.Args) {
  import Main._

  private val cores = sys.props.get("perfbench.cores").map(_.toInt)
    .getOrElse(Runtime.getRuntime.availableProcessors())
  private val lines = Seq.newBuilder[String]
  private def report(line: String): Unit = { println(line); lines += line }

  private val (sessionS, spark) = timeS {
    SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${workload.name}")
      .config("spark.sql.extensions", "repro.core.SkylineExtensions")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.local.dir", new File(args.out, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(args.out, "warehouse").getAbsolutePath)
      .getOrCreate()
  }

  def stop(): Unit = spark.stop()

  // ---------------------------------------------------------------- set-up

  /** Generate the inputs, then cache them under their view names. */
  private def setupData(): SetupTimes = {
    spark.catalog.clearCache()
    val (generateS, inputs) = timeS {
      val in = workload.inputs(spark, args.seed)
      in.foreach { case (_, df) => df.write.format("noop").mode("overwrite").save() }
      in
    }
    val (cacheS, counts) = timeS {
      inputs.map { case (view, df) =>
        val cached = df.repartition(cores).cache()
        cached.createOrReplaceTempView(view)
        cached.count()
      }
    }
    SetupTimes(generateS, cacheS, counts.head)
  }

  // ------------------------------------------------------- expected results

  /** Canonical form of a result: sorted normalized rows, or for DISTINCT the
    * set of dimension-value combinations (any representative row is right).
    */
  private def canon(rows: Seq[Row], shape: Shape, columns: Seq[String]): Either[String, Seq[String]] = {
    def norm(v: Any): String = v match {
      case null      => "null"
      case n: Number => java.lang.Double.toString(n.doubleValue())
      case other     => other.toString
    }
    if (!shape.distinct) Right(rows.map(_.toSeq.map(norm).mkString("|")).sorted)
    else {
      val idx = shape.dims.map { case (c, _) => columns.indexWhere(_.equalsIgnoreCase(c)) }
      val keys = rows.map(r => idx.map(i => norm(r.get(i))).mkString("|"))
      if (keys.distinct.length != keys.length) Left("duplicate dimension values under DISTINCT")
      else Right(keys.sorted)
    }
  }

  private def expectedOf(shape: Shape, input: DataFrame): Seq[String] = {
    val columns = input.columns.toSeq
    val rows = input.collect().toIndexedSeq
    val dims = shape.dims.map { case (c, d) =>
      val i = columns.indexWhere(_.equalsIgnoreCase(c))
      require(i >= 0, s"${shape.name}: no column $c in ${columns.mkString(", ")}")
      i -> d
    }
    val sky = ExpectedSkyline.skyline(rows, dims, shape.incomplete)
    val chosen = if (shape.distinct) sky.distinctBy(r => dims.map(d => r.get(d._1))) else sky
    canon(chosen, shape, columns).fold(e => sys.error(e), identity)
  }


  // ------------------------------------------------------------- the loop

  private def runQuery(shape: Shape, expected: Seq[String],
                       traced: Option[Tracing]): Sample = {
    traced.foreach(_.begin())
    val cpu0 = JvmProbe.processCpuNs
    val gc0 = JvmProbe.gcMs
    val alloc0 = JvmProbe.allocatedBytes
    val startMs = System.currentTimeMillis()
    val t0 = System.nanoTime()
    val attempt = try {
      val df = spark.sql(shape.sql)
      Right((df, df.collect()))
    } catch { case NonFatal(e) => Left(e) }
    val wallS = (System.nanoTime() - t0) / 1e9
    val endMs = System.currentTimeMillis()
    val cpuS = (JvmProbe.processCpuNs - cpu0) / 1e9
    val gc = JvmProbe.gcMs - gc0
    val alloc = JvmProbe.allocatedBytes - alloc0
    val ok = attempt match {
      case Left(e) =>
        report(s"query failed: ${shape.name}: ${e.getMessage.takeWhile(_ != '\n')}")
        false
      case Right((df, rows)) =>
        val got = canon(rows.toSeq, shape, df.columns.toSeq)
        val same = got == Right(expected)
        if (!same) report(s"wrong result: ${shape.name}: ${got.fold(identity,
          g => s"${g.length} rows, expected ${expected.length}")}")
        traced.foreach(_.record(shape, df, rows.length, startMs, endMs, wallS))
        same
    }
    Sample(shape.name, wallS, cpuS, gc, alloc, ok)
  }

  private def loop(expected: Map[String, Seq[String]], traced: Option[Tracing]): LoopResult = {
    // the live set the session holds to serve these queries, at rest before
    // and after the loop; a query's transient working set is not seen
    val liveBefore = JvmProbe.settledLiveHeapBytes()
    val shapes = workload.shapes
    val deadline = System.nanoTime() + args.seconds * 1000000000L
    val samples = Seq.newBuilder[Sample]
    var i = 0
    // whole rounds only, so every shape has the same weight in the mix
    while (System.nanoTime() < deadline || i % shapes.length != 0) {
      val shape = shapes(i % shapes.length)
      samples += runQuery(shape, expected(shape.name), traced)
      i += 1
    }
    LoopResult(samples.result(), math.max(liveBefore, JvmProbe.settledLiveHeapBytes()))
  }

  // ------------------------------------------------------------------- run

  def run(): Unit = {
    val setups = (1 to SetupRepeats).map(_ => setupData())
    // a fixed number of rounds over every shape, so that the JVM has settled
    // (JIT, heap sizing) before timing; a user pays it once per session
    val (warmupS, _) = timeS {
      for (_ <- 1 to workload.warmupRounds; s <- workload.shapes) spark.sql(s.sql).collect()
    }
    val setupS = sessionS + median(setups.map(_.totalS)) + warmupS
    val (expectedS, expected) = timeS {
      workload.shapes.map(s => s.name -> expectedOf(s, spark.sql(s.baseSql))).toMap
    }
    val inputRows = setups.last.inputRows

    report(s"perfbench env: " + Json.obj(Seq(
      "workload" -> Json.str(workload.name), "seed" -> Json.num(args.seed),
      "seconds" -> Json.num(args.seconds), "trace" -> Json.bool(args.trace),
      "local_n" -> Json.num(cores),
      "heap_max_mb" -> Json.num(Runtime.getRuntime.maxMemory / 1048576.0),
      "spark" -> Json.str(spark.version), "java" -> Json.str(sys.props("java.version")),
      "commit" -> Json.str(sys.props.getOrElse("perfbench.commit", "unknown")),
      "input_rows" -> Json.num(inputRows),
      "expected_rows" -> Json.obj(expected.toSeq.map { case (k, v) => k -> Json.num(v.length) }),
      "expected_s" -> Json.num(expectedS))))

    report(f"setup: session $sessionS%.3f s; generate/cache per repeat: " +
      setups.map(t => f"${t.generateS}%.3f/${t.cacheS}%.3f").mkString(", ") + f"; warm-up $warmupS%.3f s")
    val untraced = loop(expected, None)
    val good = untraced.good
    val latencies = good.map(_.wallS)
    val rounds = untraced.rounds(workload.shapes.length)
    val e2e = Seq(
      ("query_p50_s", untraced.p50(workload.shapes.length), "s"),
      ("cpu_s_per_query", median(rounds.map(r => r.map(_.cpuS).sum / r.length)), "s"),
      ("peak_live_heap_mb", untraced.peakLiveHeapBytes / 1048576.0, "MB"),
      ("setup_s", setupS, "s"),
    )
    report(s"queries: ${untraced.attempted} attempted in ${rounds.length} rounds, " +
      s"${untraced.failed} failed, error_rate ${untraced.failed.toDouble / math.max(untraced.attempted, 1)}")
    report(s"median query time: ${median(latencies)} s over ${latencies.length} queries; " +
      "per query, ms: " + untraced.samples.map(q => f"${q.wallS * 1000}%.0f").mkString(" "))
    e2e.foreach { case (k, v, u) => report(s"$k = $v $u") }
    if (latencies.length >= 100) report(s"query_p90_s = ${percentile(latencies, 0.9)} s")
    if (workload.perShapeReport) workload.shapes.foreach { s =>
      report(s"mix.${s.name}.p50_ms = ${median(good.filter(_.shape == s.name).map(_.wallS)) * 1000} ms")
    }

    var attempted = untraced.attempted
    var failed = untraced.failed
    var consistent = true
    val metrics: Seq[(String, Double, String)] = if (!args.trace) e2e else {
      val tracing = new Tracing(spark, workload, inputRows)
      val traced = try loop(expected, Some(tracing)) finally tracing.close()
      attempted += traced.attempted
      failed += traced.failed
      val kernels = Kernels.run(spark, workload.kernelView, workload.kernelDims,
        workload.kernelIncomplete, args.seed)
      tracing.recordKernels(kernels)
      val reference = runReference()
      consistent = tracing.violations.isEmpty && reference._3
      tracing.violations.distinct.foreach(v => report(s"consistency violated: $v"))
      val jvm = Seq(
        ("jvm.gc_ms_per_query", good.map(_.gcMs.toDouble).sum / math.max(good.length, 1), "ms"),
        ("jvm.alloc_mb_per_query",
          good.map(_.allocBytes.toDouble).sum / math.max(good.length, 1) / 1048576.0, "MB"),
      )
      val data = Seq(
        ("data.generate_s", median(setups.map(_.generateS)), "s"),
        ("data.cache_s", median(setups.map(_.cacheS)), "s"),
        ("data.warmup_s", warmupS, "s"),
      )
      val overhead = (traced.p50(workload.shapes.length) - untraced.p50(workload.shapes.length)) * 1000
      val layers = tracing.metrics(kernels) ++ jvm ++ data ++ Seq(
        ("reference.query_s", reference._1, "s"),
        ("reference.skyline_s", reference._2, "s"),
        ("trace.overhead_ms", overhead, "ms"),
      )
      layers.foreach { case (k, v, u) => report(s"$k = $v $u") }
      report("self time per traced query, by layer: " + tracing.trace.selfMsByLayer.toSeq.sorted
        .filter(_._1 != "kernel")
        .map { case (l, ms) => f"$l ${ms / math.max(traced.attempted, 1)}%.2f ms" }.mkString(", "))
      tracing.plans.foreach { case (shape, (nodes, exchanges)) =>
        report(s"plan ${shape}: skyline nodes ${nodes.mkString(", ")}; shuffle exchanges $exchanges")
      }
      val file = new File(args.out, s"trace-${workload.name}-seed${args.seed}.json")
      val w = new PrintWriter(file, "UTF-8")
      try w.println(Json.obj(Seq(
        "workload" -> Json.str(workload.name), "seed" -> Json.num(args.seed),
        "report" -> Json.arr(lines.result().map(Json.str)),
        "spans" -> tracing.trace.toJson)))
      finally w.close()
      report(s"spans written to ${file.getPath}")
      layers.filterNot(m => PrintedOnly(m._1))
    }

    report(s"jvm uptime before result: ${java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1000.0} s")
    val correct = failed == 0 && consistent
    println(Json.obj(Seq(
      "correct" -> Json.bool(correct),
      "attempted" -> Json.num(attempted),
      "failed" -> Json.num(failed),
      "metrics" -> Json.obj(metrics.map { case (k, v, u) =>
        k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
      }))))
  }

  /** The paper's plain-SQL `NOT EXISTS` rewrite and the skyline query on a
    * sample of the workload's data small enough for the quadratic rewrite;
    * both are checked against the expected result. Returns (reference s,
    * skyline s, both correct).
    */
  private def runReference(): (Double, Double, Boolean) = {
    val sample = workload.referenceInput(spark, args.seed, workload.referenceRows)
      .repartition(cores).cache()
    sample.count()
    sample.createOrReplaceTempView("perfbench_ref")
    val dims = workload.referenceDims
    val shape = Shape("reference", "", "", dims, workload.referenceIncomplete)
    val expected = expectedOf(shape, spark.table("perfbench_ref"))
    val refSql = ReferenceSkyline.rewrite("perfbench_ref", sample.columns.toSeq, dims,
      nullAware = workload.referenceIncomplete)
    val skySql = s"SELECT * FROM perfbench_ref SKYLINE OF " +
      dims.map { case (c, d) => s"$c ${d.sql}" }.mkString(", ")
    def check(label: String, df: DataFrame): (Double, Boolean) = {
      val (s, rows) = timeS(df.collect())
      val ok = canon(rows.toSeq, shape, df.columns.toSeq) == Right(expected)
      if (!ok) report(s"consistency violated: $label disagrees with the expected result on the sample")
      (s, ok)
    }
    val (refS, refOk) = check("NOT EXISTS reference", spark.sql(refSql))
    val (skyS, skyOk) = check("skyline query", spark.sql(skySql))
    sample.unpersist()
    report(s"reference sample: ${workload.referenceRows} rows, ${expected.length} in the skyline")
    (refS, skyS, refOk && skyOk)
  }
}
