package repro.bench

import org.apache.spark.sql.SparkSession
import java.util.concurrent.atomic.AtomicReference

/** Timing, timeout and table-rendering utilities for the benchmark harness.
  *
  * Timeouts mirror the paper's 3600 s cutoff (scaled down): the measured
  * action runs in its own thread under a Spark job group; on timeout the job
  * group is cancelled and the cell is reported as "t.o.".
  */
object BenchUtil {

  /** One measurement. Only a finished cell has a time and a result
    * cardinality (the cardinality is a cross-algorithm sanity check).
    */
  sealed trait Cell {
    def seconds: Option[Double] = None
    def rows: Option[Long] = None
  }

  object Cell {
    final case class Finished(secs: Double, count: Long) extends Cell {
      override def seconds: Option[Double] = Some(secs)
      override def rows: Option[Long] = Some(count)
    }
    case object TimedOut extends Cell
    /** The measured action threw: a broken cell, not a slow one. */
    final case class Failed(error: Throwable) extends Cell
  }

  /** Run `body` (returning a row count) with a timeout; cancel via job group. */
  def timed(spark: SparkSession, timeoutSec: Int)(body: => Long): Cell = {
    val group = s"skyline-bench-${System.nanoTime()}"
    val outcome = new AtomicReference[Either[Throwable, Long]]()
    val t0 = System.nanoTime()
    val worker = new Thread(() => {
      spark.sparkContext.setJobGroup(group, "skyline bench cell", interruptOnCancel = true)
      try outcome.set(Right(body))
      catch { case t: Throwable => outcome.set(Left(t)) }
      finally spark.sparkContext.clearJobGroup()
    }, group)
    worker.setDaemon(true)
    worker.start()
    worker.join(timeoutSec * 1000L)
    if (worker.isAlive) {
      spark.sparkContext.cancelJobGroup(group)
      worker.join(30000L)
      Cell.TimedOut
    } else outcome.get() match {
      case Right(n) => Cell.Finished((System.nanoTime() - t0) / 1e9, n)
      case Left(t) =>
        Console.err.println(s"[bench] cell failed: ${t.getMessage}")
        Cell.Failed(t)
    }
  }

  /** Run `body` with each `(key, value)` Spark conf set; afterwards each key
    * is back at its previous value, or unset if it had none. AQE re-plans
    * while a query runs, so a conf the planner reads must stay set through
    * execution, not only while the plan is built.
    */
  def withConf[T](spark: SparkSession, confs: (String, String)*)(body: => T): T = {
    val previous = confs.map { case (k, _) => k -> spark.conf.getOption(k) }
    confs.foreach { case (k, v) => spark.conf.set(k, v) }
    try body
    finally previous.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None)    => spark.conf.unset(k)
    }
  }

  /** A rendered benchmark table in the paper's Appendix D layout: one block
    * of percentages relative to the reference algorithm, one block of
    * absolute seconds.
    */
  final case class BenchTable(
      title: String,
      colLabels: Seq[String],
      rows: Seq[(String, Seq[Cell])]) {

    def render: String = {
      val refRow = rows.find(_._1 == Harness.ReferenceAlgo).map(_._2)
      val header = ("algorithm" +: colLabels).mkString("| ", " | ", " |")
      val sep = Seq.fill(colLabels.size + 1)("---").mkString("| ", " | ", " |")
      val pctBlock = refRow.fold("") { ref =>
        rows.map { case (name, cells) =>
          (name +: cells.zip(ref).map { case (c, r) => fmtPct(c, r) })
            .mkString("| ", " | ", " |")
        }.mkString("", "\n", "\n\n")
      }
      val secBlock = rows.map { case (name, cells) =>
        (name +: cells.map(fmtSec)).mkString("| ", " | ", " |")
      }.mkString("\n")
      s"### $title\n\n$header\n$sep\n$pctBlock$header\n$sep\n$secBlock\n"
    }

    /** Emit to stdout and persist under bench/results/ (the bench project's
      * forked JVM already runs with cwd bench/).
      */
    def report(fileName: String): Unit = {
      val text = render
      println()
      println(text)
      val cwd = new java.io.File(".").getCanonicalFile
      val dir =
        if (cwd.getName == "bench") new java.io.File(cwd, "results")
        else new java.io.File(cwd, "bench/results")
      dir.mkdirs()
      val f = new java.io.File(dir, fileName)
      val w = new java.io.PrintWriter(f, "UTF-8")
      try w.println(text) finally w.close()
    }
  }

  /** A cell's seconds as a result table shows them. */
  def fmtSec(c: Cell): String = c match {
    case Cell.Finished(s, _) => f"$s%.2f"
    case Cell.TimedOut       => "t.o."
    case Cell.Failed(_)      => "fail"
  }

  /** A cell's time as a percentage of the reference cell's. */
  private def fmtPct(c: Cell, ref: Cell): String = ref match {
    case Cell.Finished(r, _) => c.seconds.fold(fmtSec(c))(s => f"${100.0 * s / r}%.2f%%")
    case _                   => "n.a."
  }

  /** Environment-overridable integer knob. */
  def envInt(name: String, default: Int): Int =
    sys.env.get(name).map(_.toInt).getOrElse(default)
}
