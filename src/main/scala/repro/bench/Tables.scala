package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Direction, SkylineExtensions}
import repro.data.SkylineData
import BenchUtil.{envInt, BenchTable}
import Harness.Column

/** The reproduced evaluation: paper Tables 3–12 (Appendix D) plus the
  * Appendix E complex-query experiment, one [[Tables.Table]] each in
  * [[Tables.all]]. The bench suite runs every entry; `main` runs them from
  * the command line.
  *
  * Scale: the paper ran 0.8M–10M tuples on an 864-core cluster with a
  * 3600 s timeout; these defaults run 25k–500k tuples on one machine with a
  * 90 s timeout (same quadratic reference vs. near-linear specialized
  * trade-off, proportionally smaller crossover points). Override via
  * SKYLINE_BENCH_* environment variables.
  */
object Tables {

  def timeoutSec: Int = envInt("SKYLINE_BENCH_TIMEOUT", 90)

  // dataset sizes (paper: Airbnb 820,698 complete / 1,193,465 incomplete;
  // store_sales 10M complete / 1M–5M incomplete)
  def airbnbComplete: Int = envInt("SKYLINE_BENCH_AIRBNB", 80000)
  def airbnbIncomplete: Int = (airbnbComplete * 1.45).toInt
  def storeSalesT5: Int = envInt("SKYLINE_BENCH_SS", 250000)
  def storeSalesT6: Int = storeSalesT5 / 10 // paper: 10× smaller to avoid t.o.
  def sizeSweep: Seq[Int] = {
    val base = envInt("SKYLINE_BENCH_SS_SWEEP_BASE", 50000)
    Seq(base, 2 * base, 5 * base, 10 * base) // paper: 1M, 2M, 5M, 10M
  }
  def executorSweep: Seq[Int] = Seq(1, 2, 3, 5, 10)
  def musicBrainzRecordings: Int = envInt("SKYLINE_BENCH_MB", 30000)

  /** An input of the evaluation: its name in titles, what its size counts,
    * its dimensions, and its rows for a size and a data mode (incomplete
    * data has nulls).
    */
  final case class Dataset(
      name: String,
      unit: String,
      dims: Seq[(String, Direction)],
      rows: (SparkSession, Int, Boolean) => DataFrame)

  private def nullFraction(incomplete: Boolean): Double = if (incomplete) 0.15 else 0.0

  private val Airbnb: Dataset = Dataset("Airbnb", "tuples", SkylineData.airbnbDims,
    (spark, n, incomplete) => SkylineData.airbnb(spark, n, nullFraction(incomplete)))

  private val StoreSales: Dataset = Dataset("store_sales", "tuples", SkylineData.storeSalesDims,
    (spark, n, incomplete) => SkylineData.storeSales(spark, n, nullFraction(incomplete)))

  /** Appendix E: skyline over a complex query (joins + aggregates) on the
    * MusicBrainz-like dataset. Shape-check companion to Figures 16–19 (the
    * figures themselves are out of scope).
    */
  private val MusicBrainz: Dataset = Dataset("MusicBrainz complex query", "recordings",
    SkylineData.musicBrainzDims, { (spark, n, incomplete) =>
      val (rec, meta, track) = SkylineData.musicBrainz(spark, n, nullFraction(incomplete))
      rec.createOrReplaceTempView("mb_recording")
      meta.createOrReplaceTempView("mb_meta")
      track.createOrReplaceTempView("mb_track")
      // Listing 11 (complete: nulls coalesced away) vs Listing 12 (incomplete:
      // raw values, left-outer join leaves num_tracks/min_position null)
      val trackAgg =
        """LEFT OUTER JOIN (
          |  SELECT recording AS id, count(1) AS num_tracks,
          |         min(position) AS min_position
          |  FROM mb_track GROUP BY recording
          |) t USING (id)
          |JOIN mb_meta m USING (id)""".stripMargin
      if (incomplete) spark.sql(
        s"""SELECT r.id, r.length, r.video, m.rating, m.rating_count,
           |       t.num_tracks, t.min_position
           |FROM mb_recording r
           |$trackAgg""".stripMargin)
      else spark.sql(
        s"""SELECT r.id, ifnull(r.length, 0) AS length, r.video,
           |       ifnull(m.rating, 0) AS rating,
           |       ifnull(m.rating_count, 0) AS rating_count,
           |       ifnull(t.num_tracks, 0) AS num_tracks,
           |       ifnull(t.min_position, 99) AS min_position
           |FROM mb_recording r
           |$trackAgg""".stripMargin)
    })

  /** What a table's columns vary; the other two knobs stay fixed. */
  sealed trait Sweep { def data: Dataset }
  /** Columns add one dimension at a time (Tables 3–6, Appendix E). */
  final case class OverDims(data: Dataset, n: Int, executors: Int) extends Sweep
  /** Columns grow the data, all dimensions (Tables 7–8). */
  final case class OverTuples(data: Dataset, sizes: Seq[Int], executors: Int) extends Sweep
  /** Columns add executors, all dimensions (Tables 9–12). */
  final case class OverExecutors(data: Dataset, n: Int, executors: Seq[Int]) extends Sweep

  /** A fact about the shape of a result that the paper shows and that is
    * robust enough to assert at laptop scale.
    */
  sealed trait Shape
  /** The paper's headline claim: the distributed specialized algorithm is
    * not slower in aggregate than the reference (timeouts charged at the
    * limit).
    */
  case object BeatsReference extends Shape
  /** Execution time grows with the data for every algorithm. */
  case object GrowsWithData extends Shape

  /** One reproduced table.
    *
    * @param id         the result file stem (`bench/results/<id>.md`) and the
    *                   name `main` takes
    * @param name       the bench test name; the text before its `:` starts
    *                   the result title
    * @param incomplete whether the data has nulls: sets the null fraction,
    *                   the algorithms and the null-aware reference
    */
  final case class Table(
      id: String,
      name: String,
      incomplete: Boolean,
      sweep: Sweep,
      shape: Seq[Shape] = Seq(BeatsReference)) {

    private def variant = if (incomplete) "incomplete" else "complete"

    def run(spark: SparkSession): BenchTable = {
      val data = sweep.data
      def load(n: Int) = data.rows(spark, n, incomplete)
      val (varies, fixed, columns) = sweep match {
        case OverDims(_, n, e) =>
          val df = load(n)
          ("dims", s"executors: $e, ${data.unit}: $n",
            (1 to data.dims.size).map(k => Column(k.toString, df, data.dims.take(k), e)))
        case OverTuples(_, sizes, e) =>
          ("tuples", s"executors: $e, dims: ${data.dims.size}",
            sizes.map(n => Column(n.toString, load(n), data.dims, e)))
        case OverExecutors(_, n, es) =>
          val df = load(n)
          ("executors", s"${data.unit}: $n, dims: ${data.dims.size}",
            es.map(k => Column(k.toString, df, data.dims, k)))
      }
      Harness.runGrid(spark,
        s"${name.takeWhile(_ != ':')} — $varies vs time, $variant ${data.name} ($fixed)",
        columns, incomplete, timeoutSec)
    }

    /** Throws an AssertionError when `result` lacks one of [[shape]]. */
    def assertShape(result: BenchTable): Unit = shape.foreach {
      case BeatsReference =>
        val specialized = s"distributed $variant"
        def total(algo: String) = result.rows.find(_._1 == algo).get._2
          .map(_.seconds.getOrElse(timeoutSec.toDouble)).sum
        val (refSum, specSum) = (total(Harness.ReferenceAlgo), total(specialized))
        assert(specSum <= refSum,
          s"$specialized ($specSum s) should not be slower in aggregate than reference ($refSum s)")
      case GrowsWithData =>
        result.rows.foreach { case (algo, cells) =>
          val done = cells.flatMap(_.seconds)
          assert(done.size < 2 || done.last >= done.head * 0.5,
            s"$algo: ${done.last} s at the largest size, below half of ${done.head} s at the smallest")
        }
    }
  }

  /** Every reproduced table, in the order `main` runs them. */
  val all: Seq[Table] = Seq(
    Table("table3", "Table 3: dims vs time, complete Airbnb", incomplete = false,
      OverDims(Airbnb, airbnbComplete, executors = 5)),
    Table("table4", "Table 4: dims vs time, incomplete Airbnb", incomplete = true,
      OverDims(Airbnb, airbnbIncomplete, executors = 5)),
    Table("table5", "Table 5: dims vs time, complete store_sales", incomplete = false,
      OverDims(StoreSales, storeSalesT5, executors = 10)),
    // the paper's Table 6 has a cell where the reference wins: no ordering
    Table("table6", "Table 6: dims vs time, incomplete store_sales", incomplete = true,
      OverDims(StoreSales, storeSalesT6, executors = 10), shape = Nil),
    Table("table7", "Table 7: tuples vs time, complete store_sales", incomplete = false,
      OverTuples(StoreSales, sizeSweep, executors = 3), shape = Seq(BeatsReference, GrowsWithData)),
    Table("table8", "Table 8: tuples vs time, incomplete store_sales", incomplete = true,
      OverTuples(StoreSales, sizeSweep, executors = 3)),
    Table("table9", "Table 9: executors vs time, complete Airbnb", incomplete = false,
      OverExecutors(Airbnb, airbnbComplete, executorSweep)),
    Table("table10", "Table 10: executors vs time, incomplete Airbnb", incomplete = true,
      OverExecutors(Airbnb, airbnbIncomplete, executorSweep)),
    Table("table11", "Table 11: executors vs time, complete store_sales (largest)",
      incomplete = false, OverExecutors(StoreSales, sizeSweep.last, executorSweep)),
    Table("table12", "Table 12: executors vs time, incomplete store_sales", incomplete = true,
      OverExecutors(StoreSales, sizeSweep(2), executorSweep)), // the paper's 5M
    Table("appendixE_complete", "Appendix E: complex query, complete", incomplete = false,
      OverDims(MusicBrainz, musicBrainzRecordings, executors = 3)),
    Table("appendixE_incomplete", "Appendix E: complex query, incomplete", incomplete = true,
      OverDims(MusicBrainz, musicBrainzRecordings, executors = 3), shape = Nil),
  )

  /** The tables named by `ids`, in that order; every table for no ids. */
  def select(ids: Seq[String]): Seq[Table] =
    if (ids.isEmpty) all
    else ids.map(id => all.find(_.id == id).getOrElse(throw new IllegalArgumentException(
      s"unknown table '$id'; valid ids: ${all.map(_.id).mkString(", ")}")))

  /** Runs the tables named on the command line (every table for none) in a
    * session with the skyline extensions installed, and writes each result
    * to `bench/results/<id>.md`:
    * {{{
    *   spark-submit --class repro.bench.Tables target/scala-2.13/repro_2.13-*.jar table3 table4
    * }}}
    */
  def main(args: Array[String]): Unit = {
    val tables = select(args.toSeq)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("skyline-tables")
      .config("spark.ui.enabled", "false")
      .withExtensions(new SkylineExtensions)
      .getOrCreate()
    try tables.foreach(t => t.run(spark).report(s"${t.id}.md"))
    finally spark.stop()
  }
}
