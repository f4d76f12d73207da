package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Direction
import repro.data.SkylineData

/** One skyline query shape of a workload.
  *
  * @param sql        the skyline query, as an analyst would issue it
  * @param baseSql    the same query without its SKYLINE OF clause; stock
  *                   Spark runs it to produce the input of the expected result
  * @param dims       skyline dimensions, by column name of `baseSql`'s output
  * @param incomplete whether the expected result uses incomplete dominance
  *                   (the data may hold nulls and the query is not COMPLETE)
  * @param distinct   SKYLINE OF DISTINCT: compare dimension-value sets
  * @param split      the plan must hold a local and a global step
  */
final case class Shape(
    name: String,
    sql: String,
    baseSql: String,
    dims: Seq[(String, Direction)],
    incomplete: Boolean,
    distinct: Boolean = false,
    split: Boolean = false)

/** A benchmark workload: generated inputs registered as cached views and the
  * query shapes the closed loop issues round-robin.
  */
trait Workload {
  def name: String

  /** The uncached generated inputs, by view name. Inputs are repartitioned
    * to the session's parallelism (the paper's executor count) and cached.
    */
  def inputs(spark: SparkSession, seed: Long): Seq[(String, DataFrame)]

  def shapes: Seq[Shape]

  /** The view, dimensions and mode the Spark-free kernels run on. */
  def kernelView: String
  def kernelDims: Seq[(String, Direction)]
  def kernelIncomplete: Boolean

  /** The view the `NOT EXISTS` reference runs on, sampled to `referenceRows`. */
  def referenceRows: Int
  def referenceInput(spark: SparkSession, seed: Long, rows: Int): DataFrame
  def referenceDims: Seq[(String, Direction)]
  def referenceIncomplete: Boolean

  /** Rounds over every shape run before timing, a few seconds of queries
    * after the set-ups have warmed the JIT. A fixed count, not a clock, so
    * that `setup_s` moves with the cost of the queries.
    */
  def warmupRounds: Int

  /** Report each shape's median as `mix.<shape>.p50_ms`. */
  def perShapeReport: Boolean = false

}

object Workloads {

  private def skylineOf(dims: Seq[(String, Direction)]): String =
    dims.map { case (c, d) => s"$c ${d.sql}" }.mkString(", ")

  /** `SELECT * FROM view SKYLINE OF dims` and its base query. */
  private def plain(name: String, view: String, dims: Seq[(String, Direction)],
                    incomplete: Boolean): Shape =
    Shape(name, s"SELECT * FROM $view SKYLINE OF ${skylineOf(dims)}",
      s"SELECT * FROM $view", dims, incomplete)

  /* The data workloads hold several independently generated tables and
   * query them round-robin. The cost of a skyline over one table varies by
   * ±15 % from seed to seed (it depends on which tuples the BNL window meets
   * first), so a run averages over several draws.
   */

  /** Seed of table `k` of a run: the generators use seed … seed + 1005. */
  private def tableSeed(seed: Long, k: Int): Long = seed * 10000 + k * 10

  private def tableShapes(view: String, tables: Int, dims: Seq[(String, Direction)],
                          incomplete: Boolean): Seq[Shape] =
    (1 to tables).map(k => plain(s"skyline_$k", s"${view}_$k", dims, incomplete).copy(split = true))

  /** store_sales-like facts (paper Table 2), 6 dimensions. */
  final class StoreSales(val name: String, tables: Int, rowsPerTable: Long, nullFraction: Double,
                         val referenceRows: Int, val warmupRounds: Int) extends Workload {
    private val incomplete = nullFraction > 0
    def inputs(spark: SparkSession, seed: Long): Seq[(String, DataFrame)] = (1 to tables).map { k =>
      s"ss_$k" -> SkylineData.storeSales(spark, rowsPerTable, nullFraction, tableSeed(seed, k))
    }
    val shapes: Seq[Shape] = tableShapes("ss", tables, SkylineData.storeSalesDims, incomplete)
    def kernelView = "ss_1"
    def kernelDims: Seq[(String, Direction)] = SkylineData.storeSalesDims
    def kernelIncomplete: Boolean = incomplete
    def referenceInput(spark: SparkSession, seed: Long, n: Int): DataFrame =
      SkylineData.storeSales(spark, n.toLong, nullFraction, seed)
    def referenceDims: Seq[(String, Direction)] = SkylineData.storeSalesDims
    def referenceIncomplete: Boolean = incomplete
  }

  /** Anti-correlated points, complete, all dimensions MIN. */
  final class AntiCorrelatedWorkload(tables: Int, rowsPerTable: Int, dims: Int,
                                     val referenceRows: Int, val warmupRounds: Int)
      extends Workload {
    val name = "anticorrelated"
    private val dimList = AntiCorrelated.columns(dims).map(_ -> Direction.Min)
    def inputs(spark: SparkSession, seed: Long): Seq[(String, DataFrame)] = (1 to tables).map { k =>
      s"anti_$k" -> AntiCorrelated.dataFrame(spark, rowsPerTable, dims, tableSeed(seed, k))
    }
    val shapes: Seq[Shape] = tableShapes("anti", tables, dimList, incomplete = false)
    def kernelView = "anti_1"
    def kernelDims: Seq[(String, Direction)] = dimList
    def kernelIncomplete = false
    def referenceInput(spark: SparkSession, seed: Long, n: Int): DataFrame =
      AntiCorrelated.dataFrame(spark, n, dims, seed)
    def referenceDims: Seq[(String, Direction)] = dimList
    def referenceIncomplete = false
  }

  /** Six short SQL shapes over a small store_sales and MusicBrainz-like
    * tables: the parser, both rules, every strategy branch and the
    * single-dimension node run here.
    */
  final class SqlMix(storeSalesRows: Long, recordings: Long,
                     val referenceRows: Int, val warmupRounds: Int) extends Workload {
    val name = "sql-mix"
    def inputs(spark: SparkSession, seed: Long): Seq[(String, DataFrame)] = {
      val (recording, meta, track) = SkylineData.musicBrainz(spark, recordings, 0.15, seed)
      Seq(
        "mix_ss" -> SkylineData.storeSales(spark, storeSalesRows, 0.0, seed),
        "mb_rec" -> recording.join(meta, "id")
          .select("id", "length", "video", "rating", "rating_count"),
        "mb_track" -> track,
      )
    }

    private val distinctBase =
      """SELECT * FROM (SELECT ss_quantity AS q, CAST(ss_list_price AS INT) AS price,
        |ss_item_sk % 4 AS shelf FROM mix_ss)""".stripMargin
    private val groupBase =
      """SELECT ss_item_sk, min(ss_sales_price) AS best_price, sum(ss_quantity) AS qty
        |FROM mix_ss GROUP BY ss_item_sk HAVING count(1) >= 5""".stripMargin
    private val joinBase =
      """SELECT r.id, r.length, r.rating, r.rating_count, t.position
        |FROM mb_rec r LEFT OUTER JOIN mb_track t ON r.id = t.recording""".stripMargin
    private val completeBase =
      """SELECT id, video, rating, rating_count FROM mb_rec
        |WHERE rating IS NOT NULL AND rating_count IS NOT NULL""".stripMargin

    val shapes: Seq[Shape] = Seq(
      plain("single_dim", "mix_ss", Seq("ss_quantity" -> Direction.Max), incomplete = false),
      plain("multi_dim", "mix_ss",
        Seq("ss_wholesale_cost" -> Direction.Min, "ss_ext_discount_amt" -> Direction.Max),
        incomplete = false),
      Shape("group_by", s"$groupBase SKYLINE OF best_price MIN, qty MAX", groupBase,
        Seq("best_price" -> Direction.Min, "qty" -> Direction.Max), incomplete = false),
      Shape("distinct_diff", s"$distinctBase SKYLINE OF DISTINCT q MAX, price MIN, shelf DIFF",
        distinctBase,
        Seq("q" -> Direction.Max, "price" -> Direction.Min, "shelf" -> Direction.Diff),
        incomplete = false, distinct = true),
      Shape("outer_join",
        s"$joinBase SKYLINE OF r.length MIN, r.rating MAX, r.rating_count MAX", joinBase,
        Seq("length" -> Direction.Min, "rating" -> Direction.Max, "rating_count" -> Direction.Max),
        incomplete = true),
      Shape("complete_kw",
        s"$completeBase SKYLINE OF COMPLETE rating MAX, rating_count MAX, video MAX",
        completeBase,
        Seq("rating" -> Direction.Max, "rating_count" -> Direction.Max, "video" -> Direction.Max),
        incomplete = false),
    )
    def kernelView = "mix_ss"
    def kernelDims: Seq[(String, Direction)] = SkylineData.storeSalesDims
    def kernelIncomplete = false
    def referenceInput(spark: SparkSession, seed: Long, n: Int): DataFrame =
      SkylineData.storeSales(spark, n.toLong, 0.0, seed)
    def referenceDims: Seq[(String, Direction)] = shapes(1).dims
    def referenceIncomplete = false
    override def perShapeReport = true
  }

  /** The benchmark's workloads. Sizes are fixed here: they are part of the
    * benchmark's definition, and a run must fit in a few seconds of set-up.
    */
  val all: Seq[Workload] = Seq(
    new StoreSales("storesales-complete", 4, 200000L, 0.0, referenceRows = 20000, warmupRounds = 10),
    new StoreSales("storesales-incomplete", 4, 100000L, 0.15, referenceRows = 20000,
      warmupRounds = 4),
    new AntiCorrelatedWorkload(8, 3500, 4, referenceRows = 3500, warmupRounds = 1),
    new SqlMix(100000L, 30000L, referenceRows = 20000, warmupRounds = 2),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
