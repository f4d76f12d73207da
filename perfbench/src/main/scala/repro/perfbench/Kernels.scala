package repro.perfbench

import java.util.SplittableRandom

import org.apache.spark.sql.SparkSession
import repro.core.{Direction, DominanceChecker, SkylineAlgorithms}

/** The pure skyline kernels, called directly and without Spark on the rows
  * of one partition of a workload's own cached input.
  */
object Kernels {

  final case class Result(
      rows: Int,
      bnlNsPerTuple: Double,
      bitmapBnlNsPerTuple: Double,
      allPairsNsPerPair: Double,
      dominatesNs: Double,
      survivors: Int,
      /** (kernel, start ms, end ms) of every timed call */
      spans: Seq[(String, Long, Long)])

  private val Repeats = 3
  private val AllPairsRows = 2000
  private val DominanceCalls = 2000000

  def run(spark: SparkSession, view: String, dims: Seq[(String, Direction)],
          incomplete: Boolean, seed: Long): Result = {
    val df = spark.table(view).select(dims.map(d => org.apache.spark.sql.functions.col(d._1)): _*)
    val types = df.schema.fields.map(_.dataType)
    val dirs = dims.map(_._2).toArray
    val rows: Array[Array[Any]] = df.rdd
      .mapPartitionsWithIndex((i, it) => if (i == 0) it else Iterator.empty)
      .collect().map(_.toSeq.toArray[Any])
    val complete = new DominanceChecker(types, dirs, incomplete = false)
    val nullAware = new DominanceChecker(types, dirs, incomplete = true)
    val own = if (incomplete) nullAware else complete
    val spans = Seq.newBuilder[(String, Long, Long)]

    /** Median wall ns of `Repeats` calls, each recorded as a span. */
    def timed[T](name: String)(body: => T): (Long, T) = {
      val runs = (1 to Repeats).map { _ =>
        val startMs = System.currentTimeMillis()
        val t0 = System.nanoTime()
        val out = body
        val ns = System.nanoTime() - t0
        spans += ((s"kernel.$name", startMs, System.currentTimeMillis()))
        (ns, out)
      }
      runs.sortBy(_._1).apply(Repeats / 2)
    }
    def tagged(rs: Array[Array[Any]]) = rs.iterator.zipWithIndex.map { case (v, i) => (i, v) }

    val n = math.max(rows.length, 1)
    val (bnlNs, bnlOut) = timed("bnl")(
      SkylineAlgorithms.bnl(tagged(rows), complete, distinct = false).size)
    val (bitmapNs, bitmapOut) = timed("bitmap_bnl")(
      SkylineAlgorithms.bnlByNullBitmap(tagged(rows), nullAware, distinct = false).size)
    val head = rows.take(AllPairsRows).zipWithIndex.map { case (v, i) => (i, v) }.toIndexedSeq
    val pairs = math.max(head.length.toLong * (head.length - 1) / 2, 1L)
    val (allPairsNs, _) = timed("all_pairs")(
      SkylineAlgorithms.allPairsDeferred(head, own, distinct = false).size)

    val rnd = new SplittableRandom(seed)
    val left = Array.fill(DominanceCalls)(rnd.nextInt(n))
    val right = Array.fill(DominanceCalls)(rnd.nextInt(n))
    val (domNs, _) = if (rows.isEmpty) (0L, 0) else timed("dominates") {
      var hits = 0
      var i = 0
      while (i < DominanceCalls) {
        if (own.dominates(rows(left(i)), rows(right(i)))) hits += 1
        i += 1
      }
      hits
    }
    Result(
      rows = rows.length,
      bnlNsPerTuple = bnlNs.toDouble / n,
      bitmapBnlNsPerTuple = bitmapNs.toDouble / n,
      allPairsNsPerPair = allPairsNs.toDouble / pairs,
      dominatesNs = domNs.toDouble / DominanceCalls,
      survivors = if (incomplete) bitmapOut else bnlOut,
      spans = spans.result())
  }
}
