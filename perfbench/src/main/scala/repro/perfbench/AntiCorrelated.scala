package repro.perfbench

import java.util.SplittableRandom

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}

/** Anti-correlated and independent point generators after Börzsönyi,
  * Kossmann and Stocker, *The Skyline Operator* (ICDE 2001).
  *
  * An anti-correlated point lies close to the hyperplane Σxᵢ = d·v, where
  * v is drawn from a narrow bell around 0.5: a point good in one dimension
  * is bad in another, so few points dominate each other and the skyline is
  * a large share of the input. This is the worst case for the single-task
  * global step, which the store_sales-like data never reaches.
  *
  * Both generators are deterministic in (rows, dims, seed) and produce
  * values in [0, 1]. The DataFrame schema is non-nullable, so automatic
  * algorithm selection picks the complete algorithm.
  */
object AntiCorrelated {

  /** Mean of `n` uniforms on [lo, hi]: a bell-shaped draw (n = 12 as in
    * the original generator's `random_normal`).
    */
  private def peak(rnd: SplittableRandom, lo: Double, hi: Double, n: Int): Double = {
    var sum = 0.0
    var i = 0
    while (i < n) { sum += rnd.nextDouble(); i += 1 }
    sum / n * (hi - lo) + lo
  }

  /** Half-width of the range the plane's offset v is drawn from. The
    * original generator uses 0.25; a smaller spread keeps the points closer
    * to one plane and makes the skyline a larger share of the input.
    */
  val Spread = 0.1

  /** `rows` anti-correlated points of `dims` dimensions; the plane's
    * offset v is drawn from [0.5 - Spread, 0.5 + Spread].
    */
  def points(rows: Int, dims: Int, seed: Long): Array[Array[Double]] = {
    require(dims >= 2, "anti-correlation needs at least two dimensions")
    val rnd = new SplittableRandom(seed)
    Array.fill(rows) {
      val x = new Array[Double](dims)
      var ok = false
      while (!ok) {
        val v = peak(rnd, 0.5 - Spread, 0.5 + Spread, 12)
        val reach = if (v <= 0.5) v else 1.0 - v
        java.util.Arrays.fill(x, v)
        // move mass between neighbouring dimensions: the sum stays d·v
        var d = 0
        while (d < dims) {
          val h = rnd.nextDouble() * 2 * reach - reach
          x(d) += h
          x((d + 1) % dims) -= h
          d += 1
        }
        ok = x.forall(c => c >= 0.0 && c <= 1.0)
      }
      x
    }
  }

  /** `rows` independent uniform points, the baseline distribution. */
  def independentPoints(rows: Int, dims: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new SplittableRandom(seed)
    Array.fill(rows)(Array.fill(dims)(rnd.nextDouble()))
  }

  /** Dimension column names: `a1` … `ad`. */
  def columns(dims: Int): Seq[String] = (1 to dims).map(i => s"a$i")

  /** The points as a DataFrame `(id, a1, …, ad)` with a non-nullable schema. */
  def dataFrame(spark: SparkSession, rows: Int, dims: Int, seed: Long): DataFrame = {
    val schema = StructType(StructField("id", LongType, nullable = false) +:
      columns(dims).map(StructField(_, DoubleType, nullable = false)))
    val data = points(rows, dims, seed).zipWithIndex.map { case (p, i) =>
      Row.fromSeq(i.toLong +: p.toSeq)
    }
    spark.createDataFrame(spark.sparkContext.parallelize(data.toSeq, 1), schema)
  }
}
