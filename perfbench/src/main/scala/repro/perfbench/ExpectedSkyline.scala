package repro.perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.Row
import repro.core.Direction

/** The benchmark's expected skyline, computed on the driver outside the
  * timed region and independently of `repro.core`.
  *
  * It returns what `repro.reference.BruteForce.skyline` returns without
  * DISTINCT, with the same dominance test (numbers compared by double
  * value; nulls skipped in incomplete mode, sorted first in complete mode),
  * but avoids testing all n² pairs, which is out of reach at a million rows:
  *
  *  - Rows are split into classes that share a null bitmap (in complete
  *    mode all rows form one class and nulls are ordinary values).
  *  - For a row r and a class B, only the dimensions D non-null in both
  *    can decide dominance, and inside B dominance restricted to D is
  *    transitive. So some member of B dominates r on D iff some member of
  *    a *frontier* of B does: any subset of B that contains B's skyline
  *    on D, taken per combination of DIFF values.
  *  - A frontier is built by scanning B in order of a monotone score and
  *    keeping each row that no kept row dominates. Rows sorted early
  *    dominate most, so the frontier stays small; ties in the score only
  *    make it larger, never wrong.
  *
  * Rows skipped while building their own class's frontier on all their
  * non-null dimensions are dominated; every other row is tested against
  * the frontier of every class. Dimensions must be numeric.
  */
object ExpectedSkyline {

  /** Rows of `rows` that no row of `rows` dominates. */
  def skyline(rows: IndexedSeq[Row], dims: Seq[(Int, Direction)],
              incomplete: Boolean): IndexedSeq[Row] = {
    require(dims.length <= 64, "at most 64 skyline dimensions")
    val n = rows.length
    val arity = dims.length
    val dirs = dims.map(_._2).toArray
    // row-major values and null masks (bit k: dimension k is null)
    val values = new Array[Double](n * arity)
    val nulls = new Array[Long](n)
    for (r <- 0 until n; k <- 0 until arity) rows(r).get(dims(k)._1) match {
      case null      => nulls(r) |= 1L << k
      case x: Number => values(r * arity + k) = x.doubleValue()
      case other     => throw new IllegalArgumentException(s"non-numeric dimension value $other")
    }
    def isNull(r: Int, k: Int): Boolean = (nulls(r) >>> k & 1L) == 1L

    /** `a` dominates `b` on the dimensions in `sub` (Definition 3.1). */
    def dominates(a: Int, b: Int, sub: Array[Int]): Boolean = {
      var strict = false
      var j = 0
      while (j < sub.length) {
        val k = sub(j)
        val an = isNull(a, k)
        val bn = isNull(b, k)
        if (!(incomplete && (an || bn))) {
          val c =
            if (an || bn) (if (an && bn) 0 else if (an) -1 else 1)
            else java.lang.Double.compare(values(a * arity + k), values(b * arity + k))
          dirs(k) match {
            case Direction.Min  => if (c > 0) return false else if (c < 0) strict = true
            case Direction.Max  => if (c < 0) return false else if (c > 0) strict = true
            case Direction.Diff => if (c != 0) return false
          }
        }
        j += 1
      }
      strict
    }

    val bitmaps = nulls.map(b => if (incomplete) b else 0L)
    val classes: Map[Long, IndexedSeq[Int]] =
      (0 until n).groupBy(bitmaps(_)).map { case (b, ix) => b -> ix.toIndexedSeq }
    val all = if (arity == 64) -1L else (1L << arity) - 1

    final class Frontier(mask: Long, members: IndexedSeq[Int]) {
      private val sub = (0 until arity).filter(k => (mask >>> k & 1L) == 1L).toArray
      private val diffs = sub.filter(dirs(_) == Direction.Diff).toSeq
      private def key(r: Int): Seq[Option[Double]] =
        diffs.map(k => if (isNull(r, k)) None else Some(values(r * arity + k)))
      /** Sum of MIN values minus MAX values: a dominator never scores
        * higher. Rows with a null (complete mode) or a NaN score sort
        * first and are always tested against.
        */
      private def score(r: Int): Double = {
        var acc = 0.0
        sub.foreach { k =>
          val v = if (isNull(r, k)) Double.NaN else values(r * arity + k)
          dirs(k) match {
            case Direction.Min  => acc += v
            case Direction.Max  => acc -= v
            case Direction.Diff =>
          }
        }
        if (acc.isNaN) Double.NegativeInfinity else acc
      }
      private def limit(r: Int): Double = {
        val s = score(r)
        if (s == Double.NegativeInfinity) Double.PositiveInfinity else s
      }
      private val decisive = sub.exists(dirs(_) != Direction.Diff)
      /** Members skipped because a kept member dominates them on `sub`. */
      val skipped = mutable.BitSet.empty
      private val groups: Map[Seq[Option[Double]], (Array[Int], Array[Double])] =
        if (!decisive) Map.empty
        else members.groupBy(key).map { case (g, ix) =>
          val kept = ArrayBuffer.empty[(Int, Double)]
          ix.map(i => (i, score(i))).sortBy(_._2).foreach { case (i, s) =>
            if (kept.exists(f => dominates(f._1, i, sub))) skipped += i
            else kept += i -> s
          }
          g -> (kept.map(_._1).toArray, kept.map(_._2).toArray)
        }
      /** Does some member dominate row `r`? Only members scoring at most
        * r's score can, as the score is monotone in dominance.
        */
      def dominatesRow(r: Int): Boolean = decisive && (groups.get(key(r)) match {
        case None => false
        case Some((kept, scores)) =>
          val lim = limit(r)
          var i = 0
          var found = false
          while (!found && i < kept.length && scores(i) <= lim) {
            found = dominates(kept(i), r, sub)
            i += 1
          }
          found
      })
    }

    val frontiers = mutable.HashMap.empty[(Long, Long), Frontier]
    def frontier(cls: Long, mask: Long): Frontier =
      frontiers.getOrElseUpdate((cls, mask), new Frontier(mask, classes(cls)))

    val dominated = new Array[Boolean](n)
    classes.keys.foreach(b => frontier(b, all & ~b).skipped.foreach(dominated(_) = true))
    (0 until n).filter { i =>
      !dominated(i) &&
        !classes.keys.exists(b => frontier(b, all & ~b & ~bitmaps(i)).dominatesRow(i))
    }.map(rows)
  }
}
