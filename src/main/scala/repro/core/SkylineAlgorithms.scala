package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Pure skyline kernels, shared by the physical operators and directly
  * unit-testable without a SparkSession.
  *
  * Rows are `(payload, dimValues)` pairs: the payload is opaque (an
  * `InternalRow` in the execs, anything in tests) and `dimValues` are the
  * evaluated skyline-dimension values in checker order.
  */
object SkylineAlgorithms {

  /** Block-Nested-Loop skyline (§5.6, complete data only — relies on the
    * transitivity of dominance to delete dominated tuples eagerly).
    *
    * The window holds the skyline of everything seen so far. For each
    * incoming tuple t: if some window tuple dominates t (or ties it exactly
    * under DISTINCT), t is dropped; otherwise every window tuple t dominates
    * is evicted and t is inserted.
    */
  def bnl[T](
      rows: Iterator[(T, Array[Any])],
      checker: DominanceChecker,
      distinct: Boolean): ArrayBuffer[(T, Array[Any])] = {
    val window = ArrayBuffer.empty[(T, Array[Any])]
    while (rows.hasNext) {
      val t = rows.next()
      var dominated = false
      var i = 0
      var n = window.length
      while (i < n && !dominated) {
        val w = window(i)
        if (checker.dominates(w._2, t._2) ||
            (distinct && checker.equalOnDims(w._2, t._2))) {
          dominated = true
        } else if (checker.dominates(t._2, w._2)) {
          // evict w: swap-with-last keeps eviction O(1)
          window(i) = window(n - 1)
          window.remove(n - 1)
          n -= 1
        } else {
          i += 1
        }
      }
      if (!dominated) window += t
    }
    window
  }

  /** All-pairs skyline with deferred deletion (§5.7 global step for
    * incomplete data). Dominated tuples are only *flagged* while scanning so
    * that a dominated tuple can still eliminate the tuples it dominates —
    * the fix for the cyclic-dominance bug illustrated in Appendix A.
    */
  def allPairsDeferred[T](
      rows: IndexedSeq[(T, Array[Any])],
      checker: DominanceChecker,
      distinct: Boolean): ArrayBuffer[(T, Array[Any])] = {
    val n = rows.length
    val dominated = new Array[Boolean](n)
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        val a = rows(i)._2
        val b = rows(j)._2
        if (checker.dominates(a, b)) dominated(j) = true
        if (checker.dominates(b, a)) dominated(i) = true
        j += 1
      }
      i += 1
    }
    val out = ArrayBuffer.empty[(T, Array[Any])]
    i = 0
    while (i < n) {
      if (!dominated(i)) {
        val keep =
          !distinct || !out.exists(o => checker.equalOnDims(o._2, rows(i)._2))
        if (keep) out += rows(i)
      }
      i += 1
    }
    out
  }

  /** Local skyline for incomplete data (§5.7): group tuples by their null
    * bitmap and run BNL inside each group. Within a group all tuples share
    * the same null positions, so incomplete dominance degenerates to complete
    * dominance on the non-null sub-space — transitive, hence BNL-safe.
    * Across groups nothing is compared here; that is the global step's job
    * (Lemma 5.1 guarantees the union of these local skylines suffices).
    */
  def bnlByNullBitmap[T](
      rows: Iterator[(T, Array[Any])],
      checker: DominanceChecker,
      distinct: Boolean): Iterator[(T, Array[Any])] = {
    val groups = mutable.LinkedHashMap.empty[Long, ArrayBuffer[(T, Array[Any])]]
    while (rows.hasNext) {
      val t = rows.next()
      groups.getOrElseUpdate(checker.nullBitmap(t._2), ArrayBuffer.empty) += t
    }
    groups.valuesIterator.flatMap(g => bnl(g.iterator, checker, distinct))
  }

  /** Single-dimension MIN/MAX skyline (§5.4). In one dimension a tuple
    * dominates another iff it is strictly better, so the skyline is every
    * tuple that ties the best value: one pass, one comparison per tuple.
    * In incomplete mode a tuple whose dimension is null shares no non-null
    * dimension with anything, so it is incomparable and always kept; in
    * complete mode the checker orders nulls first.
    */
  def extreme[T](
      rows: Iterator[(T, Array[Any])],
      checker: DominanceChecker): ArrayBuffer[(T, Array[Any])] = {
    require(checker.arity == 1, "extreme takes exactly one dimension")
    val out = ArrayBuffer.empty[(T, Array[Any])]
    val best = ArrayBuffer.empty[(T, Array[Any])]
    while (rows.hasNext) {
      val t = rows.next()
      if (checker.incomplete && t._2(0) == null) out += t
      else if (best.isEmpty || checker.dominates(t._2, best(0)._2)) {
        best.clear()
        best += t
      } else if (!checker.dominates(best(0)._2, t._2)) best += t
    }
    out ++= best
  }
}
