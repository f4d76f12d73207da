package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{DataType, IntegerType}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.reference.BruteForce
import scala.util.Random

/** Unit tests of the pure skyline kernels against a definitional filter
  * built from the same dominance checker, and a randomized test of every
  * row of the kernel table against [[BruteForce]].
  */
class SkylineAlgorithmsSpec extends AnyFunSuite {

  import Direction._
  import SkylineAlgorithmsSpec.Input

  private def checker(dirs: Seq[Direction], incomplete: Boolean = false) =
    new DominanceChecker(
      dirs.map(_ => IntegerType: DataType).toArray, dirs.toArray, incomplete)

  private def rows(vs: Seq[Seq[Any]]): Seq[(Int, Array[Any])] =
    vs.zipWithIndex.map { case (v, i) => (i, v.toArray) }

  /** SKY(R) by definition. */
  private def definitional(
      rs: Seq[(Int, Array[Any])],
      c: DominanceChecker): Set[Int] =
    rs.filter(r => !rs.exists(s => c.dominates(s._2, r._2))).map(_._1).toSet

  private def randomRows(rnd: Random, n: Int, dims: Int, domain: Int,
                         nullFrac: Double = 0.0): Seq[(Int, Array[Any])] =
    rows(Seq.fill(n)(Seq.fill[Any](dims)(
      if (rnd.nextDouble() < nullFrac) null else Int.box(rnd.nextInt(domain)))))

  // ---- BNL (complete) --------------------------------------------------

  test("bnl: empty input") {
    val c = checker(Seq(Min))
    assert(SkylineAlgorithms.bnl(Iterator.empty[(Int, Array[Any])], c, distinct = false).isEmpty)
  }

  test("bnl: single tuple survives") {
    val c = checker(Seq(Min))
    val out = SkylineAlgorithms.bnl(rows(Seq(Seq(5))).iterator, c, distinct = false)
    assert(out.map(_._1) == Seq(0))
  }

  test("bnl: dominated tuple eliminated, window eviction works") {
    val c = checker(Seq(Min, Max))
    // (3,3) enters first, then (1,5) dominates and evicts it
    val out = SkylineAlgorithms.bnl(
      rows(Seq(Seq(3, 3), Seq(1, 5), Seq(2, 6))).iterator, c, distinct = false)
    assert(out.map(_._1).toSet == Set(1, 2))
  }

  test("bnl: duplicates both kept without DISTINCT") {
    val c = checker(Seq(Min))
    val out = SkylineAlgorithms.bnl(rows(Seq(Seq(1), Seq(1))).iterator, c, distinct = false)
    assert(out.size == 2)
  }

  test("bnl: DISTINCT keeps one per dimension-value combination") {
    val c = checker(Seq(Min, Max))
    // (2,9) is incomparable with (1,5): worse in MIN, better in MAX
    val out = SkylineAlgorithms.bnl(
      rows(Seq(Seq(1, 5), Seq(1, 5), Seq(1, 5), Seq(2, 9))).iterator, c, distinct = true)
    assert(out.map(_._2.toSeq).sortBy(_.toString) ==
      Seq(Seq(1, 5), Seq(2, 9)).sortBy(_.toString))
  }

  test("bnl: DIFF partitions the skyline") {
    val c = checker(Seq(Diff, Min))
    val out = SkylineAlgorithms.bnl(
      rows(Seq(Seq(0, 5), Seq(0, 3), Seq(1, 9), Seq(1, 1))).iterator, c, distinct = false)
    assert(out.map(_._1).toSet == Set(1, 3))
  }

  test("bnl matches definitional skyline (randomized, many shapes)") {
    val rnd = new Random(10)
    for (trial <- 1 to 40) {
      val dims = 1 + rnd.nextInt(4)
      val dirs = Seq.fill(dims)(Seq(Min, Max, Diff)(rnd.nextInt(3)))
      // ensure at least one MIN/MAX so dominance exists
      val dirs2 = if (dirs.forall(_ == Diff)) dirs.updated(0, Min) else dirs
      val c = checker(dirs2)
      val data = randomRows(rnd, 5 + rnd.nextInt(80), dims, 1 + rnd.nextInt(6))
      val got = SkylineAlgorithms.bnl(data.iterator, c, distinct = false).map(_._1).toSet
      assert(got == definitional(data, c), s"trial $trial dirs=$dirs2")
    }
  }

  test("bnl result is independent of input order (randomized)") {
    val rnd = new Random(11)
    val c = checker(Seq(Min, Max, Min))
    val data = randomRows(rnd, 60, 3, 5)
    val a = SkylineAlgorithms.bnl(data.iterator, c, distinct = false).map(_._1).toSet
    val b = SkylineAlgorithms.bnl(rnd.shuffle(data).iterator, c, distinct = false).map(_._1).toSet
    assert(a == b)
  }

  test("bnl is idempotent: skyline of a skyline is itself") {
    val rnd = new Random(12)
    val c = checker(Seq(Min, Max))
    val data = randomRows(rnd, 70, 2, 8)
    val once = SkylineAlgorithms.bnl(data.iterator, c, distinct = false)
    val twice = SkylineAlgorithms.bnl(once.iterator, c, distinct = false)
    assert(once.map(_._1).toSet == twice.map(_._1).toSet)
  }

  test("bnl: local-then-global equals direct global (distribution safety)") {
    val rnd = new Random(13)
    val c = checker(Seq(Min, Min, Max))
    val data = randomRows(rnd, 90, 3, 5)
    val direct = SkylineAlgorithms.bnl(data.iterator, c, distinct = false).map(_._1).toSet
    for (parts <- Seq(2, 3, 7)) {
      val local = data.grouped((data.size + parts - 1) / parts)
        .flatMap(g => SkylineAlgorithms.bnl(g.iterator, c, distinct = false)).toSeq
      val global = SkylineAlgorithms.bnl(local.iterator, c, distinct = false).map(_._1).toSet
      assert(global == direct, s"parts=$parts")
    }
  }

  // ---- all-pairs with deferred deletion (incomplete) -------------------

  test("allPairsDeferred: paper counterexample — cycle yields empty skyline") {
    val c = checker(Seq(Min, Min, Min), incomplete = true)
    val data = rows(Seq(Seq(1, null, 10), Seq(3, 2, null), Seq(null, 5, 3)))
    val out = SkylineAlgorithms.allPairsDeferred(data.toIndexedSeq, c, distinct = false)
    assert(out.isEmpty, "every tuple in the cycle is dominated (Appendix A)")
  }

  test("allPairsDeferred: dominated tuple still eliminates its victims") {
    // b dominated by a; b dominates c; c and a incomparable — skyline = {a}
    val c = checker(Seq(Min, Min), incomplete = true)
    val a = Seq(1, null)
    val b = Seq[Any](2, 5)
    val cc = Seq(null, 6)
    val out = SkylineAlgorithms.allPairsDeferred(rows(Seq(a, b, cc)).toIndexedSeq, c, distinct = false)
    assert(out.map(_._1) == Seq(0))
  }

  test("allPairsDeferred matches definitional incomplete skyline (randomized)") {
    val rnd = new Random(14)
    for (trial <- 1 to 40) {
      val dims = 1 + rnd.nextInt(4)
      val dirs0 = Seq.fill(dims)(Seq(Min, Max, Diff)(rnd.nextInt(3)))
      val dirs = if (dirs0.forall(_ == Diff)) dirs0.updated(0, Max) else dirs0
      val c = checker(dirs, incomplete = true)
      val data = randomRows(rnd, 5 + rnd.nextInt(60), dims, 1 + rnd.nextInt(5), nullFrac = 0.3)
      val got = SkylineAlgorithms.allPairsDeferred(data.toIndexedSeq, c, distinct = false)
        .map(_._1).toSet
      assert(got == definitional(data, c), s"trial $trial dirs=$dirs")
    }
  }

  test("allPairsDeferred on complete data equals bnl") {
    val rnd = new Random(15)
    val ci = checker(Seq(Min, Max), incomplete = true)
    val cc = checker(Seq(Min, Max), incomplete = false)
    val data = randomRows(rnd, 80, 2, 6)
    val a = SkylineAlgorithms.allPairsDeferred(data.toIndexedSeq, ci, distinct = false).map(_._1).toSet
    val b = SkylineAlgorithms.bnl(data.iterator, cc, distinct = false).map(_._1).toSet
    assert(a == b)
  }

  test("allPairsDeferred: DISTINCT keeps one per combination") {
    val c = checker(Seq(Min), incomplete = true)
    val out = SkylineAlgorithms.allPairsDeferred(
      rows(Seq(Seq(1), Seq(1), Seq(1))).toIndexedSeq, c, distinct = true)
    assert(out.size == 1)
  }

  // ---- bitmap-grouped local skyline (incomplete) -----------------------

  test("bnlByNullBitmap groups by exact bitmap") {
    val c = checker(Seq(Min, Min), incomplete = true)
    // (1,null) and (2,null) same bitmap → comparable → (2,null) eliminated.
    // (2,1) different bitmap → untouched locally even though (1,null) beats it globally.
    val data = rows(Seq(Seq(1, null), Seq(2, null), Seq(2, 1)))
    val out = SkylineAlgorithms.bnlByNullBitmap(data.iterator, c, distinct = false).toSeq
    assert(out.map(_._1).toSet == Set(0, 2))
  }

  test("union of bitmap-local skylines is sufficient for the global (Lemma 5.1, randomized)") {
    val rnd = new Random(16)
    for (trial <- 1 to 30) {
      val dims = 2 + rnd.nextInt(3)
      val dirs = Seq.fill(dims)(if (rnd.nextBoolean()) Min else Max)
      val c = checker(dirs, incomplete = true)
      val data = randomRows(rnd, 40 + rnd.nextInt(60), dims, 4, nullFrac = 0.35)
      val expected = definitional(data, c)
      // partition arbitrarily (hash of bitmap), local per-bitmap BNL, then
      // the flag-based global pass over the union
      val localUnion = data.groupBy(r => c.nullBitmap(r._2).hashCode % 3)
        .values.flatMap(g => SkylineAlgorithms.bnlByNullBitmap(g.iterator, c, distinct = false))
        .toIndexedSeq
      val global = SkylineAlgorithms.allPairsDeferred(localUnion, c, distinct = false)
        .map(_._1).toSet
      assert(global == expected, s"trial $trial dirs=$dirs")
    }
  }

  test("bnlByNullBitmap on complete data equals plain bnl (single bitmap group)") {
    val rnd = new Random(17)
    val c = checker(Seq(Min, Max), incomplete = true)
    val data = randomRows(rnd, 50, 2, 5)
    val a = SkylineAlgorithms.bnlByNullBitmap(data.iterator, c, distinct = false).map(_._1).toSet
    val b = SkylineAlgorithms.bnl(data.iterator, c, distinct = false).map(_._1).toSet
    assert(a == b)
  }

  test("33 dimensions: null bitmaps of dimensions 0 and 32 do not alias (Appendix A cycle)") {
    val c = checker(Seq.fill(33)(Min), incomplete = true)
    def t(d0: Any, d1: Any, d32: Any): Array[Any] = Array[Any](d0, d1) ++ Array.fill[Any](30)(0) :+ d32
    val data = Seq(t(1, null, 10), t(3, 2, null), t(null, 5, 3)).zipWithIndex.map(_.swap)
    assert(c.nullBitmap(data(1)._2) != c.nullBitmap(data(2)._2))
    val local = SkylineAlgorithms.bnlByNullBitmap(data.iterator, c, distinct = false).toIndexedSeq
    assert(local.size == 3, "b and c sit in different bitmap groups")
    assert(SkylineAlgorithms.allPairsDeferred(local, c, distinct = false).isEmpty)
  }

  test("the checker rejects more than 64 dimensions") {
    val err = intercept[IllegalArgumentException](checker(Seq.fill(65)(Min)))
    assert(err.getMessage.contains("at most 64"))
  }

  // ---- the kernel table, randomized ------------------------------------

  private type Kernel =
    (Iterator[(Int, Array[Any])], DominanceChecker, Boolean) => Seq[(Int, Array[Any])]

  private val bnl: Kernel = (r, c, d) => SkylineAlgorithms.bnl(r, c, d).toSeq
  private val bnlByNullBitmap: Kernel = (r, c, d) => SkylineAlgorithms.bnlByNullBitmap(r, c, d).toSeq
  private val allPairsDeferred: Kernel =
    (r, c, d) => SkylineAlgorithms.allPairsDeferred(r.toIndexedSeq, c, d).toSeq
  private val extreme: Kernel = (r, c, _) => SkylineAlgorithms.extreme(r, c).toSeq

  /** The rows of `SkylineExec`'s kernel table: (case, incomplete, local, global). */
  private def kernelTable(singleDim: Boolean): Seq[(String, Boolean, Kernel, Kernel)] =
    Seq(("complete", false, bnl, bnl),
        ("incomplete", true, bnlByNullBitmap, allPairsDeferred)) ++
      (if (singleDim) Seq(("extreme complete", false, extreme, extreme),
                          ("extreme incomplete", true, extreme, extreme))
       else Nil)

  private val inputs: Gen[Input] = for {
    d        <- Gen.choose(1, 8)
    dirs     <- Gen.listOfN(d, Gen.oneOf(Min, Max, Diff))
    n        <- Gen.oneOf(Gen.const(0), Gen.choose(1, 40))
    domain   <- Gen.choose(1, 5)
    nulls    <- Gen.oneOf(0, 2, 8)
    value     = Gen.frequency(nulls -> Gen.const(null), 10 -> Gen.choose(0, domain - 1).map(Int.box))
    data     <- Gen.listOfN(n, Gen.listOfN(d, value))
    distinct <- Gen.oneOf(false, true)
    parts    <- Gen.choose(1, 5)
    partOf   <- Gen.listOfN(n, Gen.choose(0, parts - 1))
  } yield Input(dirs, data, distinct, partOf)

  test("every kernel-table row, local per random partition then global, equals BruteForce") {
    val prop = Prop.forAllNoShrink(inputs) { in =>
      val tagged = in.data.zipWithIndex.map { case (v, i) => (i, v.toArray[Any]) }
      val parts = tagged.zip(in.partOf).groupBy(_._2).values.map(_.map(_._1)).toSeq
      val dims = in.dirs.zipWithIndex.map { case (dir, i) => (i + 1, dir) }
      val asRows = in.data.zipWithIndex.map { case (v, i) => Row.fromSeq(i +: v) }
      val singleDim = !in.distinct && in.dirs.size == 1 && in.dirs.head != Diff
      Prop.all(kernelTable(singleDim).map { case (name, incomplete, local, global) =>
        val c = checker(in.dirs, incomplete)
        val got = global(parts.iterator.flatMap(p => local(p.iterator, c, in.distinct)), c, in.distinct)
        val expected = BruteForce.skyline(asRows, dims, incomplete, in.distinct)
        val ok =
          if (!in.distinct) got.map(_._1).sorted == expected.map(_.getInt(0)).sorted
          else {
            // DISTINCT keeps an arbitrary representative per combination
            val keys = got.map(_._2.toSeq)
            keys.size == expected.size && keys.toSet == expected.map(r => dims.map(d => r.get(d._1))).toSet
          }
        ok :| s"$name: got ${got.map(_._1).sorted}, expected ${expected.map(_.getInt(0)).sorted}"
      }: _*)
    }
    val result = Test.check(
      Test.Parameters.default.withMinSuccessfulTests(1000).withInitialSeed(Seed(20230327L)), prop)
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
  }
}

object SkylineAlgorithmsSpec {

  /** A random kernel input: rows of dimension values, each with its partition. */
  private final case class Input(
      dirs: Seq[Direction], data: Seq[Seq[Any]], distinct: Boolean, partOf: Seq[Int])
}
