package repro.perfbench

import scala.util.Random

import org.apache.spark.sql.Row
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Direction
import repro.reference.BruteForce

/** The benchmark's expected result must be exactly the definitional
  * brute-force skyline, on inputs with ties, nulls and DIFF dimensions.
  */
class ExpectedSkylineSpec extends AnyFunSuite {

  private def canon(rows: Seq[Row]): Seq[String] = rows.map(_.mkString("|")).sorted

  private def randomCase(rnd: Random, incomplete: Boolean): (IndexedSeq[Row], Seq[(Int, Direction)]) = {
    val arity = 1 + rnd.nextInt(5)
    val dirs = Seq.fill(arity)(Direction.all(rnd.nextInt(3)))
    val dims = (if (dirs.forall(_ == Direction.Diff)) Direction.Min +: dirs.tail else dirs)
      .zipWithIndex.map { case (d, i) => (i + 1) -> d }
    val domain = 1 + rnd.nextInt(6) // small domains: many ties
    val nullRate = if (incomplete) rnd.nextDouble() * 0.4 else 0.0
    val rows = IndexedSeq.tabulate(rnd.nextInt(120)) { id =>
      Row.fromSeq(id +: dims.map { _ =>
        if (rnd.nextDouble() < nullRate) null
        else if (rnd.nextBoolean()) rnd.nextInt(domain) else rnd.nextInt(domain).toDouble / 2
      })
    }
    (rows, dims)
  }

  for (incomplete <- Seq(false, true)) {
    test(s"matches BruteForce on random inputs (incomplete = $incomplete)") {
      val rnd = new Random(if (incomplete) 11 else 5)
      for (_ <- 1 to 400) {
        val (rows, dims) = randomCase(rnd, incomplete)
        assert(canon(ExpectedSkyline.skyline(rows, dims, incomplete)) ==
          canon(BruteForce.skyline(rows, dims, incomplete)), s"dims $dims rows $rows")
      }
    }
  }

  test("cyclic incomplete dominance (Appendix A) leaves an empty skyline") {
    val rows = IndexedSeq(Row(1, null, 10), Row(3, 2, null), Row(null, 5, 3))
    val dims = Seq(0 -> Direction.Min, 1 -> Direction.Min, 2 -> Direction.Min)
    assert(ExpectedSkyline.skyline(rows, dims, incomplete = true).isEmpty)
  }
}
