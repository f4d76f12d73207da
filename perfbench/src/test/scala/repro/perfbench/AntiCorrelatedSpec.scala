package repro.perfbench

import org.apache.spark.sql.Row
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Direction
import repro.reference.BruteForce

class AntiCorrelatedSpec extends AnyFunSuite {

  private def skylineFraction(points: Array[Array[Double]]): Double = {
    val rows = points.map(p => Row.fromSeq(p.toSeq)).toSeq
    val dims = points.head.indices.map(_ -> (Direction.Min: Direction))
    BruteForce.skyline(rows, dims, incomplete = false).size.toDouble / rows.size
  }

  test("the same seed gives the same points, another seed other points") {
    val a = AntiCorrelated.points(500, 4, seed = 7)
    val b = AntiCorrelated.points(500, 4, seed = 7)
    val c = AntiCorrelated.points(500, 4, seed = 8)
    assert(a.map(_.toSeq).toSeq == b.map(_.toSeq).toSeq)
    assert(a.map(_.toSeq).toSeq != c.map(_.toSeq).toSeq)
    assert(AntiCorrelated.independentPoints(500, 4, 7).map(_.toSeq).toSeq ==
      AntiCorrelated.independentPoints(500, 4, 7).map(_.toSeq).toSeq)
  }

  test("points lie in the unit cube, near the plane their coordinates sum to") {
    AntiCorrelated.points(2000, 4, seed = 3).foreach { p =>
      assert(p.forall(x => x >= 0.0 && x <= 1.0))
      // the sum is d·v with v within 0.5 ± Spread
      assert(math.abs(p.sum / 4 - 0.5) <= AntiCorrelated.Spread + 1e-9)
    }
  }

  test("the skyline is a far larger share than for independent points") {
    for (seed <- 1L to 3L) {
      val anti = skylineFraction(AntiCorrelated.points(2000, 4, seed))
      val independent = skylineFraction(AntiCorrelated.independentPoints(2000, 4, seed))
      assert(anti > 5 * independent, s"seed $seed: $anti vs independent $independent")
    }
  }
}
