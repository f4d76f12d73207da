package repro.bench

import repro.SparkSpec
import repro.core.SkylineConf
import repro.data.SkylineData
import BenchUtil.{BenchTable, Cell}
import Harness.Column

/** The benchmark harness on tiny inputs: grid layout, the reference row,
  * cardinality agreement, failed cells and the table registry. Nothing here
  * calls `report`, which writes into bench/results/.
  */
class HarnessSpec extends SparkSpec {

  private val Confs = Seq(
    SkylineConf.Algorithm, "spark.sql.shuffle.partitions", "spark.sql.autoBroadcastJoinThreshold")

  /** Runs a two-column grid (first one, then two dimensions) and checks
    * what every grid must hold.
    */
  private def grid(data: org.apache.spark.sql.DataFrame, incomplete: Boolean): BenchTable = {
    val dims = SkylineData.storeSalesDims.take(2)
    val before = Confs.map(spark.conf.getOption)
    val t = Harness.runGrid(spark, "tiny grid",
      Seq(Column("1", data, dims.take(1), 2), Column("2", data, dims, 3)), incomplete, 60)
    assert(Confs.map(spark.conf.getOption) == before, "runGrid left a conf changed")
    assert(t.colLabels == Seq("1", "2"))
    assert(t.rows.head._1 == Harness.ReferenceAlgo)
    t.rows.foreach { case (algo, cells) =>
      assert(cells.forall(_.isInstanceOf[Cell.Finished]), s"$algo: $cells")
    }
    for (i <- t.colLabels.indices)
      assert(t.rows.map(_._2(i).rows).distinct.size == 1, s"column $i: ${t.rows}")
    t
  }

  test("a complete grid runs the reference and the three forced algorithms") {
    val t = grid(SkylineData.storeSales(spark, 300), incomplete = false)
    assert(t.rows.map(_._1) == Seq("reference", "non-distributed complete",
      "distributed complete", "distributed incomplete"))
  }

  test("an incomplete grid runs the null-aware reference and the incomplete algorithm") {
    val t = grid(SkylineData.storeSales(spark, 300, nullFraction = 0.15), incomplete = true)
    assert(t.rows.map(_._1) == Seq("reference", "distributed incomplete"))
  }

  test("a cell whose body throws is a failure, not a timeout") {
    val cell = BenchUtil.timed(spark, 60) { throw new IllegalStateException("boom") }
    assert(cell match {
      case Cell.Failed(e) => e.getMessage == "boom"
      case _              => false
    }, cell)
    val table = BenchTable("t", Seq("1"), Seq(
      Harness.ReferenceAlgo -> Seq(Cell.Finished(2.0, 1)), "x" -> Seq(cell)))
    assert(table.render.contains("| x | fail |"), table.render)
  }

  test("the registry lists every reproduced table once, in evaluation order") {
    val ids = Tables.all.map(_.id)
    assert(ids == (3 to 12).map(i => s"table$i") ++
      Seq("appendixE_complete", "appendixE_incomplete"))
    assert(Tables.all.map(_.name).distinct.size == ids.size)
    assert(Tables.select(Nil) == Tables.all)
  }

  test("an unknown table id is rejected with the valid ids") {
    val e = intercept[IllegalArgumentException](Tables.main(Array("table99")))
    assert(e.getMessage.contains("table99"))
    Tables.all.foreach(t => assert(e.getMessage.contains(t.id)))
  }
}
