package repro.bench

import repro.SparkSpec
import BenchUtil.Cell

/** The evaluation: one test per entry of [[Tables.all]].
  *
  * The benches reproduce the paper's result tables (Appendix D); numbers go
  * to stdout and bench/results/, and are transcribed into EXPERIMENTS.md.
  * Assertions stay qualitative — wall-clock ratios on a laptop jitter — but
  * the load-bearing *shape* facts from the paper are checked where they are
  * robust (each entry's `shape`).
  */
class TableBenches extends SparkSpec {

  for (table <- Tables.all) test(table.name) {
    val result = table.run(spark)
    result.report(s"${table.id}.md")
    assert(result.rows.nonEmpty && result.colLabels.nonEmpty)
    result.rows.foreach { case (algo, cells) =>
      assert(!cells.exists(_.isInstanceOf[Cell.Failed]), s"$algo failed in a cell")
      assert(cells.exists(_.seconds.isDefined), s"$algo timed out everywhere")
    }
    table.assertShape(result)
  }
}
