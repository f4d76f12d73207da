package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables
import repro.core.SkylineExtensions

/** spark-submit entrypoints — one per reproduced evaluation table.
  *
  * {{{
  *   spark-submit --class repro.jobs.Table3 target/scala-2.13/repro_2.13-*.jar
  * }}}
  *
  * Each job builds its own session with the skyline extensions installed
  * (the same injection a cluster deployment would configure via
  * `--conf spark.sql.extensions=repro.core.SkylineExtensions`), runs the
  * table's benchmark grid, and prints the paper-style result table.
  */
object JobSession {
  def create(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.ui.enabled", "false")
      .withExtensions(new SkylineExtensions)
      .getOrCreate()

  def run(name: String)(body: SparkSession => Unit): Unit = {
    val spark = create(name)
    try body(spark) finally spark.stop()
  }
}

object Table3  { def main(args: Array[String]): Unit = JobSession.run("skyline-table3")(s => Tables.table3(s).report("table3.md")) }
object Table4  { def main(args: Array[String]): Unit = JobSession.run("skyline-table4")(s => Tables.table4(s).report("table4.md")) }
object Table5  { def main(args: Array[String]): Unit = JobSession.run("skyline-table5")(s => Tables.table5(s).report("table5.md")) }
object Table6  { def main(args: Array[String]): Unit = JobSession.run("skyline-table6")(s => Tables.table6(s).report("table6.md")) }
object Table7  { def main(args: Array[String]): Unit = JobSession.run("skyline-table7")(s => Tables.table7(s).report("table7.md")) }
object Table8  { def main(args: Array[String]): Unit = JobSession.run("skyline-table8")(s => Tables.table8(s).report("table8.md")) }
object Table9  { def main(args: Array[String]): Unit = JobSession.run("skyline-table9")(s => Tables.table9(s).report("table9.md")) }
object Table10 { def main(args: Array[String]): Unit = JobSession.run("skyline-table10")(s => Tables.table10(s).report("table10.md")) }
object Table11 { def main(args: Array[String]): Unit = JobSession.run("skyline-table11")(s => Tables.table11(s).report("table11.md")) }
object Table12 { def main(args: Array[String]): Unit = JobSession.run("skyline-table12")(s => Tables.table12(s).report("table12.md")) }

/** Appendix E complex-query experiment (both variants). */
object MusicBrainz {
  def main(args: Array[String]): Unit = JobSession.run("skyline-musicbrainz") { s =>
    Tables.musicBrainz(s, incomplete = false).report("appendixE_complete.md")
    Tables.musicBrainz(s, incomplete = true).report("appendixE_incomplete.md")
  }
}

/** All tables in sequence (the full evaluation). */
object AllTables {
  def main(args: Array[String]): Unit = JobSession.run("skyline-all-tables") { s =>
    Tables.table3(s).report("table3.md");  Tables.table4(s).report("table4.md")
    Tables.table5(s).report("table5.md");  Tables.table6(s).report("table6.md")
    Tables.table7(s).report("table7.md");  Tables.table8(s).report("table8.md")
    Tables.table9(s).report("table9.md");  Tables.table10(s).report("table10.md")
    Tables.table11(s).report("table11.md"); Tables.table12(s).report("table12.md")
    Tables.musicBrainz(s, incomplete = false).report("appendixE_complete.md")
    Tables.musicBrainz(s, incomplete = true).report("appendixE_incomplete.md")
  }
}
