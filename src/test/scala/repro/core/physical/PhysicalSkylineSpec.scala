package repro.core.physical

import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.functions.lit
import repro.SparkSpec
import repro.core.{Direction, SkylineConf, TestUtil}
import repro.reference.BruteForce
import repro.core.api._
import repro.data.SkylineData

/** Execution tests for the skyline physical operators: every forced
  * algorithm against the definitional brute-force oracle, on complete and
  * incomplete data, plus plan-shape assertions (Listing 8).
  */
class PhysicalSkylineSpec extends SparkSpec {

  import Direction._

  private def nodes(df: org.apache.spark.sql.DataFrame): Seq[SparkPlan] =
    TestUtil.executedNodes(df)

  private def steps(df: org.apache.spark.sql.DataFrame): Seq[String] =
    TestUtil.skylineSteps(nodes(df))

  private def airbnbC = SkylineData.airbnb(spark, 2000, nullFraction = 0.0)
  private def airbnbI = SkylineData.airbnb(spark, 2000, nullFraction = 0.15)
  private val dims6 = SkylineData.airbnbDims
  private val dims3 = SkylineData.airbnbDims.take(3)
  private val dims2 = SkylineData.airbnbDims.take(2)

  // ---- correctness: every algorithm vs. brute force --------------------

  for (algo <- Seq("auto", "distributed-complete", "non-distributed-complete",
                   "distributed-incomplete")) {
    test(s"$algo matches brute force on complete Airbnb data, 2–6 dims") {
      for (d <- Seq(dims2, dims3, dims6)) {
        TestUtil.assertMatchesBrute(airbnbC, d, algo,
          incomplete = algo == "distributed-incomplete")
      }
    }
  }

  for (algo <- Seq("auto", "distributed-incomplete")) {
    test(s"$algo matches brute force on incomplete Airbnb data (nulls)") {
      // use dimension sets that include the null-bearing trailing columns
      for (d <- Seq(SkylineData.airbnbDims.drop(4), SkylineData.airbnbDims.drop(2))) {
        TestUtil.assertMatchesBrute(airbnbI, d, algo, incomplete = true)
      }
    }
  }

  test("store_sales: all algorithms agree with brute force (3 dims)") {
    val df = SkylineData.storeSales(spark, 1500)
    for (algo <- Seq("distributed-complete", "non-distributed-complete",
                     "distributed-incomplete")) {
      TestUtil.assertMatchesBrute(df, SkylineData.storeSalesDims.take(3), algo,
        incomplete = algo == "distributed-incomplete")
    }
  }

  test("store_sales incomplete: distributed-incomplete matches brute force") {
    val df = SkylineData.storeSales(spark, 1500, nullFraction = 0.2)
    TestUtil.assertMatchesBrute(df, SkylineData.storeSalesDims.drop(2),
      "distributed-incomplete", incomplete = true)
  }

  // ---- DISTINCT --------------------------------------------------------

  test("DISTINCT keeps one tuple per dimension combination (complete)") {
    import spark.implicits._
    // (9,4) is incomparable with (10,5): cheaper but lower-rated
    val df = Seq((1, 10, 5), (2, 10, 5), (3, 10, 5), (4, 9, 4))
      .toDF("id", "price", "rating")
    val dims = Seq("price" -> Min, "rating" -> Max)
    for (algo <- Seq("distributed-complete", "non-distributed-complete")) {
      TestUtil.assertMatchesBrute(df, dims, algo, incomplete = false, distinct = true)
      val n = TestUtil.skylineWith(df, dims, algo, distinct = true).rows.size
      assert(n == 2, s"$algo: one representative per combination expected")
    }
  }

  test("DISTINCT on incomplete data") {
    import spark.implicits._
    val df = Seq(
      (1, Some(10), Some(5)), (2, Some(10), Some(5)),
      (3, None, Some(7)), (4, None, Some(7)),
    ).toDF("id", "price", "rating")
    val dims = Seq("price" -> Min, "rating" -> Max)
    TestUtil.assertMatchesBrute(df, dims, "distributed-incomplete",
      incomplete = true, distinct = true)
  }

  // ---- incomplete-data pitfalls (§3, Appendix A) -----------------------

  test("paper cycle: skyline of {a,b,c} with cyclic dominance is empty") {
    import spark.implicits._
    val df = Seq(
      (Option(1), Option.empty[Int], Option(10)),
      (Option(3), Option(2), Option.empty[Int]),
      (Option.empty[Int], Option(5), Option(3)),
    ).toDF("d1", "d2", "d3")
    val dims = Seq("d1" -> Min, "d2" -> Min, "d3" -> Min)
    assert(TestUtil.skylineWith(df, dims, "distributed-incomplete").rows.isEmpty)
    assert(TestUtil.skylineWith(df, dims, "auto").rows.isEmpty)
  }

  test("auto mode picks the incomplete algorithm for nullable dimensions") {
    assert(steps(airbnbI.skyline(smin("price"), smax("accommodates"))) ==
      Seq("global allPairsDeferred", "local bnlByNullBitmap"))
  }

  test("auto mode picks the complete algorithm for non-nullable dimensions") {
    assert(steps(airbnbC.skyline(smin("price"), smax("accommodates"))) ==
      Seq("global bnl", "local bnl"))
  }

  test("COMPLETE keyword forces the complete algorithm on nullable schema") {
    assert(steps(airbnbI.na.drop().skylineComplete(smin("price"), smax("accommodates"))) ==
      Seq("global bnl", "local bnl"))
  }

  test("COMPLETE on actually-complete-but-nullable data is correct") {
    val df = airbnbI.na.drop("any", SkylineData.airbnbDims.map(_._1)).cache()
    try {
      val got = df.skylineComplete(
        smin("price"), smax("accommodates"), smax("bedrooms")).collect().toSeq
      val exp = repro.reference.BruteForce.skyline(
        df.collect().toSeq, TestUtil.dimIndices(df, dims3), incomplete = false)
      TestUtil.assertSameRows(got, exp)
    } finally { df.unpersist(); () }
  }

  // ---- plan shapes (Listing 8) -----------------------------------------

  test("distributed-complete plans local + global pair") {
    val run = TestUtil.skylineWith(airbnbC, dims3, "distributed-complete")
    val global = run.nodes.collectFirst { case g: SkylineExec if g.step == SkylineStep.Global => g }
    assert(global.nonEmpty)
    assert(TestUtil.skylineSteps(TestUtil.allPhysicalNodes(global.get)) ==
      Seq("global bnl", "local bnl"), "local skyline must feed the global one")
  }

  test("non-distributed-complete plans global only") {
    val ns = TestUtil.skylineWith(airbnbC, dims3, "non-distributed-complete").nodes
    assert(TestUtil.skylineSteps(ns) == Seq("global bnl"))
  }

  test("distributed-incomplete plans bitmap local + deferred global pair") {
    val ns = TestUtil.skylineWith(airbnbI, dims3, "distributed-incomplete").nodes
    assert(TestUtil.skylineSteps(ns) == Seq("global allPairsDeferred", "local bnlByNullBitmap"))
  }

  test("local skyline preserves the number of input partitions") {
    val df = airbnbC.repartition(7)
    val run = TestUtil.skylineWith(df, dims3, "distributed-complete")
    val local = run.nodes.collectFirst { case l: SkylineExec if l.step == SkylineStep.Local => l }.get
    assert(local.execute().getNumPartitions == 7)
  }

  test("skyline output schema equals input schema") {
    val out = airbnbC.skyline(smin("price"), smax("beds"))
    assert(out.schema == airbnbC.schema)
  }

  test("empty input yields empty skyline in every algorithm") {
    val empty = airbnbC.where("price < 0")
    for (algo <- Seq("distributed-complete", "non-distributed-complete",
                     "distributed-incomplete")) {
      assert(TestUtil.skylineWith(empty, dims2, algo).rows.isEmpty, algo)
    }
  }

  test("single row survives in every algorithm") {
    val one = airbnbC.limit(1)
    for (algo <- Seq("distributed-complete", "non-distributed-complete",
                     "distributed-incomplete")) {
      assert(TestUtil.skylineWith(one, dims6, algo).rows.size == 1, algo)
    }
  }

  test("all-identical rows: all survive without DISTINCT, one with") {
    import spark.implicits._
    val df = Seq.fill(20)((5, 5)).toDF("a", "b")
    val dims = Seq("a" -> Min, "b" -> Max)
    assert(TestUtil.skylineWith(df, dims, "distributed-complete").rows.size == 20)
    assert(TestUtil.skylineWith(df, dims, "distributed-complete", distinct = true).rows.size == 1)
  }

  test("string dimension skyline") {
    import spark.implicits._
    val df = Seq(("a", 1), ("b", 1), ("a", 2)).toDF("s", "v")
    val out = TestUtil.skylineWith(df, Seq("s" -> Min, "v" -> Max),
      "distributed-complete").rows.map(r => (r.getString(0), r.getInt(1))).toSet
    assert(out == Set(("a", 2)))
  }

  test("date dimension skyline") {
    import spark.implicits._
    import java.sql.Date
    val df = Seq(
      (Date.valueOf("2020-01-01"), 1),
      (Date.valueOf("2021-01-01"), 2),
      (Date.valueOf("2020-06-01"), 2),
    ).toDF("d", "v")
    TestUtil.assertMatchesBrute(df, Seq("d" -> Min, "v" -> Max),
      "distributed-complete", incomplete = false)
  }

  test("expression dimension (arithmetic over columns)") {
    import spark.implicits._
    val df = Seq((10, 2), (6, 8), (4, 4)).toDF("a", "b")
    val out = df.skyline(smin(df("a") + df("b")))
    assert(out.collect().map(r => (r.getInt(0), r.getInt(1))).toSet == Set((4, 4)))
  }

  test("forced incomplete algorithm on complete data is correct (slow path)") {
    TestUtil.assertMatchesBrute(airbnbC, dims3, "distributed-incomplete",
      incomplete = true)
  }

  test("many partitions vs one partition give the same skyline") {
    val base = SkylineData.airbnb(spark, 3000)
    val a = TestUtil.skylineWith(base.repartition(16), dims3, "distributed-complete")
    val b = TestUtil.skylineWith(base.coalesce(1), dims3, "distributed-complete")
    TestUtil.assertSameRows(a.rows, b.rows)
  }

  // ---- EXPLAIN: every row of the kernel table -------------------------

  test("EXPLAIN names the step and kernel of every skyline node") {
    val firstDim = "[price#"
    val rows = Seq(
      ("distributed-complete", airbnbC, dims3, Seq("local bnl", "global bnl")),
      ("non-distributed-complete", airbnbC, dims3, Seq("global bnl")),
      ("distributed-incomplete", airbnbI, dims3,
        Seq("local bnlByNullBitmap", "global allPairsDeferred")),
      ("auto", airbnbC, dims2.take(1), Seq("local extreme", "global extreme")),
    )
    for ((algo, df, d, expected) <- rows) {
      val cols = d.map { case (n, dir) => SkylineColumn(df(n), dir) }
      TestUtil.withAlgorithm(spark, algo) {
        val out = df.skylineOf(distinct = false, complete = false, cols)
        out.collect()
        val plan = out.queryExecution.executedPlan.toString
        for (stepKernel <- expected)
          assert(plan.contains(s"Skyline $stepKernel $firstDim"), s"$algo: no '$stepKernel' in\n$plan")
      }
    }
    val distinct = airbnbC.skylineDistinct(smin("price"), smax("beds"))
    assert(distinct.queryExecution.executedPlan.toString
      .contains(s"Skyline global bnl DISTINCT $firstDim"))
  }

  // ---- configuration and limits ----------------------------------------

  test("an unknown algorithm value fails and lists the allowed values") {
    val err = intercept[Exception] {
      TestUtil.skylineWith(airbnbC, dims2, "distributed-compete")
    }
    val msg = Iterator.iterate[Throwable](err)(_.getCause).takeWhile(_ != null)
      .map(_.getMessage).mkString("\n")
    assert(msg.contains("distributed-compete"), msg)
    for (allowed <- SkylineConf.Algorithms) assert(msg.contains(allowed), msg)
  }

  test("a bad algorithm value fails at SET, and SET -v documents the conf") {
    val err = intercept[IllegalArgumentException] {
      spark.sql(s"SET ${SkylineConf.Algorithm}=bogus")
    }
    assert(err.getMessage.contains("bogus"), err.getMessage)
    assert(SkylineConf.algorithm(spark) == "auto")
    val documented = spark.sql("SET -v").collect()
      .filter(_.getString(0) == SkylineConf.Algorithm)
    assert(documented.map(_.getString(2)).exists(_.contains("Listing 8")),
      documented.mkString)
  }

  test("33 dimensions: the Appendix A cycle on dims 0, 1 and 32 matches brute force") {
    import spark.implicits._
    // a=(1,*,10), b=(3,2,*), c=(*,5,3) on dimensions 0, 1 and 32; the 30
    // dimensions in between tie. The bitmaps of b (bit 32) and c (bit 0)
    // alias in a 32-bit bitmap, and one partition then lets b evict c.
    val cycle = Seq(
      (Option(1), Option.empty[Int], Option(10)),
      (Option(3), Option(2), Option.empty[Int]),
      (Option.empty[Int], Option(5), Option(3)))
    val df = cycle.toDF("d0", "d1", "d32").select(
      ($"d0" +: $"d1" +: (2 to 31).map(i => lit(0).as(s"d$i")) :+
        $"d32"): _*)
    val dims = df.columns.toSeq.map(_ -> Min)
    assert(BruteForce.skyline(df.collect().toSeq, TestUtil.dimIndices(df, dims),
      incomplete = true).isEmpty)
    val previous = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "1")
    try {
      for (algo <- Seq("auto", "distributed-incomplete"))
        TestUtil.assertMatchesBrute(df, dims, algo, incomplete = true)
    } finally spark.conf.set("spark.sql.shuffle.partitions", previous)
  }

  test("more than 64 dimensions are rejected with the limit in the message") {
    val df = spark.range(1).select((0 until 65).map(i => lit(i).as(s"c$i")): _*)
    val err = intercept[IllegalArgumentException] {
      df.skyline(df.columns.toSeq.map(c => smin(c)): _*)
    }
    assert(err.getMessage.contains("at most 64 dimensions"), err.getMessage)
  }
}
