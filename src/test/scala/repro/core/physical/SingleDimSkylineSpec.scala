package repro.core.physical

import repro.SparkSpec
import repro.core.{Direction, TestUtil}
import repro.core.api._
import repro.data.SkylineData

/** The single-dimension MIN/MAX optimization of §5.4: "the Pareto optimum in
  * a single dimension is simply the optimum", realized as the `extreme`
  * kernel in both the local and the global step, O(n).
  */
class SingleDimSkylineSpec extends SparkSpec {

  import Direction._

  private def steps(df: org.apache.spark.sql.DataFrame): Seq[String] =
    TestUtil.skylineSteps(TestUtil.executedNodes(df))

  private val extremeSteps = Seq("global extreme", "local extreme")

  test("1-dim MIN skyline plans the extreme kernel (auto)") {
    val df = SkylineData.airbnb(spark, 500)
    assert(steps(df.skyline(smin("price"))) == extremeSteps)
  }

  test("1-dim optimization also applies in every forced specialized mode (Table 5 dim-1)") {
    val df = SkylineData.airbnb(spark, 500)
    for (algo <- Seq("distributed-complete", "non-distributed-complete",
                     "distributed-incomplete")) {
      val run = TestUtil.skylineWith(df, Seq("price" -> Min), algo)
      assert(TestUtil.skylineSteps(run.nodes) == extremeSteps, algo)
    }
  }

  test("DIFF single dimension does not use the optimization") {
    import spark.implicits._
    val df = Seq((1, 1), (2, 2)).toDF("a", "b")
    assert(!steps(df.skyline(sdiff("a"))).exists(_.endsWith("extreme")))
  }

  test("DISTINCT single dimension does not use the optimization") {
    import spark.implicits._
    val df = Seq((1, 1), (1, 2)).toDF("a", "b")
    assert(!steps(df.skylineDistinct(smin("a"))).exists(_.endsWith("extreme")))
  }

  test("MIN: returns all tuples attaining the minimum") {
    import spark.implicits._
    val df = Seq((1, "x"), (1, "y"), (2, "z"), (3, "w")).toDF("v", "tag")
    val out = df.skyline(smin("v")).collect().map(_.getString(1)).toSet
    assert(out == Set("x", "y"))
  }

  test("MAX: returns all tuples attaining the maximum") {
    import spark.implicits._
    val df = Seq((1, "x"), (5, "y"), (5, "z")).toDF("v", "tag")
    val out = df.skyline(smax("v")).collect().map(_.getString(1)).toSet
    assert(out == Set("y", "z"))
  }

  test("matches brute force on random data (MIN and MAX)") {
    val df = SkylineData.storeSales(spark, 2000).repartition(5)
    for ((c, dir) <- Seq("ss_wholesale_cost" -> Min, "ss_quantity" -> Max);
         algo <- Seq("auto", "distributed-complete", "non-distributed-complete",
                     "distributed-incomplete")) {
      TestUtil.assertMatchesBrute(df, Seq(c -> dir), algo,
        incomplete = algo == "distributed-incomplete")
    }
  }

  test("incomplete mode: null-dimension tuples are vacuously in the skyline") {
    import spark.implicits._
    val df = Seq(Option(3), Option(1), None, Option(1), None)
      .toDF("v")
    val out = df.skyline(smin("v")).collect().map(r =>
      if (r.isNullAt(0)) null else r.getInt(0)).toSeq
    // skyline = both 1s and both nulls; 3 is dominated
    assert(out.count(_ == null) == 2)
    assert(out.count(_ == 1) == 2)
    assert(!out.contains(3))
  }

  test("incomplete mode: all-null column keeps everything") {
    import spark.implicits._
    val df = Seq[Option[Int]](None, None, None).toDF("v")
    assert(df.skyline(smax("v")).count() == 3)
  }

  test("empty input: empty skyline") {
    val df = SkylineData.airbnb(spark, 100).where("price < 0")
    assert(df.skyline(smin("price")).count() == 0)
  }

  test("single-dim on double, string and date types") {
    import spark.implicits._
    assert(Seq(2.5, 1.5, 1.5).toDF("v").skyline(smin("v")).count() == 2)
    assert(Seq("b", "a", "c").toDF("v").skyline(smin("v")).collect()
      .head.getString(0) == "a")
    import java.sql.Date
    val d = Seq(Date.valueOf("2020-01-02"), Date.valueOf("2020-01-01"))
      .toDF("v").skyline(smin("v")).collect().head.getDate(0)
    assert(d == Date.valueOf("2020-01-01"))
  }

  test("1-dim via SQL string also uses the optimized operator") {
    SkylineData.airbnb(spark, 300).createOrReplaceTempView("sd_air")
    val df = spark.sql("SELECT * FROM sd_air SKYLINE OF price MIN")
    assert(steps(df) == extremeSteps)
  }
}
