package repro.core.parser

import org.apache.spark.sql.catalyst.plans.logical.{GlobalLimit, LogicalPlan, Sort}
import org.apache.spark.sql.Row
import repro.SparkSpec
import repro.core.{Direction, SkylineOperator}

/** Plan-shape tests for the injected parser (§5.1–5.2). */
class SkylineSqlParserSpec extends SparkSpec {

  private def parse(sql: String): LogicalPlan =
    spark.sessionState.sqlParser.parsePlan(sql)

  private def skylineNodes(plan: LogicalPlan): Seq[SkylineOperator] =
    plan.collect { case s: SkylineOperator => s }

  test("skyline query produces exactly one SkylineOperator node") {
    val plan = parse("SELECT * FROM t SKYLINE OF a MIN, b MAX")
    val nodes = skylineNodes(plan)
    assert(nodes.size == 1)
    assert(nodes.head.dimensions.map(_.direction) == Seq(Direction.Min, Direction.Max))
    assert(!nodes.head.distinct && !nodes.head.complete)
  }

  test("skyline node has a single child (unary, §5.2)") {
    val plan = parse("SELECT * FROM t SKYLINE OF a MIN")
    assert(skylineNodes(plan).head.children.size == 1)
  }

  test("DISTINCT and COMPLETE flags reach the logical node") {
    val s = skylineNodes(parse("SELECT * FROM t SKYLINE OF DISTINCT COMPLETE a MIN")).head
    assert(s.distinct && s.complete)
  }

  test("ORDER BY stays above the skyline node") {
    val plan = parse("SELECT * FROM t SKYLINE OF a MIN ORDER BY b")
    assert(plan.isInstanceOf[Sort])
    assert(skylineNodes(plan.asInstanceOf[Sort].child).nonEmpty)
  }

  test("LIMIT stays above the skyline node") {
    val plan = parse("SELECT * FROM t SKYLINE OF a MIN LIMIT 3")
    assert(plan.isInstanceOf[GlobalLimit])
    assert(skylineNodes(plan).size == 1)
  }

  test("ORDER BY + LIMIT both stay above the skyline node") {
    val plan = parse("SELECT * FROM t SKYLINE OF a MIN ORDER BY b LIMIT 3")
    val sorts = plan.collect { case s: Sort => s }
    assert(sorts.nonEmpty)
    assert(skylineNodes(sorts.head.child).nonEmpty)
  }

  test("WITH clause: skyline lands inside the CTE body") {
    val plan = parse("WITH c AS (SELECT 1 AS a) SELECT * FROM c SKYLINE OF a MIN")
    assert(skylineNodes(plan).size == 1)
  }

  test("plain queries produce no skyline node") {
    assert(skylineNodes(parse("SELECT a, b FROM t WHERE a > 1")).isEmpty)
  }

  test("dimension expressions are parsed by Spark's expression parser") {
    val s = skylineNodes(parse("SELECT * FROM t SKYLINE OF a + b MIN, abs(c) MAX")).head
    assert(s.dimensions.size == 2)
    // a + b parses to an Add expression, abs(c) to a function invocation
    assert(s.dimensions.head.child.toString.toLowerCase.contains("+"))
  }

  test("parse errors in the remaining SQL still surface") {
    intercept[Exception] { parse("SELEKT * FROM t SKYLINE OF a MIN") }
  }

  test("malformed skyline clause raises a helpful error") {
    val e = intercept[SkylineParseException] {
      parse("SELECT * FROM t SKYLINE OF a")
    }
    assert(e.getMessage.contains("MIN, MAX or DIFF"))
  }

  test("parseExpression is delegated untouched") {
    val e = spark.sessionState.sqlParser.parseExpression("a + 1")
    assert(e.toString.contains("+"))
  }

  test("parseTableIdentifier is delegated untouched") {
    val id = spark.sessionState.sqlParser.parseTableIdentifier("db.tbl")
    assert(id.table == "tbl")
  }

  test("GROUP BY query with skyline keeps aggregate structure") {
    val plan = parse(
      "SELECT k, sum(v) AS s FROM t GROUP BY k SKYLINE OF s MIN")
    val nodes = skylineNodes(plan)
    assert(nodes.size == 1)
    assert(nodes.head.child.collectFirst {
      case a: org.apache.spark.sql.catalyst.plans.logical.Aggregate => a
    }.nonEmpty)
  }

  test("raw string ending in a backslash: one SkylineOperator through spark.sql") {
    import spark.implicits._
    Seq(3, 1, 2).toDF("a").createOrReplaceTempView("sp_raw")
    val df = spark.sql("SELECT r'C:\\' AS p, a FROM sp_raw SKYLINE OF a MIN")
    assert(skylineNodes(df.queryExecution.logical).size == 1)
    assert(df.collect().toSeq == Seq(Row("C:\\", 1)))
  }

  test("SKYLINE OF in a continued line comment runs as stock Spark would") {
    import spark.implicits._
    Seq(3, 1, 2).toDF("a").createOrReplaceTempView("sp_comment")
    val df = spark.sql("SELECT a FROM sp_comment -- no skyline here \\\nSKYLINE OF a")
    assert(skylineNodes(df.queryExecution.logical).isEmpty)
    assert(df.collect().map(_.getInt(0)).sorted.toSeq == Seq(1, 2, 3))
  }

  test("a parameter marker in WHERE binds in a skyline query like its literal") {
    import spark.implicits._
    Seq((1, 5), (2, 4), (3, 3), (4, 5)).toDF("a", "b").createOrReplaceTempView("sp_param")
    val sql = "SELECT a, b FROM sp_param WHERE a > %s SKYLINE OF a MIN, b MIN"
    val bound = spark.sql(sql.format(":x"), Map("x" -> 1)).collect().toSet
    assert(bound == spark.sql(sql.format("1")).collect().toSet)
    assert(bound == Set(Row(2, 4), Row(3, 3)))
  }
}
