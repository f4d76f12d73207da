package repro.core.parser

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Direction.{Diff, Max, Min}

/** Pure tests of the lexer-level SKYLINE OF clause splitter (Listing 5). */
class SkylineClauseExtractorSpec extends AnyFunSuite {

  private def ex(sql: String) = SkylineClauseExtractor.extract(sql)

  test("query without the keyword passes through untouched") {
    assert(ex("SELECT * FROM t WHERE x > 1").isEmpty)
  }

  test("basic clause with two dimensions") {
    val e = ex("SELECT * FROM hotels SKYLINE OF price MIN, rating MAX").get
    assert(!e.distinct && !e.complete)
    assert(e.items == Seq("price" -> Min, "rating" -> Max))
    assert(e.stripped.trim == "SELECT * FROM hotels")
  }

  test("keywords are case-insensitive") {
    val e = ex("select * from t skyline of a min, b max, c diff").get
    assert(e.items == Seq("a" -> Min, "b" -> Max, "c" -> Diff))
  }

  test("keywords match under a default locale with other case rules (tr)") {
    val saved = java.util.Locale.getDefault
    java.util.Locale.setDefault(java.util.Locale.forLanguageTag("tr"))
    try {
      val e = ex("select * from t skyline of a min, b max").get
      assert(e.items == Seq("a" -> Min, "b" -> Max))
    } finally java.util.Locale.setDefault(saved)
  }

  test("DISTINCT flag") {
    val e = ex("SELECT * FROM t SKYLINE OF DISTINCT a MIN").get
    assert(e.distinct && !e.complete)
  }

  test("COMPLETE flag") {
    val e = ex("SELECT * FROM t SKYLINE OF COMPLETE a MIN").get
    assert(!e.distinct && e.complete)
  }

  test("DISTINCT COMPLETE together") {
    val e = ex("SELECT * FROM t SKYLINE OF DISTINCT COMPLETE a MIN, b MAX").get
    assert(e.distinct && e.complete)
    assert(e.items.size == 2)
  }

  test("clause before ORDER BY keeps the suffix") {
    val e = ex("SELECT * FROM t SKYLINE OF a MIN ORDER BY b DESC").get
    assert(e.items == Seq("a" -> Min))
    assert(e.stripped.replaceAll("\\s+", " ").trim == "SELECT * FROM t ORDER BY b DESC")
  }

  test("clause before LIMIT keeps the suffix") {
    val e = ex("SELECT * FROM t SKYLINE OF a MAX LIMIT 10").get
    assert(e.stripped.replaceAll("\\s+", " ").trim == "SELECT * FROM t LIMIT 10")
  }

  test("clause before ORDER BY ... LIMIT") {
    val e = ex("SELECT * FROM t SKYLINE OF a MAX ORDER BY a LIMIT 5").get
    assert(e.stripped.replaceAll("\\s+", " ").trim == "SELECT * FROM t ORDER BY a LIMIT 5")
  }

  test("expression dimensions with function calls and commas inside parens") {
    val e = ex("SELECT * FROM t SKYLINE OF round(a, 2) MIN, b + c MAX").get
    assert(e.items == Seq("round(a, 2)" -> Min, "b + c" -> Max))
  }

  test("nested function calls in dimensions") {
    val e = ex("SELECT * FROM t SKYLINE OF coalesce(a, least(b, c)) MIN").get
    assert(e.items == Seq("coalesce(a, least(b, c))" -> Min))
  }

  test("aggregate expression dimension") {
    val e = ex("SELECT k, sum(v) AS s FROM t GROUP BY k SKYLINE OF count(1) MAX").get
    assert(e.items == Seq("count(1)" -> Max))
    assert(e.stripped.replaceAll("\\s+", " ").trim ==
      "SELECT k, sum(v) AS s FROM t GROUP BY k")
  }

  test("skyline inside a string literal is ignored") {
    assert(ex("SELECT 'SKYLINE OF x MIN' AS s FROM t").isEmpty)
  }

  test("skyline inside a line comment is ignored") {
    assert(ex("SELECT * FROM t -- SKYLINE OF a MIN\nWHERE x = 1").isEmpty)
  }

  test("skyline inside a block comment is ignored") {
    assert(ex("SELECT * FROM t /* SKYLINE OF a MIN */ WHERE x = 1").isEmpty)
  }

  test("nested block comments are handled") {
    assert(ex("SELECT * FROM t /* outer /* SKYLINE OF a MIN */ still comment */").isEmpty)
  }

  test("skyline inside a subquery (paren depth > 0) is not extracted at top level") {
    assert(ex("SELECT * FROM (SELECT 1 AS a) x WHERE 'SKYLINE' = 'SKYLINE'").isEmpty)
  }

  test("identifier named skyline without OF is not a clause") {
    assert(ex("SELECT skyline FROM t").isEmpty)
    assert(ex("SELECT skyline, x FROM t WHERE skyline > 2").isEmpty)
  }

  test("column named skyline_of is not a clause") {
    assert(ex("SELECT skyline_of FROM t").isEmpty)
  }

  test("clause over a parenthesized subquery relation") {
    val e = ex("SELECT * FROM (SELECT a, b FROM t) sub SKYLINE OF a MIN, b MAX").get
    assert(e.items.size == 2)
    assert(e.stripped.replaceAll("\\s+", " ").trim == "SELECT * FROM (SELECT a, b FROM t) sub")
  }

  test("missing direction keyword is rejected") {
    val err = intercept[SkylineParseException] {
      ex("SELECT * FROM t SKYLINE OF a, b MAX")
    }
    assert(err.getMessage.contains("MIN, MAX or DIFF"))
  }

  test("dangling direction without expression is rejected") {
    intercept[SkylineParseException] {
      ex("SELECT * FROM t SKYLINE OF MIN")
    }
  }

  test("empty dimension between commas is rejected") {
    intercept[SkylineParseException] {
      ex("SELECT * FROM t SKYLINE OF a MIN, , b MAX")
    }
  }

  test("two top-level skyline clauses are rejected") {
    intercept[SkylineParseException] {
      ex("SELECT * FROM t SKYLINE OF a MIN SKYLINE OF b MAX")
    }
  }

  test("whitespace and newlines inside the clause") {
    val e = ex("SELECT * FROM t\n  SKYLINE   OF\n  a   MIN ,\n  b\tMAX\nORDER BY a").get
    assert(e.items == Seq("a" -> Min, "b" -> Max))
  }

  test("comments inside the clause are skipped") {
    val e = ex("SELECT * FROM t SKYLINE OF -- dims\n a MIN, /* x */ b MAX").get
    assert(e.items.map(_._2) == Seq(Min, Max))
  }

  test("backquoted identifiers in dimensions") {
    val e = ex("SELECT * FROM t SKYLINE OF `my col` MIN").get
    assert(e.items == Seq("`my col`" -> Min))
  }

  test("UNION after the clause terminates it") {
    val e = ex("SELECT * FROM t SKYLINE OF a MIN UNION SELECT * FROM u").get
    assert(e.items == Seq("a" -> Min))
    assert(e.stripped.replaceAll("\\s+", " ").contains("UNION SELECT * FROM u"))
  }

  test("qualified column names in dimensions") {
    val e = ex("SELECT * FROM t SKYLINE OF t.a MIN, t.b MAX").get
    assert(e.items == Seq("t.a" -> Min, "t.b" -> Max))
  }

  test("CASE expression as a dimension") {
    val e = ex("SELECT * FROM t SKYLINE OF CASE WHEN a > 0 THEN a ELSE 0 END MIN").get
    assert(e.items == Seq("CASE WHEN a > 0 THEN a ELSE 0 END" -> Min))
  }

  // ---- cases where only Spark's own lexer gets the token boundaries right ----

  test("raw string literal ending in a backslash does not hide the clause") {
    val e = ex("SELECT r'C:\\' AS p, a FROM t SKYLINE OF a MIN").get
    assert(e.items == Seq("a" -> Min))
    assert(e.stripped.trim == "SELECT r'C:\\' AS p, a FROM t")
  }

  test("line comment ending in a backslash continues onto the next line") {
    assert(ex("SELECT a FROM t -- no skyline here \\\nSKYLINE OF a").isEmpty)
  }

  test("trailing semicolon ends the clause and stays in the query") {
    val e = ex("SELECT * FROM t SKYLINE OF a MIN;").get
    assert(e.items == Seq("a" -> Min))
    assert(e.stripped.replaceAll("\\s+", " ").trim == "SELECT * FROM t ;")
  }

  test("characters outside the BMP keep dimension text and the cut exact") {
    val e = ex("SELECT '\uD83D\uDE00' AS e, a FROM t SKYLINE OF a + length('\uD83D\uDE00') MIN").get
    assert(e.items == Seq("a + length('\uD83D\uDE00')" -> Min))
    assert(e.stripped.trim == "SELECT '\uD83D\uDE00' AS e, a FROM t")
  }

  test("error positions are character offsets") {
    val err = intercept[SkylineParseException] {
      ex("SELECT '\uD83D\uDE00' FROM t SKYLINE OF a MIN, , b MAX")
    }
    assert(err.getMessage.contains("position 37"), err.getMessage)
  }
}
