package repro.core.parser

import java.util.Locale
import org.apache.spark.sql.catalyst.parser.{SqlBaseLexer, SqlTokens}
import repro.core.Direction

/** Raised for malformed SKYLINE OF clauses (missing direction keyword,
  * empty dimension list, multiple clauses, ...).
  */
class SkylineParseException(message: String) extends IllegalArgumentException(message)

/** Splits the `SKYLINE OF` clause (Listing 5 grammar) off a query.
  *
  * The paper extends Spark's ANTLR grammar in-tree; against stock Spark we
  * find a *top-level* clause among the tokens of Spark's own lexer (so quotes,
  * comments and parentheses are read exactly as Spark reads them), cut it
  * out, and hand the remaining plain SQL to Spark's parser. Dimension
  * expressions go to Spark's expression parser. Grammar handled (after
  * HAVING, before ORDER BY / LIMIT / set operations):
  * {{{
  *   SKYLINE OF [DISTINCT] [COMPLETE] expr (MIN|MAX|DIFF) (',' expr (MIN|MAX|DIFF))*
  * }}}
  * Queries without a top-level clause give `None`; queries without the word
  * `SKYLINE` are not even lexed (§5.9, no side effects on other queries).
  */
object SkylineClauseExtractor {

  /** A successfully extracted clause.
    *
    * @param stripped the input SQL with the skyline clause removed
    * @param items    (raw dimension expression text, direction) pairs
    */
  final case class Extraction(
      stripped: String,
      distinct: Boolean,
      complete: Boolean,
      items: Seq[(String, Direction)])

  /** Tokens that end the dimension list at parenthesis depth 0. */
  private val Terminators =
    Set("ORDER", "LIMIT", "OFFSET", "UNION", "EXCEPT", "INTERSECT", "MINUS",
        "SORT", "CLUSTER", "DISTRIBUTE", "WINDOW", ";")

  def extract(sql: String): Option[Extraction] = {
    // Fast path: virtually every query lacks the keyword entirely.
    if (!sql.toUpperCase(Locale.ROOT).contains("SKYLINE")) return None
    val tokens = SqlTokens(sql)
    def word(i: Int): String = if (i < tokens.length) tokens(i).getText.toUpperCase(Locale.ROOT) else ""
    def isClause(i: Int): Boolean = word(i) == "SKYLINE" && word(i + 1) == "OF"
    def nesting(i: Int): Int = tokens(i).getType match {
      case SqlBaseLexer.LEFT_PAREN  => 1
      case SqlBaseLexer.RIGHT_PAREN => -1
      case _                        => 0
    }
    // Token offsets count code points; these are character offsets in `sql`.
    def begin(i: Int): Int =
      if (i < tokens.length) sql.offsetByCodePoints(0, tokens(i).getStartIndex) else sql.length
    def text(from: Int, until: Int): String =
      sql.substring(begin(from), sql.offsetByCodePoints(0, tokens(until - 1).getStopIndex + 1))
    def findClause(from: Int): Option[Int] = {
      var depth = 0
      (from until tokens.length).find { i => depth += nesting(i); depth == 0 && isClause(i) }
    }
    def item(from: Int, until: Int): (String, Direction) = {
      if (until == from)
        throw new SkylineParseException(s"skyline dimension at position ${begin(from)} is empty")
      val dir = Direction.fromString(word(until - 1)).getOrElse(throw new SkylineParseException(
        s"skyline dimension '${text(from, until)}' must end with MIN, MAX or DIFF"))
      if (until - 1 == from) throw new SkylineParseException(
        s"skyline dimension before '${tokens(from).getText}' has no expression")
      (text(from, until - 1), dir)
    }

    findClause(0).map { start =>
      val distinct = word(start + 2) == "DISTINCT"
      val complete = word(start + (if (distinct) 3 else 2)) == "COMPLETE"
      val first = start + 2 + Seq(distinct, complete).count(identity)
      // The clause ends at an unmatched ')' (end of an enclosing subquery),
      // a terminator or a second clause, all at depth 0, or at the end.
      var (end, depth) = (first, 0)
      val commas = Vector.newBuilder[Int]
      while (end < tokens.length &&
          !(depth == 0 && (nesting(end) < 0 || Terminators(word(end)) || isClause(end)))) {
        depth += nesting(end)
        if (depth == 0 && tokens(end).getType == SqlBaseLexer.COMMA) commas += end
        end += 1
      }
      val bounds = (first - 1) +: commas.result() :+ end
      val items = bounds.zip(bounds.tail).map { case (a, b) => item(a + 1, b) }
      if (findClause(end).isDefined)
        throw new SkylineParseException("only one top-level SKYLINE OF clause is allowed per query")
      Extraction(sql.substring(0, begin(start)) + " " + sql.substring(begin(end)),
        distinct, complete, items)
    }
  }
}
