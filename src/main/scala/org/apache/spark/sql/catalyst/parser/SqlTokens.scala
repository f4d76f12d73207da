package org.apache.spark.sql.catalyst.parser

import org.antlr.v4.runtime.{CharStreams, Token}

/** Spark's own SQL lexer, reached from this package because the lexer reads
  * through the `private[parser]` `UpperCaseCharStream` (the same technique as
  * `org.apache.spark.sql.skyline.Bridge`).
  */
object SqlTokens {

  /** The default-channel tokens of `sql` (no whitespace, comments or EOF).
    * Offsets count code points. Lexer errors surface later, in Spark's parser.
    */
  def apply(sql: String): IndexedSeq[Token] = {
    val lexer = new SqlBaseLexer(new UpperCaseCharStream(CharStreams.fromString(sql)))
    lexer.removeErrorListeners()
    Iterator.continually(lexer.nextToken()).takeWhile(_.getType != Token.EOF)
      .filter(_.getChannel == Token.DEFAULT_CHANNEL).toVector
  }
}
