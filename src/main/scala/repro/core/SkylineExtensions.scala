package repro.core

import org.apache.spark.sql.SparkSessionExtensions
import repro.core.parser.SkylineSqlParser
import repro.core.rules.{ResolveSkyline, SkylinePushThroughJoin}

/** Installs the full skyline integration into a SparkSession (§5).
  *
  * Every component the paper adds to its Spark fork maps to one injection:
  * the parser (§5.1), the analyzer rule (§5.3), the Catalyst optimizer rule
  * (§5.4), and the physical planning strategy with algorithm selection
  * (§5.5). Activate with
  * `--conf spark.sql.extensions=repro.core.SkylineExtensions`
  * or `SparkSession.builder.withExtensions(new SkylineExtensions)`.
  */
class SkylineExtensions extends (SparkSessionExtensions => Unit) {
  override def apply(extensions: SparkSessionExtensions): Unit = {
    SkylineConf.register()
    extensions.injectParser((_, delegate) => new SkylineSqlParser(delegate))
    extensions.injectResolutionRule(ResolveSkyline)
    extensions.injectOptimizerRule(_ => SkylinePushThroughJoin)
    extensions.injectPlannerStrategy(SkylineStrategy)
  }
}
