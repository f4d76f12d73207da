package repro.core

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.{SparkPlan, SparkStrategy}
import org.apache.spark.sql.skyline.Bridge
import repro.core.physical.{SkylineExec, SkylineStep}

/** The conf controlling skyline planning (runtime-settable). */
object SkylineConf {
  /** `auto` is Listing 8; the other values force one of the paper's
    * benchmark algorithms (§6.3; "reference" is not an algorithm of ours
    * but the plain-SQL rewrite).
    */
  val Algorithm = "spark.sql.skyline.algorithm"

  val Algorithms: Seq[String] =
    Seq("auto", "non-distributed-complete", "distributed-complete", "distributed-incomplete")

  private lazy val read: SparkSession => String = Bridge.stringConf(Algorithm, Algorithms,
    default = "auto",
    doc = "Skyline algorithm: auto picks the complete or incomplete algorithm as in " +
      "Listing 8 of the paper (the COMPLETE keyword or non-nullable dimensions select " +
      "the complete one); the other values force one algorithm.")

  /** Registers the conf with Spark (the first call only): from then on `SET`
    * rejects a value outside `Algorithms` and `SET -v` documents it.
    * [[SkylineExtensions]] calls it when a session installs the extensions.
    */
  def register(): Unit = { read; () }

  /** The conf's value; a value outside `Algorithms` is an error. */
  def algorithm(session: SparkSession): String = read(session)
}

/** Physical planning for [[SkylineOperator]] — the algorithm selection of
  * §5.5 (Listing 8), mapped onto the kernel table of [[SkylineExec]].
  *
  * The complete kernels may be used when the query says `COMPLETE` or all
  * skyline dimensions are non-nullable, or when a complete algorithm is
  * forced; otherwise the incomplete ones are. Every plan is a local step
  * under a global step, except that `non-distributed-complete` omits the
  * local step. A single MIN/MAX dimension keeps its local step in every
  * mode (the paper's Table 5, where all specialized algorithms collapse to
  * ~2% of the reference at one dimension).
  */
case class SkylineStrategy(session: SparkSession) extends SparkStrategy {

  override def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
    case SkylineOperator(distinct, complete, dims, child) =>
      val algorithm = SkylineConf.algorithm(session)
      val incomplete = algorithm match {
        case "auto" => !complete && dims.exists(_.child.nullable)
        case forced => forced == "distributed-incomplete"
      }
      val local = algorithm != "non-distributed-complete" || SkylineExec.singleDim(dims, distinct)
      val input = planLater(child)
      SkylineExec(dims, distinct, incomplete, SkylineStep.Global,
        if (local) SkylineExec(dims, distinct, incomplete, SkylineStep.Local, input) else input) :: Nil
    case _ => Nil
  }
}
