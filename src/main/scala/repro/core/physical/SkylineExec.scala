package repro.core.physical

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, BindReferences, Expression, IsNull, Nondeterministic}
import org.apache.spark.sql.catalyst.plans.physical.{AllTuples, ClusteredDistribution, Distribution, Partitioning, UnspecifiedDistribution}
import org.apache.spark.sql.execution.{SparkPlan, UnaryExecNode}
import repro.core.{Direction, DominanceChecker, SkylineAlgorithms, SkylineDimension}

/** Which half of the two-step skyline plan (§5.5) a [[SkylineExec]] runs. */
sealed abstract class SkylineStep(val name: String) extends Serializable {
  override def toString: String = name
}

object SkylineStep {
  /** Runs inside every input partition. */
  case object Local extends SkylineStep("local")

  /** Runs in one task over the union of the local results. */
  case object Global extends SkylineStep("global")
}

/** The skyline physical operator (§5.5–5.7, Listing 8).
  *
  * Every skyline plan is a distributed local step followed by a global step
  * in one task. The algorithms differ only in the kernel each step runs and
  * in the distribution the step requires of its child:
  *
  * {{{
  *   case                 local step                            global step
  *   complete             bnl, Unspecified                      bnl, AllTuples
  *   incomplete           bnlByNullBitmap, Clustered(IsNull…)   allPairsDeferred, AllTuples
  *   one MIN/MAX dim      extreme, Unspecified                  extreme, AllTuples
  * }}}
  *
  * The complete local step keeps the child's partitioning, which preserves
  * locality. The incomplete local step clusters rows by the null-indicators
  * of the dimensions (the paper's bitmap partitioning, "using the predefined
  * IsNull() method"); within one bitmap group incomplete dominance is
  * transitive, so BNL is safe there, and cross-group dominance is left to
  * the deferred-deletion global step (Lemma 5.1, Appendix A). A single
  * MIN/MAX dimension needs no dominance window at all (§5.4).
  */
case class SkylineExec(
    dimensions: Seq[SkylineDimension],
    distinct: Boolean,
    incomplete: Boolean,
    step: SkylineStep,
    child: SparkPlan)
    extends UnaryExecNode {

  import SkylineExec._
  import SkylineStep._

  /** The kernel table: (kernel name, kernel, required child distribution). */
  private def kernel: (String, Kernel, Distribution) =
    (step, incomplete, singleDim(dimensions, distinct)) match {
      case (Local, _, true)   => ("extreme", extreme, UnspecifiedDistribution)
      case (Global, _, true)  => ("extreme", extreme, AllTuples)
      case (Local, false, _)  => ("bnl", bnl, UnspecifiedDistribution)
      case (Global, false, _) => ("bnl", bnl, AllTuples)
      case (Local, true, _)   => ("bnlByNullBitmap", bnlByNullBitmap,
                                   ClusteredDistribution(dimensions.map(d => IsNull(d.child))))
      case (Global, true, _)  => ("allPairsDeferred", allPairsDeferred, AllTuples)
    }

  /** Name of the kernel this step runs, as shown by EXPLAIN. */
  def kernelName: String = kernel._1

  override def output: Seq[Attribute] = child.output

  override def outputPartitioning: Partitioning = child.outputPartitioning

  override def requiredChildDistribution: Seq[Distribution] = kernel._3 :: Nil

  override def simpleString(maxFields: Int): String =
    s"$nodeName $step $kernelName${if (distinct) " DISTINCT" else ""} " +
      s"[${dimensions.mkString(", ")}]"

  override protected def doExecute(): RDD[InternalRow] = {
    val run = kernel._2
    // Bound on the driver; the bound expressions ship in the task closure.
    val bound = dimensions.map(d => BindReferences.bindReference(d.child, child.output)).toArray
    val checker = new DominanceChecker(
      dimensions.map(_.dataType).toArray, dimensions.map(_.direction).toArray, incomplete)
    val dist = distinct
    child.execute().mapPartitionsWithIndex(
      { (idx, iter) =>
        bound.foreach(_.foreach {
          case n: Nondeterministic => n.initialize(idx)
          case _                   =>
        })
        run(iter.map(evaluate(_, bound)), checker, dist).map(_._1)
      },
      preservesPartitioning = true)
  }

  override protected def withNewChildInternal(newChild: SparkPlan): SkylineExec =
    copy(child = newChild)
}

object SkylineExec {

  private type Rows = Iterator[(InternalRow, Array[Any])]
  private type Kernel = (Rows, DominanceChecker, Boolean) => Rows

  private val bnl: Kernel = (rows, c, distinct) => SkylineAlgorithms.bnl(rows, c, distinct).iterator
  private val bnlByNullBitmap: Kernel = SkylineAlgorithms.bnlByNullBitmap(_, _, _)
  private val allPairsDeferred: Kernel = (rows, c, distinct) =>
    SkylineAlgorithms.allPairsDeferred(rows.toIndexedSeq, c, distinct).iterator
  private val extreme: Kernel = (rows, c, _) => SkylineAlgorithms.extreme(rows, c).iterator

  /** One MIN/MAX dimension without DISTINCT: the skyline is the set of rows
    * that reach the extreme value (§5.4).
    */
  def singleDim(dimensions: Seq[SkylineDimension], distinct: Boolean): Boolean =
    !distinct && dimensions.lengthCompare(1) == 0 && dimensions.head.direction != Direction.Diff

  /** An owned copy of `row` with its dimension values. The copy is needed
    * because the upstream iterator reuses unsafe rows, and both the kernel
    * windows and the evaluated values (UTF8String slices, Decimals) alias
    * the row buffer.
    */
  private def evaluate(row: InternalRow, bound: Array[Expression]): (InternalRow, Array[Any]) = {
    val owned = row.copy()
    val vals = new Array[Any](bound.length)
    var i = 0
    while (i < bound.length) {
      vals(i) = bound(i).eval(owned)
      i += 1
    }
    (owned, vals)
  }
}
