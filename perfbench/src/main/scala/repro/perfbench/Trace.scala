package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** A span of the traced run: one unit of work of one layer, with the span
  * that caused it. Times are epoch milliseconds, the resolution Spark's own
  * events carry.
  */
final case class Span(id: Int, parent: Int, trace: Int, layer: String, name: String,
                      startMs: Double, endMs: Double) {
  def durationMs: Double = math.max(endMs - startMs, 0.0)
}

/** Spans kept in memory and written out when the run ends. */
final class Trace {
  private val spans = ArrayBuffer.empty[Span]

  def add(parent: Int, trace: Int, layer: String, name: String,
          startMs: Double, endMs: Double): Int = synchronized {
    val id = spans.length + 1
    spans += Span(id, parent, trace, layer, name, startMs, endMs)
    id
  }

  def all: Seq[Span] = synchronized(spans.toList)

  /** Self time of every span: its duration minus the part of its interval
    * that its children cover.
    */
  def selfMs: Map[Int, Double] = {
    val s = all
    val children = s.groupBy(_.parent)
    s.map { sp =>
      val covered = Trace.unionLength(children.getOrElse(sp.id, Nil).map { c =>
        (math.max(c.startMs, sp.startMs), math.min(c.endMs, sp.endMs))
      })
      sp.id -> math.max(sp.durationMs - covered, 0.0)
    }.toMap
  }

  /** Summed self time per layer. */
  def selfMsByLayer: Map[String, Double] = {
    val self = selfMs
    all.groupBy(_.layer).map { case (l, ss) => l -> ss.map(sp => self(sp.id)).sum }
  }

  def toJson: String = {
    val self = selfMs
    all.map { sp =>
      Json.obj(Seq("id" -> Json.num(sp.id), "parent" -> Json.num(sp.parent),
        "trace" -> Json.num(sp.trace), "layer" -> Json.str(sp.layer),
        "name" -> Json.str(sp.name), "start_ms" -> Json.num(sp.startMs),
        "end_ms" -> Json.num(sp.endMs), "self_ms" -> Json.num(self(sp.id))))
    }.mkString("[\n", ",\n", "\n]")
  }
}

object Trace {
  /** Total length covered by a set of intervals. */
  def unionLength(intervals: Seq[(Double, Double)]): Double = {
    var total = 0.0
    var curStart = Double.NaN
    var curEnd = Double.NaN
    intervals.filter(i => i._2 > i._1).sortBy(_._1).foreach { case (s, e) =>
      if (curEnd.isNaN || s > curEnd) {
        if (!curEnd.isNaN) total += curEnd - curStart
        curStart = s; curEnd = e
      } else if (e > curEnd) curEnd = e
    }
    if (!curEnd.isNaN) total += curEnd - curStart
    total
  }
}

/** Minimal JSON rendering for the result line and the trace file. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').result()
  }
  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString
  def bool(v: Boolean): String = v.toString
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}
