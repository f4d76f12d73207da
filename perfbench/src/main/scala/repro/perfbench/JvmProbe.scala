package repro.perfbench

import java.lang.management.ManagementFactory

import scala.jdk.CollectionConverters._

/** Process-level counters read from the JVM's MXBeans. */
object JvmProbe {

  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val memory = ManagementFactory.getMemoryMXBean

  /** CPU time of the whole process (all threads, GC and JIT included), ns. */
  def processCpuNs: Long = os.getProcessCpuTime

  /** Accumulated collection time of every collector, ms. */
  def gcMs: Long = gcs.map(_.getCollectionTime).filter(_ >= 0).sum

  /** Bytes allocated so far by all live threads. */
  def allocatedBytes: Long = threads.getTotalThreadAllocatedBytes

  /** Heap in use after the session has settled: a full collection lets
    * Spark's cleaner thread release what the dropped queries left behind
    * (shuffle and broadcast state), and a second one, a moment later,
    * collects that. A single collection reads 10-40 % higher, by chance.
    */
  def settledLiveHeapBytes(): Long = {
    System.gc()
    Thread.sleep(300)
    System.gc()
    memory.getHeapMemoryUsage.getUsed
  }
}
