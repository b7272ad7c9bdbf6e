package perfbench

import java.lang.management.ManagementFactory

import scala.jdk.CollectionConverters._

/** Small numeric and JVM helpers shared by the workloads. */
object Stats {

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Quantile of a non-empty sample, interpolating linearly between ranks. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Wall time of `body` in seconds. */
  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, seconds(t0))
  }

  /** Heap bytes in use after repeated full collections; the difference of two
    * readings around an allocation is the heap that allocation retains.
    */
  def liveHeap(): Long = {
    val mem = ManagementFactory.getMemoryMXBean
    var i = 0
    while (i < 2) { System.gc(); Thread.sleep(20); i += 1 }
    mem.getHeapMemoryUsage.getUsed
  }

  /** (total collection seconds, collection count) over all collectors so far. */
  def gcTotals(): (Double, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime.max(0L)).sum / 1e3, beans.map(_.getCollectionCount.max(0L)).sum)
  }

  /** Order-sensitive 64-bit fingerprint of a sequence of longs. */
  def fingerprint(xs: Iterator[Long]): Long =
    xs.foldLeft(0x243f6a8885a308d3L)((h, x) => repro.util.Hashing.splitmix64(h ^ x))

  def hex(x: Long): String = f"$x%016x"
}
