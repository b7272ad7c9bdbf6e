package perfbench

import java.io.{BufferedWriter, OutputStreamWriter}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import java.util.zip.GZIPOutputStream

import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span is (name, start, end, parent, trace id). Spans are kept in flat
  * primitive arrays so recording one costs two `nanoTime` reads and a few
  * stores; they are written out only when the run ends. The benchmark opens
  * spans around its own calls into the program's public functions — nothing
  * inside the program is instrumented. When disabled, [[span]] runs its body
  * and records nothing.
  */
final class Tracer(val enabled: Boolean) {
  private var n = 0
  private var nameOf = new Array[Int](1 << 16)
  private var startNs = new Array[Long](1 << 16)
  private var endNs = new Array[Long](1 << 16)
  private var parentOf = new Array[Int](1 << 16)
  private var traceOf = new Array[Long](1 << 16)
  private var current = -1
  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]

  /** Interned id of a span name, for the hot loops that call [[begin]]. */
  def id(name: String): Int = nameIds.getOrElseUpdate(name, { names += name; names.length - 1 })

  /** Open a span under the innermost open span; returns its handle. */
  def begin(name: Int, trace: Long): Int = {
    if (n == nameOf.length) grow()
    nameOf(n) = name; parentOf(n) = current; traceOf(n) = trace
    current = n
    n += 1
    startNs(n - 1) = System.nanoTime()
    n - 1
  }

  /** Close the span `h` (must be the innermost open one). */
  def end(h: Int): Unit = {
    endNs(h) = System.nanoTime()
    current = parentOf(h)
  }

  def span[T](name: String, trace: Long = 0L)(body: => T): T =
    if (!enabled) body
    else {
      val h = begin(id(name), trace)
      try body finally end(h)
    }

  private def grow(): Unit = {
    val cap = nameOf.length * 2
    nameOf = java.util.Arrays.copyOf(nameOf, cap)
    startNs = java.util.Arrays.copyOf(startNs, cap)
    endNs = java.util.Arrays.copyOf(endNs, cap)
    parentOf = java.util.Arrays.copyOf(parentOf, cap)
    traceOf = java.util.Arrays.copyOf(traceOf, cap)
  }

  /** Durations in ns of every span called `name`, in recording order. */
  def durations(name: String): Array[Long] = nameIds.get(name) match {
    case None => Array.empty
    case Some(id) =>
      val out = mutable.ArrayBuilder.make[Long]
      var i = 0
      while (i < n) { if (nameOf(i) == id) out += endNs(i) - startNs(i); i += 1 }
      out.result()
  }

  /** Per name: (span count, total ns, self ns). Self time is a span's duration
    * minus the time its child spans cover; children of one span never overlap
    * because the benchmark drives each layer from a single thread.
    */
  def summary: Map[String, (Long, Long, Long)] = {
    val childNs = new Array[Long](n)
    var i = 0
    while (i < n) {
      if (parentOf(i) >= 0) childNs(parentOf(i)) += endNs(i) - startNs(i)
      i += 1
    }
    val count = new Array[Long](names.length)
    val total = new Array[Long](names.length)
    val self = new Array[Long](names.length)
    i = 0
    while (i < n) {
      val d = endNs(i) - startNs(i)
      count(nameOf(i)) += 1; total(nameOf(i)) += d; self(nameOf(i)) += d - childNs(i)
      i += 1
    }
    names.indices.map(k => names(k) -> ((count(k), total(k), self(k)))).toMap
  }

  /** Write every span as gzipped TSV: id, name, trace, parent, start, end (ns). */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val out = new BufferedWriter(new OutputStreamWriter(
      new GZIPOutputStream(Files.newOutputStream(path)), StandardCharsets.UTF_8), 1 << 16)
    try {
      out.write("id\tname\ttrace\tparent\tstart_ns\tend_ns\n")
      var i = 0
      while (i < n) {
        out.write(s"$i\t${names(nameOf(i))}\t${traceOf(i)}\t${parentOf(i)}\t${startNs(i)}\t${endNs(i)}\n")
        i += 1
      }
    } finally out.close()
  }

  def size: Int = n
}
