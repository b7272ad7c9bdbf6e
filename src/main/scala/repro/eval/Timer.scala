package repro.eval

import repro.util.BitVector

/** Query-latency measurement: single-threaded driver loop over a workload,
  * matching the paper's methodology (per-query times on a built in-memory
  * index, averaged over the query set). A timing is reported as the median
  * and interquartile range of independent samples ([[quartiles]]), because
  * one sample on a shared host can land far from the trend.
  */
object Timer {

  /** Wall time of `body` in seconds. */
  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Untimed (JIT warm-up) passes, then the independent samples of
    * [[microsPerQuery]], each the best of `Rounds` timed passes.
    */
  val WarmupRounds = 1
  val Samples = 5
  val Rounds = 3

  /** First quartile, median and third quartile of a set of samples. */
  final case class Quartiles(q1: Double, median: Double, q3: Double) {
    def iqr: Double = q3 - q1
  }

  /** Quartiles of `xs` by linear interpolation between order statistics: the
    * p-quantile of n sorted values sits at position p·(n−1).
    */
  def quartiles(xs: Seq[Double]): Quartiles = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted.toIndexedSeq
    def at(p: Double): Double = {
      val h = p * (s.length - 1)
      val lo = h.toInt
      s(lo) + (h - lo) * (s(math.min(lo + 1, s.length - 1)) - s(lo))
    }
    Quartiles(at(0.25), at(0.5), at(0.75))
  }

  /** Mean microseconds per query of each `(answer, kmers)` path, as quartiles
    * over `Samples` independent samples.
    *
    * Runs `WarmupRounds` untimed passes of every path (JIT). Each sample is
    * then the best of `Rounds` timed passes' means, the standard way to strip
    * scheduler noise from a microbenchmark. Samples are taken round-robin:
    * sample s of every path before sample s+1 of any, so a slow period of a
    * shared host spreads over all paths instead of moving one. Result
    * cardinalities are accumulated into a blackhole so the JIT cannot elide
    * the queries.
    */
  def microsPerQuery(paths: Seq[(String => BitVector, IndexedSeq[String])]): Seq[Quartiles] = {
    require(paths.forall(_._2.nonEmpty), "empty workload")
    var blackhole = 0L
    def pass(p: Int): Long = {
      val (answer, kmers) = paths(p)
      val t0 = System.nanoTime()
      var i = 0
      while (i < kmers.length) { blackhole += answer(kmers(i)).cardinality; i += 1 }
      System.nanoTime() - t0
    }
    for (_ <- 1 to WarmupRounds; p <- paths.indices) pass(p)
    val samples = Seq.fill(Samples)(paths.indices.map(p =>
      (1 to Rounds).map(_ => pass(p)).min / 1e3 / paths(p)._2.length))
    if (blackhole == Long.MinValue) Console.err.println("blackhole") // keep live
    paths.indices.map(p => quartiles(samples.map(_(p))))
  }
}
