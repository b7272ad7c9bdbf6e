package repro.eval

import repro.util.BitVector

/** Query-latency measurement: single-threaded driver loop over a workload,
  * matching the paper's methodology (per-query times on a built in-memory
  * index, averaged over the query set).
  */
object Timer {

  /** Wall time of `body` in seconds. */
  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Timed and untimed (JIT warm-up) passes of [[microsPerQuery]]. */
  val Rounds = 3
  val WarmupRounds = 1

  /** Mean microseconds per query of `answer` over `kmers`.
    *
    * Runs `WarmupRounds` untimed passes (JIT), then `Rounds` timed passes and
    * returns the best round's mean — the standard way to strip scheduler noise
    * from a microbenchmark. Result cardinalities are accumulated into a
    * blackhole so the JIT cannot elide the queries.
    */
  def microsPerQuery(answer: String => BitVector, kmers: IndexedSeq[String]): Double = {
    require(kmers.nonEmpty, "empty workload")
    var blackhole = 0L
    def pass(): Long = {
      val t0 = System.nanoTime()
      var i = 0
      while (i < kmers.length) { blackhole += answer(kmers(i)).cardinality; i += 1 }
      System.nanoTime() - t0
    }
    var r = 0
    while (r < WarmupRounds) { pass(); r += 1 }
    var best = Long.MaxValue
    r = 0
    while (r < Rounds) { best = math.min(best, pass()); r += 1 }
    if (blackhole == Long.MinValue) Console.err.println("blackhole") // keep live
    best / 1e3 / kmers.length
  }
}
