package perfbench

import repro.core.{BigsiIndex, Rambo, RamboIndex}
import repro.util.BitVector

/** One query k-mer with its exact answer (the files that hold it). */
final case class Query(kmer: String, truth: BitVector)

/** The `core` query path of a RAMBO index and its BIGSI baseline, driven by
  * one client thread in a closed loop over a fixed query list.
  *
  * Three paths are timed: RAMBO probe (`queryProbe`, the paper's timed path),
  * RAMBO bitsliced (`queryBitsliced`) and BIGSI probe. [[check]] answers every
  * query on every path against exact truth; timed passes then only re-check
  * each pass's answer checksum against the checked one, so checking costs
  * nothing inside the timed window.
  */
final class QueryPhase(rambo: RamboIndex, bigsi: BigsiIndex, queries: IndexedSeq[Query],
                       timedQueries: Int, report: Report, tracer: Tracer) {
  require(queries.nonEmpty, "empty query list")
  /** The timed passes run over the first `timedQueries` queries. */
  private val kmers = queries.take(timedQueries).map(_.kmer).toArray
  private val n = kmers.length

  private def probe(k: String) = rambo.queryProbe(k)
  private def slice(k: String) = rambo.queryBitsliced(k)
  private def bprobe(k: String) = bigsi.queryProbe(k)
  private val paths: Seq[(String, String => BitVector)] =
    Seq("probe" -> (probe _), "slice" -> (slice _), "bigsi" -> (bprobe _))

  /** Sum of answer sizes per path, as the checked pass saw them. */
  private val checksum = scala.collection.mutable.HashMap.empty[String, Long]

  /** One untimed pass of every path with full checks against truth; reports
    * RAMBO's and BIGSI's false-positive rates and the per-query counts.
    * Returns RAMBO's FP in percent.
    */
  def check(): Double = {
    var fpAbs, negAbs, fpPres, negPres, fpBig = 0L
    var hitCells, usefulCells, resultFiles = 0L
    val sums = Array(0L, 0L, 0L)
    val nf = rambo.numFiles
    queries.indices.foreach { qi =>
      val q = queries(qi)
      val p = probe(q.kmer)
      val s = slice(q.kmer)
      val b = bprobe(q.kmer)
      report.check(p == s, s"probe != bitsliced on ${q.kmer}")
      report.check(missing(q.truth, p) == 0, s"RAMBO false negative on ${q.kmer}")
      report.check(missing(q.truth, b) == 0, s"BIGSI false negative on ${q.kmer}")
      if (qi < n) { sums(0) += p.cardinality; sums(1) += s.cardinality; sums(2) += b.cardinality }
      val truthN = q.truth.cardinality
      val fp = (p.cardinality - truthN).toLong
      if (truthN == 0) { fpAbs += fp; negAbs += nf } else { fpPres += fp; negPres += nf - truthN }
      fpBig += b.cardinality - truthN
      val hits = rambo.matrix.rowAnd(rambo.positions(q.kmer))
      hitCells += hits.cardinality
      resultFiles += p.cardinality
      if (truthN > 0) {
        val useful = new java.util.BitSet(rambo.w * rambo.d)
        q.truth.setBits.foreach(f => Rambo.cellsForFile(f, rambo.w, rambo.d).foreach(useful.set))
        hits.setBits.foreach(c => if (useful.get(c)) usefulCells += 1)
      }
    }
    paths.map(_._1).zip(sums).foreach { case (name, s) => checksum(name) = s }
    val neg = negAbs + negPres
    report("core.hit_cells") = hitCells.toDouble / queries.length
    report("core.result_files") = resultFiles.toDouble / queries.length
    report("core.fp_files") = (fpAbs + fpPres).toDouble / queries.length
    report("core.useful_cell_ratio") = if (hitCells == 0) 0.0 else usefulCells.toDouble / hitCells
    report("core.fp_absent_pct") = pct(fpAbs, negAbs)
    report("core.fp_present_pct") = pct(fpPres, negPres)
    report("core.bigsi_fp_pct") = pct(fpBig, neg)
    report("core.index_bytes") = rambo.indexBytes.toDouble
    pct(fpAbs + fpPres, neg)
  }

  private def pct(a: Long, b: Long): Double = if (b == 0) 0.0 else 100.0 * a / b

  /** Files in `truth` that `got` lacks. */
  private def missing(truth: BitVector, got: BitVector): Int = {
    var c = 0
    var i = 0
    while (i < truth.words.length) {
      c += java.lang.Long.bitCount(truth.words(i) & ~got.words(i)); i += 1
    }
    c
  }

  /** One pass of `answer` over every query, `reps` times over; returns
    * (ns per query, answer-size sum of one repetition).
    */
  private def pass(answer: String => BitVector, reps: Int = 1): (Double, Long) = {
    var sum = 0L
    val t0 = System.nanoTime()
    var r = 0
    while (r < reps) {
      var i = 0
      while (i < n) { sum += answer(kmers(i)).cardinality; i += 1 }
      r += 1
    }
    ((System.nanoTime() - t0).toDouble / reps / n, sum / reps)
  }

  /** Repetitions per timed pass of each path, so that every pass lasts at
    * least ~50 ms whatever the path's speed.
    */
  private val reps = scala.collection.mutable.HashMap.empty[String, Int]

  /** Untimed JIT warm-up passes of every path; sizes the timed passes. */
  def warmUp(passes: Int): Unit =
    for (_ <- 1 to passes; (name, f) <- paths) {
      val nsPerQuery = pass(f)._1
      reps(name) = math.max(1, math.ceil(50e6 / (nsPerQuery * n)).toInt)
    }

  /** Closed loop for `seconds`: passes rotate probe → bitsliced → BIGSI. Each
    * pass's checksum must equal the checked pass's. Returns, per path name,
    * the best pass's thousands of queries per second (best-of-rounds, as
    * `repro.eval.Timer` does): host interference on a shared machine slows
    * some passes of every run by tens of percent, the best pass far less.
    */
  def timed(seconds: Double): Map[String, Double] = {
    val rates = paths.map(_._1 -> scala.collection.mutable.ArrayBuffer.empty[Double]).toMap
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var rounds = 0
    while (rounds < 1 || System.nanoTime() < deadline) {
      paths.foreach { case (name, f) =>
        val (ns, sum) = pass(f, reps.getOrElse(name, 1))
        report.check(sum == checksum(name), s"$name pass checksum $sum != ${checksum(name)}")
        rates(name) += 1e6 / ns
      }
      rounds += 1
    }
    rates.foreach { case (k, v) =>
      val q = Seq(0.0, 0.1, 0.5, 0.9, 1.0).map(Stats.quantile(v.toSeq, _))
      println(f"passes $k%-6s n=${v.length}%4d kq/s min ${q(0)}%.1f p10 ${q(1)}%.1f p50 ${q(2)}%.1f p90 ${q(3)}%.1f max ${q(4)}%.1f")
    }
    rates.map { case (k, v) => k -> v.max }
  }

  /** Traced closed loop for `seconds`: the same rotation, each path's pass
    * with a span around every call into `util` and `core`, plus one untraced
    * probe pass per round; then per-layer means, latency percentiles and the
    * tracing overhead (traced minus untraced probe path per query).
    */
  def traced(seconds: Double): Unit = {
    val qProbe = tracer.id("q.probe"); val qBigsi = tracer.id("q.bigsi")
    val hash = tracer.id("util.hash"); val bHash = tracer.id("util.hash.bigsi")
    val probeId = tracer.id("core.probe"); val bProbeId = tracer.id("core.bigsi_probe")
    val rowAnd = tracer.id("core.rowand"); val sliceId = tracer.id("core.slice")
    var samples = 0L
    val untraced = scala.collection.mutable.ArrayBuffer.empty[Double]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var rounds = 0
    while (rounds < 1 || System.nanoTime() < deadline) {
      val (ns, sum) = pass(probe)
      report.check(sum == checksum("probe"), s"probe pass checksum $sum != ${checksum("probe")}")
      untraced += ns / 1e3
      var i = 0
      var sumP, sumS, sumB = 0L
      while (i < n) {
        val root = tracer.begin(qProbe, samples + i)
        var h = tracer.begin(hash, samples + i); val pos = rambo.positions(kmers(i)); tracer.end(h)
        h = tracer.begin(probeId, samples + i); sumP += rambo.queryProbePositions(pos).cardinality; tracer.end(h)
        tracer.end(root)
        i += 1
      }
      i = 0
      while (i < n) {
        var h = tracer.begin(hash, samples + i); val pos = rambo.positions(kmers(i)); tracer.end(h)
        h = tracer.begin(rowAnd, samples + i); rambo.matrix.rowAnd(pos); tracer.end(h)
        h = tracer.begin(sliceId, samples + i); sumS += rambo.queryBitsliced(kmers(i)).cardinality; tracer.end(h)
        i += 1
      }
      i = 0
      while (i < n) {
        val root = tracer.begin(qBigsi, samples + i)
        var h = tracer.begin(bHash, samples + i); val pos = bigsi.positions(kmers(i)); tracer.end(h)
        h = tracer.begin(bProbeId, samples + i); sumB += bigsi.queryProbePositions(pos).cardinality; tracer.end(h)
        tracer.end(root)
        i += 1
      }
      report.check(sumP == checksum("probe") && sumS == checksum("slice") && sumB == checksum("bigsi"),
        "traced pass checksums differ from the checked pass")
      samples += n
      rounds += 1
    }
    val sum = tracer.summary
    def meanUs(name: String) = sum.get(name).map { case (c, t, _) => t / 1e3 / c }.getOrElse(0.0)
    def pctUs(name: String, q: Double) = Stats.quantile(tracer.durations(name).map(_ / 1e3).toSeq, q)
    report("util.hash_us") = meanUs("util.hash")
    report("core.probe_us") = meanUs("core.probe")
    report("core.rowand_us") = meanUs("core.rowand")
    report("core.resolve_us") = meanUs("core.slice") - meanUs("util.hash") - meanUs("core.rowand")
    report("core.bigsi_probe_us") = meanUs("core.bigsi_probe")
    report("core.query_p50_us") = pctUs("q.probe", 0.5)
    report("core.query_p99_us") = pctUs("q.probe", 0.99)
    report("core.slice_p50_us") = pctUs("core.slice", 0.5)
    report("core.slice_p99_us") = pctUs("core.slice", 0.99)
    report("core.bigsi_p50_us") = pctUs("q.bigsi", 0.5)
    report("core.bigsi_p99_us") = pctUs("q.bigsi", 0.99)
    report("core.latency_samples") = samples.toDouble
    report("trace.probe_path_us") = meanUs("q.probe")
    report("trace.untraced_probe_us") = Stats.median(untraced.toSeq)
    report("trace.overhead_us") = meanUs("q.probe") - Stats.median(untraced.toSeq)
  }
}
