package perfbench

import repro.core.{Bigsi, BigsiIndex, Rambo, RamboIndex}
import repro.eval.{Experiments, GroundTruth, Workload}
import repro.genome.SynthGenomes
import repro.genome.SynthGenomes.CorpusSpec
import repro.util.Hashing

/** The two workloads over the paper's 3480-file corpus shape,
  * `query-uniform` and `query-conserved`. The corpus seed is the run's seed.
  *
  * Indexes are at matched FP: the T1 sweep's RAMBO m=131072 and BIGSI
  * m=12288 points, η=4.
  */
object CorpusWorkloads {
  val W: Int = Experiments.W3480
  val D: Int = Experiments.D
  val Eta = 4
  val MRambo = 131072
  val MBigsi = 12288
  /** Queries per workload, as in the paper; FP and the per-query counts
    * use all of them, the timed loop and the batch the first [[NTimed]].
    */
  val NQueries = 30000
  val NTimed = 3000

  final case class Corpus(spec: CorpusSpec, local: Seq[(Int, String)], truth: GroundTruth)

  /** Generate the corpus and its exact truth: the `eval` layer. */
  private def corpus(env: Env): Corpus = {
    val spec = Experiments.Corpus3480.copy(seed = env.seed)
    val (local, corpusS) = env.step("corpus")(Stats.timed(env.tracer.span("eval.corpus")(
      SynthGenomes.corpusLocal(spec))))
    val ((truth, truthS), truthMb) = env.step("truth")(env.retainedMb(
      Stats.timed(env.tracer.span("eval.truth")(GroundTruth.fromLocal(local, spec.nFiles)))))
    env.report("eval.corpus_s") = corpusS
    env.report("eval.truth_s") = truthS
    env.report("eval.truth_mb") = truthMb
    env.report.fingerprints("corpus") =
      s"pairs=${local.size} " + Stats.hex(Stats.fingerprint(local.iterator.map {
        case (f, k) => Hashing.murmur64(k, f.toLong) }))
    Corpus(spec, local, truth)
  }

  /** 20 % present k-mers drawn uniformly from the pool, 80 % absent, in
    * groups of one present and four absent so that every prefix (the timed
    * one too) keeps the mix.
    */
  private def uniformQueries(c: Corpus, seed: Long): IndexedSeq[Query] = {
    val all = Workload.queries(c.spec, c.truth, NQueries / 5, NQueries - NQueries / 5, seed)
      .map(q => Query(q.kmer, q.truth))
    val (present, absent) = all.splitAt(NQueries / 5)
    present.zip(absent.grouped(4).toSeq).flatMap { case (p, as) => p +: as }
  }

  /** Present k-mers drawn with probability ∝ `CorpusSpec.docFreq(i)`. */
  private def conservedQueries(c: Corpus, seed: Long): IndexedSeq[Query] = {
    val cum = new Array[Long](c.spec.poolSize)
    var acc = 0L
    var i = 0
    while (i < cum.length) { acc += c.spec.docFreq(i); cum(i) = acc; i += 1 }
    (0 until NQueries).map { q =>
      val u = java.lang.Long.remainderUnsigned(Hashing.splitmix64(seed * 0x2545f4914f6cdd1dL + q), acc)
      val idx = java.util.Arrays.binarySearch(cum, u + 1) match {
        case k if k >= 0 => k
        case k => -k - 1
      }
      val kmer = SynthGenomes.poolKmer(c.spec, idx.toLong)
      Query(kmer, c.truth.filesOf(kmer))
    }
  }

  private def indexHash(r: RamboIndex, b: BigsiIndex): String =
    Stats.hex(Stats.fingerprint((r.columns ++ b.columns).iterator.flatMap(_.bits.words.iterator)))

  /** Set-up builds the indexes locally (one cold and three warm RAMBO
    * builds, the median retained heap counting; one cold and one warm BIGSI
    * build), and checks and warms every query path and the batch engine. The
    * timed window is the closed query loop. After it, `query-uniform` runs
    * the FASTA pipeline, whose Spark work would otherwise disturb the loop.
    */
  def query(env: Env, conserved: Boolean, t0: Long): Unit = {
    val r = env.report
    val c = corpus(env)
    val n = c.spec.nFiles
    val queries = if (conserved) conservedQueries(c, env.seed) else uniformQueries(c, env.seed)
    val k0 = queries.head.kmer
    def ramboBuild() = {
      val (idx, b) = Stats.timed(env.tracer.span("core.build.rambo")(
        Rambo.buildLocal(c.local, n, W, D, MRambo, Eta)))
      val t = Stats.timed(env.tracer.span("core.transpose")(idx.queryBitsliced(k0)))._2
      idx.queryProbe(k0)
      (idx, b, t)
    }
    def bigsiBuild() = {
      val (idx, b) = Stats.timed(env.tracer.span("core.build.bigsi")(Bigsi.buildLocal(c.local, n, MBigsi, Eta)))
      (idx, b, Stats.timed(idx.queryBitsliced(k0))._2)
    }
    env.step("cold-builds") { ramboBuild(); bigsiBuild() }
    var rambo: RamboIndex = null
    // The previous index stays referenced while the next one is measured,
    // so each reading is one index's retained heap.
    val residentMb = Stats.median(env.step("warm-builds")((1 to 3).map { _ =>
      val ((idx, b, t), mb) = env.retainedMb(ramboBuild())
      rambo = idx
      r("build.rambo.local_s") = b
      r("build.rambo.transpose_s") = t
      mb
    }))
    val (bigsi, bigsiS, bigsiT) = bigsiBuild()
    r("build.bigsi.local_s") = bigsiS
    r("build.bigsi.transpose_s") = bigsiT
    r.fingerprints("queries") =
      Stats.hex(Stats.fingerprint(queries.iterator.map(q => Hashing.murmur64(q.kmer, 0L))))
    r.fingerprints("index") = indexHash(rambo, bigsi)

    val phase = new QueryPhase(rambo, bigsi, queries, NTimed, r, env.tracer)
    val fp = env.step("check")(phase.check())
    env.step("warm-up")(phase.warmUp(3))
    val timed = queries.take(NTimed)
    val batch = new env.Batch(rambo, timed.map(_.kmer), timed.map(q => rambo.queryProbe(q.kmer)))
    env.step("batch")(batch.timed(3))
    batch.close()
    System.gc()
    r("setup_s") = Stats.seconds(t0)

    val gc0 = Stats.gcTotals()
    if (env.tracer.enabled) {
      phase.traced(env.seconds)
      r("engine.direct_us_per_query") = r.values("trace.untraced_probe_us")
    } else {
      val rates = phase.timed(env.seconds)
      r("query_kqps") = rates("probe")
      r("slice_kqps") = rates("slice")
      r("bigsi_kqps") = rates("bigsi")
      r("engine.direct_us_per_query") = 1e3 / rates("probe")
    }
    val gc1 = Stats.gcTotals()
    if (!conserved) env.step("fasta-pipeline")(FastaPipeline.measure(env))
    r("engine.overhead_ratio") = r.values("engine.us_per_query") / r.values("engine.direct_us_per_query")
    r("jvm.gc_s") = gc1._1 - gc0._1
    r("jvm.gc_count") = (gc1._2 - gc0._2).toDouble
    r("fp_pct") = fp
    r("resident_mb") = residentMb
  }
}
