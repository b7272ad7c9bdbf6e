package perfbench

import java.nio.file.{Files, Path}

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, udf}

import repro.core.{Bigsi, BigsiIndex, QueryEngine, Rambo, RamboIndex}
import repro.eval.GroundTruth
import repro.genome.{Dna, Fasta, Kmers, SynthGenomes}
import repro.genome.SynthGenomes.CorpusSpec
import repro.util.{BitVector, Hashing}

/** The end-to-end FASTA pipeline, run in every workload's set-up: the only
  * path through `genome`, the Spark builds and a batch from files.
  *
  * It writes a FASTA directory (100 files × 4 contigs × 5 kb, 16 shared
  * blocks, ≈2 M distinct (file, 31-mer) pairs), runs one cold pass over an
  * eighth of that size, then one measured pass: read and parse, explode
  * to distinct pairs, RAMBO Spark build, a collected `QueryEngine` batch of
  * present k-mers, their reverse complements and absent k-mers, and a BIGSI
  * Spark build of the same pairs. Its timings are per-layer metrics.
  */
object FastaPipeline {
  val NFiles = 100
  val Contigs = 4
  val ContigLen = 5000
  val SharedBlocks = 16
  val W = 17 // ≈ 1.7·√N, the T5 rule
  val D = 3
  val Eta = 4
  val MRambo: Int = 1 << 20
  val MBigsi: Int = 1 << 18
  val PerKind = 3200
  val K: Int = Kmers.DefaultK

  private final case class Pass(read: Double, kmers: Double, build: Double, transpose: Double,
                                batch: Double, e2e: Double, bigsi: Double, bigsiTranspose: Double,
                                pairs: Long, rambo: RamboIndex, bigsiIdx: BigsiIndex,
                                answers: Array[BitVector])

  private def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(q => Files.delete(q))
      finally s.close()
    }

  private def bits(r: RamboIndex, b: BigsiIndex): Iterator[Long] =
    (r.columns ++ b.columns).iterator.flatMap(_.bits.words.iterator)

  def measure(env: Env): Unit = {
    import env.spark.implicits._
    val r = env.report
    val dir = env.workDir.resolve(s"fasta-${env.seed}")
    val warmDir = env.workDir.resolve(s"fasta-warm-${env.seed}")
    Seq(dir, warmDir).foreach { d => deleteTree(d); Files.createDirectories(d) }
    try {
      val files = SynthGenomes.writeFastaCorpus(dir, NFiles, Contigs, ContigLen, SharedBlocks, env.seed)
      SynthGenomes.writeFastaCorpus(warmDir, NFiles / 8, Contigs, ContigLen, SharedBlocks, ~env.seed)

      // The batch: windows of the written sequences, their reverse
      // complements, and random 31-mers absent from every file w.h.p.
      val seqs = files.map(p => Fasta.parse(Files.readString(p)).map(_.sequence).toIndexedSeq)
      val (present, source) = (0 until PerKind).map { q =>
        val h = Hashing.splitmix64(env.seed * 0x632be59bd9b4e019L + q)
        val f = java.lang.Long.remainderUnsigned(h, NFiles).toInt
        val s = seqs(f)((h >>> 40).toInt % seqs(f).length)
        val off = ((h >>> 8) & 0xffffffL).toInt % (s.length - K + 1)
        (s.substring(off, off + K), f)
      }.unzip
      val absent = SynthGenomes.negativeKmers(CorpusSpec(NFiles, 1, 1L, seed = env.seed), PerKind, env.seed)
      val kmers = (present ++ present.map(Dna.reverseComplement) ++ absent).toIndexedSeq
      val queriesDf = env.cacheCount(kmers.zipWithIndex.map { case (k, i) => (i.toLong, k) }
        .toDF("qid", "kmer").repartition(env.cores))
      r.fingerprints("fasta-queries") =
        Stats.hex(Stats.fingerprint(kmers.iterator.map(k => Hashing.murmur64(k, 0L))))

      val fileIdUdf = udf((name: String) => name.stripPrefix("file").stripSuffix(".fasta").toInt)
      // Every stage starts on a freshly collected heap; the collections are
      // excluded from the pass's wall time. `afterwards` sees the pairs once
      // every timer has stopped.
      def pass(tag: String, from: Path, nFiles: Int)(afterwards: DataFrame => Unit): Pass = {
        val start = System.nanoTime()
        var pausedS = 0.0
        def quiesce(): Unit = pausedS += Stats.timed(System.gc())._2
        quiesce()
        val (parsed, readS) = Stats.timed(env.tagged(s"$tag-read")(env.tracer.span("genome.read")(
          env.cacheCount(Fasta.readDirectory(env.spark, from.toString)))))
        quiesce()
        val (pairs, kmersS) = Stats.timed(env.tagged(s"$tag-kmers")(env.tracer.span("genome.kmers")(
          env.cacheCount(Kmers.explodeKmers(parsed, col("sequence"), K)
            .select(fileIdUdf(col("file_name")) as "file_id", col("kmer")).distinct()))))
        quiesce()
        val (rambo, buildS) = Stats.timed(env.tagged(s"$tag-rambo")(env.tracer.span("core.build.rambo")(
          Rambo.buildSpark(pairs, nFiles, W, D, MRambo, Eta))))
        val transS = Stats.timed(env.tracer.span("core.transpose")(rambo.queryBitsliced(kmers(0))))._2
        quiesce()
        val (rows, batchS) = Stats.timed(env.tracer.span("engine.batch")(
          QueryEngine.queryRambo(env.spark, queriesDf, rambo).collect()))
        val e2e = Stats.seconds(start) - pausedS
        val answers = Array.fill(kmers.length)(BitVector.empty(nFiles))
        rows.foreach(row => answers(row.getLong(0).toInt).set(row.getInt(1)))
        System.gc()
        val (bigsi, bigsiS) = Stats.timed(env.tagged(s"$tag-bigsi")(env.tracer.span("core.build.bigsi")(
          Bigsi.buildSpark(pairs, nFiles, MBigsi, Eta))))
        val bigsiT = Stats.timed(bigsi.queryBitsliced(kmers(0)))._2
        val nPairs = pairs.count()
        afterwards(pairs)
        parsed.unpersist()
        pairs.unpersist()
        Pass(readS, kmersS, buildS + transS, transS, batchS, e2e, bigsiS + bigsiT, bigsiT,
          nPairs, rambo, bigsi, answers)
      }

      // Cold pass over the eighth-size directory: warms the JIT and code
      // generation, and checks both Spark builds bit-identical to
      // `buildLocal` over the same pairs.
      var local: Option[(RamboIndex, BigsiIndex)] = None
      val cold = pass("cold", warmDir, NFiles / 8) { pairs =>
        val pl = pairs.as[(Int, String)].collect().toSeq
        local = Some((Rambo.buildLocal(pl, NFiles / 8, W, D, MRambo, Eta),
          Bigsi.buildLocal(pl, NFiles / 8, MBigsi, Eta)))
      }
      r.check(local.exists { case (lr, lb) => bits(lr, lb).sameElements(bits(cold.rambo, cold.bigsiIdx)) },
        "Spark build differs from buildLocal")

      // Measured pass; its pairs give the batch's exact containment truth.
      val truth = Array.fill(kmers.length)(BitVector.empty(NFiles))
      val p = pass("full", dir, NFiles) { pairs =>
        GroundTruth.truthDf(env.spark, queriesDf, pairs).collect()
          .foreach(row => truth(row.getLong(0).toInt).set(row.getInt(1)))
      }
      queriesDf.unpersist()
      r.check(truth.indices.forall { i =>
        val a = p.answers(i).copy(); a.and(truth(i)); a == truth(i)
      }, "batch answer misses a file of the exact containment join")
      r.check(kmers.indices.forall(i => p.answers(i) == p.rambo.queryProbe(kmers(i))),
        "batch answers differ from the probe path")
      r.fingerprints("fasta-pairs") = s"${p.pairs}"
      r.fingerprints("fasta-index") = Stats.hex(Stats.fingerprint(bits(p.rambo, p.bigsiIdx)))

      r("genome.read_s") = p.read
      r("genome.kmers_s") = p.kmers
      r("genome.ingest_shuffle_mb") = env.stats.group("full-kmers").stages.map(_.shuffleWriteBytes).sum / 1e6
      r("genome.pairs") = p.pairs.toDouble
      r("genome.revcomp_recall") =
        (0 until PerKind).count(q => p.answers(PerKind + q).get(source(q))).toDouble / PerKind
      env.reportBuild("rambo", Seq("full-rambo"), Seq(p.build), Seq(p.transpose))
      env.reportBuild("bigsi", Seq("full-bigsi"), Seq(p.bigsi), Seq(p.bigsiTranspose))
      r("pipeline.ingest_s") = p.read + p.kmers
      r("pipeline.build_s") = p.build
      r("pipeline.bigsi_build_s") = p.bigsi
      r("pipeline.e2e_s") = p.e2e
      r("pipeline.batch_kqps") = kmers.length / p.batch / 1e3
    } finally Seq(dir, warmDir).foreach(deleteTree)
  }
}
