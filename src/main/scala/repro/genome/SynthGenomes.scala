package repro.genome

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.util.Hashing

/** Synthetic genome corpus — the substitute for the paper's NCBI assembly
  * subsets (DESIGN.md §3).
  *
  * The corpus is a set of `nFiles` datasets ("FASTA files"), each a set of
  * 31-mers drawn from a shared pool of `poolSize` distinct k-mers. Pool k-mer
  * `i` has a Zipf(`alpha`) document frequency: it appears in
  * `df(i) ∝ 1/(i+1)^alpha` of the files (clamped to `[1, nFiles]`, scaled so
  * the corpus totals ≈ `totalPairs` (file, k-mer) pairs). Head k-mers are
  * shared by many files and the long tail is file-private — exactly the
  * cross-dataset redundancy ("significant multiplicity of the k-mers") that
  * RAMBO's merged filters exploit, with `alpha` as the redundancy knob.
  *
  * Everything is deterministic in `seed`: pool k-mers come from a splitmix
  * stream and file assignment from Murmur draws, so Spark-generated corpora,
  * locally-generated ground truth and the DuckDB oracle all agree bit-for-bit.
  */
object SynthGenomes {

  /** Corpus shape parameters.
    *
    * @param nFiles     number of datasets N (paper subsets: 3480 and 2500)
    * @param poolSize   distinct k-mers in the shared pool
    * @param totalPairs target number of (file, k-mer) pairs before dedup
    * @param alpha      Zipf exponent of the document-frequency distribution
    * @param k          k-mer length (paper: 31)
    * @param seed       master seed
    */
  final case class CorpusSpec(
      nFiles: Int,
      poolSize: Int,
      totalPairs: Long,
      alpha: Double = 1.0,
      k: Int = Kmers.DefaultK,
      seed: Long = 42L) {
    require(nFiles > 0 && poolSize > 0 && totalPairs > 0)
    require(k > 0 && k <= 31, s"k must be in 1..31, got $k")

    /** Scale constant so nominal document frequencies sum to ~totalPairs. */
    lazy val zipfScale: Double = {
      var norm = 0.0
      var i = 0
      while (i < poolSize) { norm += math.pow(i + 1.0, -alpha); i += 1 }
      totalPairs / norm
    }

    /** Nominal document frequency of pool k-mer `i` (before per-file dedup). */
    def docFreq(i: Int): Int = {
      val raw = math.round(zipfScale * math.pow(i + 1.0, -alpha))
      math.max(1L, math.min(nFiles.toLong, raw)).toInt
    }
  }

  /** Deterministic pool k-mer `i` (uniform over 4^k; collisions negligible). */
  def poolKmer(spec: CorpusSpec, i: Long): String =
    Dna.randomKmer(spec.k, Hashing.splitmix64(spec.seed ^ (i * 0x9e3779b97f4a7c15L)))

  /** File that hosts replica `rep` of pool k-mer `i`. */
  def hostFile(spec: CorpusSpec, i: Long, rep: Int): Int = {
    val h = Hashing.murmur64(i * 1000003L + rep, spec.seed)
    val r = (h % spec.nFiles).toInt
    if (r < 0) r + spec.nFiles else r
  }

  /** The distinct files that hold pool k-mer `i`, in replica order: its `docFreq(i)`
    * replicas' host files, repeats removed. The corpus's only dedup rule.
    */
  def hostFiles(spec: CorpusSpec, i: Int): Array[Int] = {
    val files = new Array[Int](spec.docFreq(i))
    val seen = scala.collection.mutable.BitSet.empty
    var n = 0
    var rep = 0
    while (rep < files.length) {
      val f = hostFile(spec, i, rep)
      if (seen.add(f)) { files(n) = f; n += 1 }
      rep += 1
    }
    if (n == files.length) files else java.util.Arrays.copyOf(files, n)
  }

  /** The corpus as a distinct (file_id: Int, kmer: String) DataFrame, generated
    * with no shuffle: range over the pool → the k-mer string once per pool
    * k-mer → explode its [[hostFiles]].
    */
  def corpus(spark: SparkSession, spec: CorpusSpec): DataFrame = {
    val kmerUdf  = udf((i: Long) => poolKmer(spec, i))
    val filesUdf = udf((i: Long) => hostFiles(spec, i.toInt))
    spark.range(spec.poolSize)
      .select(col("id"), kmerUdf(col("id")) as "kmer")
      .select(explode(filesUdf(col("id"))) as "file_id", col("kmer"))
  }

  /** Driver-side reference generation of the same corpus, in pool order
    * (tests compare the Spark DataFrame against this bit-for-bit).
    */
  def corpusLocal(spec: CorpusSpec): Seq[(Int, String)] = {
    val out = Vector.newBuilder[(Int, String)]
    (0 until spec.poolSize).foreach { i =>
      val kmer = poolKmer(spec, i)
      hostFiles(spec, i).foreach(f => out += ((f, kmer)))
    }
    out.result()
  }

  /** Random k-mers guaranteed (w.h.p.) absent from the pool — negative
    * queries. Drawn from a seed stream disjoint from the pool's.
    */
  def negativeKmers(spec: CorpusSpec, n: Int, seed: Long = 7L): Seq[String] =
    (0 until n).map(i =>
      Dna.randomKmer(spec.k, Hashing.splitmix64(~spec.seed ^ seed ^ (i * 0x94d049bb133111ebL))))

  /** Write a small corpus of FASTA files (one per dataset) under `dir` for the
    * end-to-end path. Each file holds `contigs` records; contig sequences mix
    * shared blocks (drawn from `sharedBlocks` global blocks, giving
    * cross-file redundancy) with file-private sequence.
    */
  def writeFastaCorpus(
      dir: java.nio.file.Path,
      nFiles: Int,
      contigs: Int = 2,
      contigLen: Int = 400,
      sharedBlocks: Int = 4,
      seed: Long = 11L): Seq[java.nio.file.Path] = {
    val blocks = (0 until sharedBlocks)
      .map(b => Dna.randomSequence(contigLen / 2, Hashing.splitmix64(seed ^ (b + 1).toLong)))
    (0 until nFiles).map { f =>
      val recs = (0 until contigs).map { c =>
        val shared  = blocks((f + c) % sharedBlocks)
        val priv    = Dna.randomSequence(contigLen - shared.length,
                        Hashing.splitmix64(seed + f * 1013L + c))
        Fasta.Record(s"file$f|contig$c", shared + priv)
      }
      Fasta.write(dir.resolve(f"file$f%04d.fasta"), recs)
    }
  }
}
