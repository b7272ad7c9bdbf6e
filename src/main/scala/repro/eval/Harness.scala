package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{Bigsi, MembershipIndex, Rambo}
import repro.genome.SynthGenomes
import repro.genome.SynthGenomes.CorpusSpec

/** Shared experiment driver for the reproduced tables (DESIGN.md §4): builds
  * an index over a cached corpus, measures its empirical FP rate on a shared
  * workload, times both query paths, and renders fixed-width result tables.
  * `bench/` suites and the `repro.jobs.Tables` main both call into this, so
  * the two always run identical experiments.
  */
object Harness {

  /** One row of a sweep table. */
  final case class SweepPoint(
      method: String,
      eta: Int,
      mBits: Int,
      fpPct: Double,
      usProbe: Double,
      usBitsliced: Double,
      indexMB: Double,
      buildSec: Double)

  /** A corpus prepared once and shared across all sweep points of a table. */
  final case class ExperimentData(
      spec: CorpusSpec,
      corpusDf: DataFrame,
      queries: IndexedSeq[Workload.Query]) {
    def kmers: IndexedSeq[String] = queries.map(_.kmer)
    def numFiles: Int = spec.nFiles
  }

  /** Generate and cache a corpus; derive its workload, inverting only its k-mers' rows. */
  def prepare(spark: SparkSession, spec: CorpusSpec,
              nPositive: Int, nNegative: Int): ExperimentData = {
    import spark.implicits._
    val df = SynthGenomes.corpus(spark, spec).cache()
    df.count() // materialise so build timings exclude generation
    val wanted = Workload.candidates(spec, nPositive, nNegative).distinct.toDF("kmer")
    val rows = df.join(wanted, Seq("kmer"), "left_semi").select("file_id", "kmer").as[(Int, String)]
    val truth = GroundTruth.fromLocal(rows.collect(), spec.nFiles)
    ExperimentData(spec, df, Workload.queries(spec, truth, nPositive, nNegative))
  }

  /** Average number of distinct k-mers per file — the `n` of BIGSI's sizing. */
  def avgKmersPerFile(data: ExperimentData): Double =
    data.corpusDf.count().toDouble / data.spec.nFiles

  /** Average number of distinct k-mers per RAMBO cell for a (w, d) geometry —
    * the `n` of RAMBO's sizing. Smaller than (files-per-cell × k-mers-per-file)
    * exactly when the corpus has cross-file redundancy. Each row is fanned
    * out to its file's cells by a lookup in [[repro.core.Rambo.fileCells]].
    */
  def avgKmersPerCell(data: ExperimentData, w: Int, d: Int): Double = {
    val fileCells = Rambo.fileCells(data.numFiles, w, d)
    val cellsUdf = udf((fileId: Int) => fileCells(fileId))
    data.corpusDf.select(explode(cellsUdf(col("file_id"))) as "col", col("kmer"))
      .distinct().count().toDouble / (w * d)
  }

  /** Build + evaluate one BIGSI sweep point. */
  def runBigsi(data: ExperimentData, m: Int, eta: Int): SweepPoint =
    evaluate("BIGSI", data)(Bigsi.buildSpark(data.corpusDf, data.numFiles, m, eta))

  /** Build + evaluate one RAMBO sweep point. */
  def runRambo(data: ExperimentData, w: Int, d: Int, m: Int, eta: Int): SweepPoint =
    evaluate(s"RAMBO(W=$w,D=$d)", data)(
      Rambo.buildSpark(data.corpusDf, data.numFiles, w, d, m, eta))

  /** Time `build`, then score the built index: FP rate (failing on any false
    * negative), µs/query on both query paths, and index size.
    */
  private def evaluate(method: String, data: ExperimentData)(build: => MembershipIndex): SweepPoint = {
    val (index, buildSec) = Timer.timed(build)
    val ev = FprEval.evaluate(index.queryProbe, data.queries, data.numFiles)
    require(ev.falseNegatives == 0,
      s"$method produced ${ev.falseNegatives} false negatives — Bloom filters cannot miss")
    val usProbe = Timer.microsPerQuery(index.queryProbe, data.kmers)
    val usBits  = Timer.microsPerQuery(index.queryBitsliced, data.kmers)
    SweepPoint(method, index.eta, index.m, ev.fpPercent, usProbe, usBits,
      index.indexBytes / 1024.0 / 1024.0, buildSec)
  }

  /** Render sweep points as the fixed-width table EXPERIMENTS.md records. */
  def formatTable(title: String, rows: Seq[SweepPoint]): String = {
    val sb = new StringBuilder
    sb.append(s"== $title ==\n")
    sb.append(f"${"method"}%-18s ${"eta"}%3s ${"m_bits"}%9s ${"FP_%"}%9s " +
              f"${"us/q_probe"}%10s ${"us/q_slice"}%10s ${"index_MB"}%9s ${"build_s"}%8s\n")
    rows.foreach { p =>
      sb.append(f"${p.method}%-18s ${p.eta}%3d ${p.mBits}%9d ${p.fpPct}%9.4f " +
                f"${p.usProbe}%10.2f ${p.usBitsliced}%10.2f ${p.indexMB}%9.3f ${p.buildSec}%8.2f\n")
    }
    sb.toString
  }
}
