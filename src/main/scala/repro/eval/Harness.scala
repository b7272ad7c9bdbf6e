package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{Bigsi, MembershipIndex, Rambo}
import repro.genome.SynthGenomes
import repro.genome.SynthGenomes.CorpusSpec

/** Shared experiment driver for the reproduced tables (DESIGN.md §4): builds
  * an index over a cached corpus and measures its empirical FP rate on a
  * shared workload ([[Scored]]), then times both query paths of a table's
  * points together, giving one [[SweepPoint]] row per point.
  * [[Experiments]] assembles these rows into T1–T5, so the `bench/` suites
  * and the `repro.jobs.Tables` main always run identical experiments.
  */
object Harness {

  /** One row of a sweep table. Each µs/query field is the median of
    * [[Timer.microsPerQuery]]'s samples, with their IQR beside it.
    */
  final case class SweepPoint(
      method: String,
      eta: Int,
      mBits: Int,
      fpPct: Double,
      usProbe: Double,
      usProbeIqr: Double,
      usBitsliced: Double,
      usBitslicedIqr: Double,
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

  /** Generate and cache a corpus; derive its workload from its k-mers' rows, picked by a filter. */
  def prepare(spark: SparkSession, spec: CorpusSpec,
              nPositive: Int, nNegative: Int): ExperimentData = {
    import spark.implicits._
    val df = SynthGenomes.corpus(spark, spec).cache()
    df.count() // materialise so build timings exclude generation
    val rows = df.where(col("kmer").isin(Workload.candidates(spec, nPositive, nNegative): _*)).as[(Int, String)]
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

  /** An index built over `data` and scored, its timings still to be taken by [[time]]. */
  final case class Scored(method: String, data: ExperimentData, index: MembershipIndex,
                          fpPct: Double, buildSec: Double)

  /** Build + score one BIGSI sweep point. */
  def runBigsi(data: ExperimentData, m: Int, eta: Int): Scored =
    score("BIGSI", data)(Bigsi.buildSpark(data.corpusDf, data.numFiles, m, eta))

  /** Build + score one RAMBO sweep point. */
  def runRambo(data: ExperimentData, w: Int, d: Int, m: Int, eta: Int): Scored =
    score(s"RAMBO(W=$w,D=$d)", data)(
      Rambo.buildSpark(data.corpusDf, data.numFiles, w, d, m, eta))

  /** Time `build`, then score the built index's FP rate, failing on any false negative. */
  private def score(method: String, data: ExperimentData)(build: => MembershipIndex): Scored = {
    val (index, buildSec) = Timer.timed(build)
    val ev = FprEval.evaluate(index.queryProbe, data.queries, data.numFiles)
    require(ev.falseNegatives == 0,
      s"$method produced ${ev.falseNegatives} false negatives — Bloom filters cannot miss")
    Scored(method, data, index, ev.fpPercent, buildSec)
  }

  /** The rows of `points`: µs/query on both query paths (median and IQR), with
    * every path of every point timed in one round-robin [[Timer.microsPerQuery]],
    * and the index size in MB (10⁶ bytes).
    */
  def time(points: Seq[Scored]): Seq[SweepPoint] = {
    val us = Timer.microsPerQuery(points.flatMap { p =>
      val kmers = p.data.kmers
      Seq((p.index.queryProbe _, kmers), (p.index.queryBitsliced _, kmers))
    })
    points.indices.map { i =>
      val (p, probe, bits) = (points(i), us(2 * i), us(2 * i + 1))
      SweepPoint(p.method, p.index.eta, p.index.m, p.fpPct, probe.median, probe.iqr,
        bits.median, bits.iqr, p.index.indexBytes / 1e6, p.buildSec)
    }
  }
}
