package repro.eval

import repro.{Oracle, SparkSpec}
import repro.genome.SynthGenomes
import repro.genome.SynthGenomes.CorpusSpec

class GroundTruthSpec extends SparkSpec {
  import spark.implicits._

  private val spec = CorpusSpec(nFiles = 30, poolSize = 500, totalPairs = 5000L,
    alpha = 0.8, seed = 51L)
  private lazy val local = SynthGenomes.corpusLocal(spec)
  private lazy val corpusDf = local.toDF("file_id", "kmer")

  test("fromLocal inverts the corpus") {
    val gt = GroundTruth.fromLocal(local, spec.nFiles)
    local.foreach { case (f, k) => assert(gt.filesOf(k).get(f)) }
    val pairCount = gt.byKmer.values.map(_.cardinality.toLong).sum
    assert(pairCount == local.size)
  }

  test("filesOf on an absent kmer is empty") {
    val gt = GroundTruth.fromLocal(local, spec.nFiles)
    val absent = SynthGenomes.negativeKmers(spec, 1).head
    assert(gt.filesOf(absent).cardinality == 0)
    assert(!gt.isPresent(absent))
  }

  test("docFreq matches corpus counts") {
    val gt = GroundTruth.fromLocal(local, spec.nFiles)
    val byKmer = local.groupBy(_._2).view.mapValues(_.size)
    byKmer.take(100).foreach { case (k, n) => assert(gt.docFreq(k) == n) }
  }

  test("oracle: Spark ground-truth inversion matches DuckDB") {
    // The per-kmer document frequency computed via Spark groupBy must equal
    // the same SQL on DuckDB over the identical corpus table.
    val sparkDf = corpusDf.groupBy($"kmer")
      .agg(org.apache.spark.sql.functions.countDistinct($"file_id") as "df")
    Oracle.assertEquivalent(
      sparkDf,
      "SELECT kmer, count(DISTINCT file_id) AS df FROM corpus GROUP BY kmer",
      "corpus" -> corpusDf)
  }

  test("oracle: truthDf containment join matches DuckDB") {
    val queries = (local.take(20).map(_._2) ++ SynthGenomes.negativeKmers(spec, 5))
      .zipWithIndex.map { case (k, i) => (i.toLong, k) }
      .toDF("qid", "kmer")
    val got = GroundTruth.truthDf(spark, queries, corpusDf)
    Oracle.assertEquivalent(
      got,
      "SELECT DISTINCT q.qid AS qid, c.file_id AS file_id " +
        "FROM queries q JOIN corpus c ON q.kmer = c.kmer",
      "queries" -> queries, "corpus" -> corpusDf)
  }

  test("truthDf of absent kmers is empty") {
    val queries = SynthGenomes.negativeKmers(spec, 10)
      .zipWithIndex.map { case (k, i) => (i.toLong, k) }.toDF("qid", "kmer")
    assert(GroundTruth.truthDf(spark, queries, corpusDf).count() == 0)
  }
}
