package repro.core

import repro.{Oracle, SparkSpec}
import repro.eval.GroundTruth
import repro.genome.SynthGenomes
import repro.genome.SynthGenomes.CorpusSpec

class QueryEngineSpec extends SparkSpec {
  import spark.implicits._

  private val spec = CorpusSpec(nFiles = 40, poolSize = 600, totalPairs = 6000L,
    alpha = 0.8, seed = 81L)
  private lazy val local = SynthGenomes.corpusLocal(spec)
  private lazy val corpusDf = local.toDF("file_id", "kmer").cache()

  private lazy val queriesDf = {
    // Positives restricted to low document frequency: a file not containing
    // the query is falsely reported iff it shares a cell with a true file in
    // every repetition, probability ≈ (df/W)^D — keep df small so the
    // FP-free-index oracle comparisons below are exact.
    val byKmer = local.groupBy(_._2).view.mapValues(_.size)
    val pos = local.map(_._2).distinct.filter(k => byKmer(k) <= 5).take(30)
    val neg = SynthGenomes.negativeKmers(spec, 10)
    (pos ++ neg).zipWithIndex.map { case (k, i) => (i.toLong, k) }.toDF("qid", "kmer")
  }

  test("oracle: FP-free RAMBO batch results equal the exact containment SQL") {
    // Oversized filters drive Bloom FP to ~0 and at W=40,D=6 the repetition
    // collision probability for df<=5 truths is ~(5/40)^6, so the DataFrame
    // results must be the exact relational join — which DuckDB verifies
    // independently.
    val index = Rambo.buildSpark(corpusDf, spec.nFiles, w = 40, d = 6, m = 65536, eta = 4)
    val got = QueryEngine.query(spark, queriesDf, index)
    Oracle.assertEquivalent(
      got,
      "SELECT DISTINCT q.qid AS qid, c.file_id AS file_id " +
        "FROM queries q JOIN corpus c ON q.kmer = c.kmer",
      "queries" -> queriesDf, "corpus" -> corpusDf)
  }

  test("oracle: FP-free BIGSI batch results equal the exact containment SQL") {
    val index = Bigsi.buildSpark(corpusDf, spec.nFiles, m = 1 << 20, eta = 4)
    val got = QueryEngine.query(spark, queriesDf, index)
    Oracle.assertEquivalent(
      got,
      "SELECT DISTINCT q.qid AS qid, c.file_id AS file_id " +
        "FROM queries q JOIN corpus c ON q.kmer = c.kmer",
      "queries" -> queriesDf, "corpus" -> corpusDf)
  }

  test("batch RAMBO results match driver-side queries row for row") {
    val index = Rambo.buildSpark(corpusDf, spec.nFiles, w = 8, d = 3, m = 32768, eta = 3)
    val got = QueryEngine.query(spark, queriesDf, index)
      .as[(Long, Int)].collect().toSet
    val want = queriesDf.as[(Long, String)].collect().flatMap { case (qid, kmer) =>
      index.queryProbe(kmer).setBits.map(f => (qid, f))
    }.toSet
    assert(got == want)
  }

  test("batch BIGSI results match driver-side queries row for row") {
    val index = Bigsi.buildSpark(corpusDf, spec.nFiles, m = 8192, eta = 3)
    val got = QueryEngine.query(spark, queriesDf, index)
      .as[(Long, Int)].collect().toSet
    val want = queriesDf.as[(Long, String)].collect().flatMap { case (qid, kmer) =>
      index.queryProbe(kmer).setBits.map(f => (qid, f))
    }.toSet
    assert(got == want)
  }

  test("batch results are supersets of truth even with small filters") {
    val index = Rambo.buildSpark(corpusDf, spec.nFiles, w = 8, d = 3, m = 16384, eta = 3)
    val got = QueryEngine.query(spark, queriesDf, index)
      .as[(Long, Int)].collect().toSet
    val truth = GroundTruth.truthDf(spark, queriesDf, corpusDf)
      .as[(Long, Int)].collect().toSet
    assert(truth.subsetOf(got))
  }

  test("an index survives Java serialization (the broadcast) with identical answers") {
    def roundTrip[T <: MembershipIndex](index: T): T = {
      val bytes = new java.io.ByteArrayOutputStream()
      val out = new java.io.ObjectOutputStream(bytes)
      out.writeObject(index); out.close()
      new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
        .readObject().asInstanceOf[T]
    }
    val kmers = local.take(200).map(_._2) ++ SynthGenomes.negativeKmers(spec, 200)
    Seq(Rambo.buildLocal(local, spec.nFiles, w = 8, d = 3, m = 16384, eta = 3),
        Bigsi.buildLocal(local, spec.nFiles, m = 8192, eta = 3)).foreach { index =>
      val copy = roundTrip(index)
      assert(copy ne index)
      kmers.foreach { k =>
        assert(copy.queryProbe(k) == index.queryProbe(k), k)
        assert(copy.queryBitsliced(k) == index.queryBitsliced(k), k)
      }
    }
  }

  test("negative-only batch against oversized index returns nothing") {
    val negDf = SynthGenomes.negativeKmers(spec, 20)
      .zipWithIndex.map { case (k, i) => (i.toLong, k) }.toDF("qid", "kmer")
    val index = Rambo.buildSpark(corpusDf, spec.nFiles, w = 16, d = 4, m = 65536, eta = 4)
    assert(QueryEngine.query(spark, negDf, index).count() == 0)
  }
}
