package repro.core

import repro.SparkSpec
import repro.eval.GroundTruth
import repro.genome.SynthGenomes
import repro.genome.SynthGenomes.CorpusSpec
import repro.util.Hashing

class BigsiSpec extends SparkSpec {
  import spark.implicits._

  private val spec = CorpusSpec(nFiles = 60, poolSize = 1200, totalPairs = 15000L,
    alpha = 0.8, seed = 21L)
  private lazy val corpus = SynthGenomes.corpusLocal(spec)
  private lazy val truth = GroundTruth.fromLocal(corpus, spec.nFiles)
  private lazy val index = Bigsi.buildLocal(corpus, spec.nFiles, m = 16384, eta = 3)

  test("index geometry") {
    assert(index.numFiles == 60)
    assert(index.matrix.numCols == 60)
    assert(index.m == 16384 && index.eta == 3)
  }

  test("zero false negatives: every (file, kmer) pair is found") {
    corpus.foreach { case (f, kmer) =>
      assert(index.queryProbe(kmer).get(f), s"missed file $f for $kmer")
    }
  }

  test("probe and bitsliced paths agree on present kmers") {
    corpus.take(500).foreach { case (_, kmer) =>
      assert(index.queryProbe(kmer) == index.queryBitsliced(kmer))
    }
  }

  test("probe and bitsliced paths agree on absent kmers") {
    SynthGenomes.negativeKmers(spec, 500).foreach { kmer =>
      assert(index.queryProbe(kmer) == index.queryBitsliced(kmer))
    }
  }

  test("query result is always a superset of truth") {
    truth.byKmer.take(300).foreach { case (kmer, files) =>
      val got = index.queryProbe(kmer)
      files.setBits.foreach(f => assert(got.get(f)))
    }
  }

  test("FP rate on universal negatives is near Bloom theory") {
    val nPerFile = corpus.groupBy(_._1).map(_._2.size).sum.toDouble / spec.nFiles
    val want = repro.bloom.BloomParams.falsePositiveRate(16384, 3, nPerFile.toLong)
    val negs = SynthGenomes.negativeKmers(spec, 1000)
    var fp = 0L
    negs.foreach(k => fp += index.queryProbe(k).cardinality)
    val got = fp.toDouble / (negs.size.toLong * spec.nFiles)
    assert(got < want * 3 + 0.003, s"fp=$got theory=$want")
  }

  test("oversized filters give exact results") {
    val exact = Bigsi.buildLocal(corpus, spec.nFiles, m = 1 << 20, eta = 4)
    truth.byKmer.take(200).foreach { case (kmer, files) =>
      assert(exact.queryProbe(kmer) == files)
    }
    SynthGenomes.negativeKmers(spec, 200).foreach { k =>
      assert(exact.queryProbe(k).cardinality == 0)
    }
  }

  test("Spark build is bit-identical to local build") {
    val df = corpus.toDF("file_id", "kmer")
    val viaSpark = Bigsi.buildSpark(df, spec.nFiles, 16384, 3)
    (0 until spec.nFiles).foreach { f =>
      assert(viaSpark.matrix.column(f) == index.matrix.column(f), s"file $f")
    }
  }

  test("Spark-built index answers queries identically") {
    val df = corpus.toDF("file_id", "kmer")
    val viaSpark = Bigsi.buildSpark(df, spec.nFiles, 16384, 3)
    (corpus.take(100).map(_._2) ++ SynthGenomes.negativeKmers(spec, 100)).foreach { k =>
      assert(viaSpark.queryProbe(k) == index.queryProbe(k))
    }
  }

  test("positions hashes once with the shared hash functions") {
    val kmer = SynthGenomes.poolKmer(spec, 0)
    assert(index.positions(kmer).toSeq ==
      Hashing.bloomPositions(kmer, 16384, 3).toSeq)
  }

  test("indexBytes is m*N/8") {
    assert(index.indexBytes == 16384L * 60 / 8)
  }

  test("a file with no kmers matches nothing it shouldn't") {
    // file ids are dense 0..N-1; craft a corpus leaving file 3 empty
    val tiny = Seq((0, "ACGTACGTACGTACGTACGTACGTACGTACG"), (1, "TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT"))
    val idx = Bigsi.buildLocal(tiny, 4, 4096, 3)
    assert(!idx.queryProbe(tiny.head._2).get(3))
    assert(idx.queryProbe(tiny.head._2).get(0))
  }

  test("column count mismatch is rejected") {
    intercept[IllegalArgumentException](new BigsiIndex(5, 2, new BitMatrix(64, 4)))
    // eta = 0 would probe no positions, so every column would "hit".
    intercept[IllegalArgumentException](new BigsiIndex(4, 0, new BitMatrix(64, 4)))
  }
}
