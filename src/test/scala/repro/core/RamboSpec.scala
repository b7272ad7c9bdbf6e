package repro.core

import repro.SparkSpec
import repro.eval.GroundTruth
import repro.genome.SynthGenomes
import repro.genome.SynthGenomes.CorpusSpec
import repro.util.{BitVector, Hashing}

class RamboSpec extends SparkSpec {
  import spark.implicits._

  private val spec = CorpusSpec(nFiles = 80, poolSize = 1500, totalPairs = 20000L,
    alpha = 0.8, seed = 31L)
  private val W = 8; private val D = 3
  private lazy val corpus = SynthGenomes.corpusLocal(spec)
  private lazy val truth = GroundTruth.fromLocal(corpus, spec.nFiles)
  private lazy val index = Rambo.buildLocal(corpus, spec.nFiles, W, D, m = 65536, eta = 3)

  test("index geometry: D*W columns, not N") {
    assert(index.matrix.numCols == W * D)
    assert(index.matrix.numCols < spec.nFiles)
    assert(index.m == 65536 && index.eta == 3)
  }

  test("cellsForFile: one cell per repetition, in that repetition's range") {
    (0 until spec.nFiles).foreach { f =>
      val cells = Rambo.cellsForFile(f, W, D)
      assert(cells.length == D)
      cells.zipWithIndex.foreach { case (c, r) =>
        assert(c >= r * W && c < (r + 1) * W, s"file $f rep $r cell $c")
      }
    }
  }

  test("cellsForFile matches the partition hash") {
    val cells = Rambo.cellsForFile(17, W, D)
    (0 until D).foreach { r =>
      assert(cells(r) == r * W + Hashing.partitionHash(17L, r, W))
    }
  }

  test("memberships partition the files within each repetition") {
    val ms = index.memberships
    (0 until D).foreach { r =>
      val union = BitVector.empty(spec.nFiles)
      var total = 0
      (0 until W).foreach { g =>
        total += ms(r * W + g).cardinality
        union.or(ms(r * W + g))
      }
      assert(total == spec.nFiles, s"rep $r covers $total files") // disjoint
      assert(union.cardinality == spec.nFiles)                    // exhaustive
    }
  }

  test("membership bitsets agree with the partition hash") {
    (0 until spec.nFiles).foreach { f =>
      (0 until D).foreach { r =>
        val g = Hashing.partitionHash(f.toLong, r, W)
        assert(index.memberships(r * W + g).get(f))
      }
    }
  }

  test("zero false negatives: every (file, kmer) pair is found") {
    corpus.foreach { case (f, kmer) =>
      assert(index.queryProbe(kmer).get(f), s"missed file $f for $kmer")
    }
  }

  test("probe and bitsliced paths agree") {
    val kmers = corpus.take(400).map(_._2) ++ SynthGenomes.negativeKmers(spec, 400)
    kmers.foreach(k => assert(index.queryProbe(k) == index.queryBitsliced(k)))
  }

  test("query result is always a superset of truth") {
    truth.byKmer.take(300).foreach { case (kmer, files) =>
      val got = index.queryProbe(kmer)
      files.setBits.foreach(f => assert(got.get(f)))
    }
  }

  test("result is the intersection of per-repetition unions (Algorithm 2)") {
    val kmer = SynthGenomes.poolKmer(spec, 3)
    val pos = index.positions(kmer)
    val expected = (0 until D).map { r =>
      val u = BitVector.empty(spec.nFiles)
      (0 until W).foreach { g =>
        if (pos.forall(index.matrix.get(_, r * W + g)))
          u.or(index.memberships(r * W + g))
      }
      u
    }.reduce { (a, b) => a.and(b); a }
    assert(index.queryProbe(kmer) == expected)
  }

  test("resolve equals the per-repetition union/intersection reference") {
    // Algorithm 2 as a plain loop over all W·D cells.
    def reference(idx: RamboIndex, hits: BitVector): BitVector =
      (0 until idx.d).map { r =>
        val u = BitVector.empty(idx.numFiles)
        (0 until idx.w).foreach(g => if (hits.get(r * idx.w + g)) u.or(idx.memberships(r * idx.w + g)))
        u
      }.reduce { (a, b) => a.and(b); a }
    val rnd = new scala.util.Random(29)
    val (w, d) = (100, 3) // repetition boundaries at cells 100 and 200 fall mid-word
    for (n <- Seq(1, 63, 64, 65, 3480)) {
      val idx = new RamboIndex(n, w, d, 1, new BitMatrix(1, w * d))
      def random(p: Double) = BitVector.of(w * d, (0 until w * d).filter(_ => rnd.nextDouble() < p))
      val randoms = Seq(0.01, 0.05, 0.2, 0.5, 0.9).flatMap(p => Seq.fill(10)(random(p)))
      val oneRepEmpty = (0 until d).map(r =>
        BitVector.of(w * d, random(0.5).setBits.filterNot(_ / w == r)))
      val cases = Seq(BitVector.empty(w * d), BitVector.full(w * d)) ++ randoms ++ oneRepEmpty
      cases.foreach(h => assert(idx.resolve(h) == reference(idx, h), s"n=$n hits=${h.setBits.toSeq}"))
      assert(idx.resolve(BitVector.full(w * d)) == BitVector.full(n))
      assert(idx.resolve(BitVector.empty(w * d)).cardinality == 0)
      intercept[IllegalArgumentException](idx.resolve(BitVector.empty(w * d - 1)))
    }
  }

  test("oversized filters recover the exact candidate intersection") {
    // With no Bloom FPs, the result is exactly ∩_d (union of cells holding a
    // true file) — which contains truth and only files colliding with truth
    // in every repetition.
    val exact = Rambo.buildLocal(corpus, spec.nFiles, W, D, m = 1 << 21, eta = 4)
    truth.byKmer.take(200).foreach { case (kmer, files) =>
      val expected = (0 until D).map { r =>
        val u = BitVector.empty(spec.nFiles)
        files.setBits.foreach { f =>
          u.or(exact.memberships(r * W + Hashing.partitionHash(f.toLong, r, W)))
        }
        u
      }.reduce { (a, b) => a.and(b); a }
      assert(exact.queryProbe(kmer) == expected)
    }
  }

  test("universal negatives return (almost) nothing at comfortable size") {
    val negs = SynthGenomes.negativeKmers(spec, 500)
    var fp = 0L
    negs.foreach(k => fp += index.queryProbe(k).cardinality)
    // per-file fp ~ cellfp^3 with cellfp tiny at m=65536 for ~4k keys/cell
    assert(fp.toDouble / (negs.size.toLong * spec.nFiles) < 0.001, s"fp=$fp")
  }

  test("RAMBO intersection suppresses FP below a single merged filter") {
    val small = Rambo.buildLocal(corpus, spec.nFiles, W, D, m = 8192, eta = 3)
    val negs = SynthGenomes.negativeKmers(spec, 400)
    // cell-level FP: how often a single cell filter fires on a negative
    var cellHits = 0L
    negs.foreach { k =>
      val pos = small.positions(k)
      cellHits += small.matrix.probe(pos).cardinality
    }
    val cellFp = cellHits.toDouble / (negs.size.toLong * W * D)
    var fileHits = 0L
    negs.foreach(k => fileHits += small.queryProbe(k).cardinality)
    val indexFp = fileHits.toDouble / (negs.size.toLong * spec.nFiles)
    assert(indexFp < cellFp, s"indexFp=$indexFp cellFp=$cellFp")
  }

  test("Spark build is bit-identical to local build") {
    val df = corpus.toDF("file_id", "kmer")
    val viaSpark = Rambo.buildSpark(df, spec.nFiles, W, D, 65536, 3)
    (0 until W * D).foreach { c =>
      assert(viaSpark.matrix.column(c) == index.matrix.column(c), s"cell $c")
    }
  }

  test("Spark-built index answers queries identically") {
    val df = corpus.toDF("file_id", "kmer")
    val viaSpark = Rambo.buildSpark(df, spec.nFiles, W, D, 65536, 3)
    (corpus.take(100).map(_._2) ++ SynthGenomes.negativeKmers(spec, 100)).foreach { k =>
      assert(viaSpark.queryProbe(k) == index.queryProbe(k))
    }
  }

  test("cell filter equals the merged filter of its member files") {
    import repro.bloom.BloomFilter
    val byFile = corpus.groupBy(_._1)
    val cell = 1 * W + 3 // repetition 1, group 3
    val members = index.memberships(cell).setBits
    val direct = new BloomFilter(65536, 3)
    members.foreach(f => byFile.getOrElse(f, Seq.empty).foreach { case (_, k) => direct.insert(k) })
    assert(index.columns(cell).bits == direct.bits)
  }

  test("adding a dataset touches only its D cells (online update property)") {
    val newFile = spec.nFiles - 1
    val without = corpus.filterNot(_._1 == newFile)
    val idxWithout = Rambo.buildLocal(without, spec.nFiles, W, D, 65536, 3)
    val touched = Rambo.cellsForFile(newFile, W, D).toSet
    (0 until W * D).foreach { c =>
      if (!touched.contains(c))
        assert(idxWithout.matrix.column(c) == index.matrix.column(c), s"cell $c changed")
    }
  }

  test("indexBytes accounts for filters and memberships") {
    val filters = 65536L * W * D / 8
    val members = (W * D).toLong * BitVector.wordsFor(spec.nFiles) * 8
    assert(index.indexBytes == filters + members)
  }

  test("bad geometry rejected") {
    intercept[IllegalArgumentException](new RamboIndex(10, 0, 3, 2, new BitMatrix(64, 1)))
    intercept[IllegalArgumentException](new RamboIndex(10, 2, 3, 2, new BitMatrix(64, 5)))
    intercept[IllegalArgumentException](new RamboIndex(10, 2, 3, 0, new BitMatrix(64, 6)))
  }

  test("W*D can exceed N and still work (degenerate geometry)") {
    val pairs = corpus.take(50).filter(_._1 < 10)
    assert(pairs.nonEmpty)
    val idx = Rambo.buildLocal(pairs, 10, 16, 2, 4096, 3)
    pairs.foreach { case (f, k) =>
      assert(idx.queryProbe(k).get(f))
    }
  }
}
