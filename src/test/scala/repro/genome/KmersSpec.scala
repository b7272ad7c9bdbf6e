package repro.genome

import org.apache.spark.sql.functions._
import repro.SparkSpec

class KmersSpec extends SparkSpec {
  import spark.implicits._

  test("kmers of a short example") {
    assert(Kmers.kmers("ACGTA", 3) == Seq("ACG", "CGT", "GTA"))
  }

  test("kmers of sequence shorter than k is empty") {
    assert(Kmers.kmers("AC", 3).isEmpty)
    assert(Kmers.kmers("", 3).isEmpty)
  }

  test("kmers of sequence of exactly length k") {
    assert(Kmers.kmers("ACG", 3) == Seq("ACG"))
  }

  test("count equals |seq| - k + 1 for clean sequences") {
    val s = Dna.randomSequence(100, 3L)
    assert(Kmers.kmers(s, 31).size == 100 - 31 + 1)
  }

  test("windows containing an ambiguous base are skipped") {
    assert(Kmers.kmers("ACNGT", 2) == Seq("AC", "GT"))
    assert(Kmers.kmers("NNNNN", 2).isEmpty)
    assert(Kmers.kmers("ACGNACGT", 4) == Seq("ACGT"))
  }

  test("leading and trailing ambiguity handled") {
    assert(Kmers.kmers("NACGT", 3) == Seq("ACG", "CGT"))
    assert(Kmers.kmers("ACGTN", 3) == Seq("ACG", "CGT"))
  }

  test("soft-masked (lower-case) bases give the same upper-case k-mers") {
    assert(Kmers.kmers("acgTAcgt", 3) == Kmers.kmers("ACGTACGT", 3))
    assert(Kmers.kmers("acnGT", 2) == Seq("AC", "GT"))
  }

  test("kmers preserves duplicates, kmerSet does not") {
    val s = "AAAAA"
    assert(Kmers.kmers(s, 2) == Seq("AA", "AA", "AA", "AA"))
    assert(Kmers.kmerSet(s, 2) == Set("AA"))
  }

  test("default k is 31 (the paper's value)") {
    assert(Kmers.DefaultK == 31)
    val s = Dna.randomSequence(40, 11L)
    assert(Kmers.kmers(s).size == 10)
  }

  test("k <= 0 rejected") {
    intercept[IllegalArgumentException](Kmers.kmers("ACGT", 0))
  }

  test("every extracted kmer is a substring of the input") {
    val s = Dna.randomSequence(200, 17L)
    Kmers.kmers(s, 15).foreach(k => assert(s.contains(k)))
  }

  test("extraction matches brute force on sequences with Ns") {
    val base = Dna.randomSequence(80, 23L).toCharArray
    base(10) = 'N'; base(11) = 'N'; base(50) = 'N'
    val s = new String(base)
    val k = 7
    val brute = (0 to s.length - k).map(i => s.substring(i, i + k))
      .filter(Dna.isUnambiguous)
    assert(Kmers.kmers(s, k) == brute)
  }

  test("explodeKmers yields one row per distinct kmer") {
    val df = Seq((0, "ACGTA"), (1, "TTTTT")).toDF("file_id", "sequence")
    val rows = Kmers.explodeKmers(df, col("sequence"), 3)
      .select("file_id", "kmer").as[(Int, String)].collect().toSet
    assert(rows == Set((0, "ACG"), (0, "CGT"), (0, "GTA"), (1, "TTT")))
  }

  test("explodeKmers skips null and short sequences") {
    val df = Seq((0, "AC"), (1, "ACGT")).toDF("file_id", "sequence")
    val rows = Kmers.explodeKmers(df, col("sequence"), 3)
      .select("file_id").as[Int].collect()
    assert(rows.forall(_ == 1))
  }

  test("Spark extraction agrees with local kmerSet at scale") {
    val seqs = (0 until 20).map(i => (i, Dna.randomSequence(300, 100L + i)))
    val df = seqs.toDF("file_id", "sequence")
    val got = Kmers.explodeKmers(df, col("sequence"), 31)
      .select("file_id", "kmer").as[(Int, String)].collect()
      .groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap
    seqs.foreach { case (i, s) => assert(got(i) == Kmers.kmerSet(s, 31)) }
  }
}
