package repro.genome

import java.nio.file.Files

import repro.SparkSpec

class FastaSpec extends SparkSpec {
  import Fasta.Record

  test("format wraps sequence lines") {
    val text = Fasta.format(Seq(Record("h", "ACGTACGT")), wrap = 3)
    assert(text == ">h\nACG\nTAC\nGT\n")
  }

  test("format handles multiple records") {
    val text = Fasta.format(Seq(Record("a", "AC"), Record("b", "GT")), wrap = 70)
    assert(text == ">a\nAC\n>b\nGT\n")
  }

  test("parse inverts format for random records") {
    val recs = (0 until 5).map(i => Record(s"contig$i desc", Dna.randomSequence(137, i.toLong)))
    Seq(7, 60, 70, 200).foreach { wrap =>
      assert(Fasta.parse(Fasta.format(recs, wrap)) == recs, s"wrap=$wrap")
    }
  }

  test("parse joins wrapped lines") {
    assert(Fasta.parse(">x\nAC\nGT\n") == Seq(Record("x", "ACGT")))
  }

  test("parse ignores blank lines and trims headers") {
    assert(Fasta.parse("\n>  x  \nAC\n\nGT\n\n") == Seq(Record("x", "ACGT")))
  }

  test("parse of empty text is empty") {
    assert(Fasta.parse("").isEmpty)
    assert(Fasta.parse("\n\n").isEmpty)
  }

  test("parse allows a header with empty sequence") {
    assert(Fasta.parse(">empty\n>full\nAC\n") == Seq(Record("empty", ""), Record("full", "AC")))
  }

  test("parse rejects sequence before first header") {
    intercept[IllegalArgumentException](Fasta.parse("ACGT\n>h\nAC\n"))
  }

  test("format rejects non-positive wrap") {
    intercept[IllegalArgumentException](Fasta.format(Seq(Record("h", "AC")), 0))
  }

  test("write creates a parseable file") {
    val dir = Files.createTempDirectory("fasta")
    val recs = Seq(Record("r1", Dna.randomSequence(90, 5L)))
    val p = Fasta.write(dir.resolve("x.fasta"), recs)
    assert(Fasta.parse(new String(Files.readAllBytes(p))) == recs)
  }

  test("readDirectory parses a directory of FASTA files via Spark") {
    import spark.implicits._
    val dir = Files.createTempDirectory("fastadir")
    val recsA = Seq(Record("a1", "ACGTACGTAC"), Record("a2", "TTTTGGGG"))
    val recsB = Seq(Record("b1", "CCCCAAAA"))
    Fasta.write(dir.resolve("a.fasta"), recsA)
    Fasta.write(dir.resolve("b.fasta"), recsB)
    val got = Fasta.readDirectory(spark, dir.toString)
      .select("file_name", "header", "sequence").as[(String, String, String)]
      .collect().toSet
    assert(got == Set(
      ("a.fasta", "a1", "ACGTACGTAC"), ("a.fasta", "a2", "TTTTGGGG"),
      ("b.fasta", "b1", "CCCCAAAA")))
  }

  test("readDirectory + explodeKmers gives per-file kmer sets") {
    import org.apache.spark.sql.functions._
    import spark.implicits._
    val dir = Files.createTempDirectory("fastakmer")
    Fasta.write(dir.resolve("f0.fasta"), Seq(Record("c", "ACGTAC")))
    val kmers = Kmers.explodeKmers(Fasta.readDirectory(spark, dir.toString),
        col("sequence"), 4)
      .select("kmer").as[String].collect().toSet
    assert(kmers == Set("ACGT", "CGTA", "GTAC"))
  }

  test("a soft-masked (lower-case) record explodes to upper-case k-mers") {
    import org.apache.spark.sql.functions._
    import spark.implicits._
    val dir = Files.createTempDirectory("fastamasked")
    Fasta.write(dir.resolve("f0.fasta"), Seq(Record("c", "acgTAc")))
    val kmers = Kmers.explodeKmers(Fasta.readDirectory(spark, dir.toString),
        col("sequence"), 4)
      .select("kmer").as[String].collect().toSet
    assert(kmers == Set("ACGT", "CGTA", "GTAC"))
  }

  test("writeFastaCorpus emits nFiles parseable files with shared blocks") {
    val dir = Files.createTempDirectory("corpus")
    val paths = SynthGenomes.writeFastaCorpus(dir, nFiles = 6, contigs = 2,
      contigLen = 120, sharedBlocks = 3, seed = 1L)
    assert(paths.size == 6)
    val parsed = paths.map(p => Fasta.parse(new String(Files.readAllBytes(p))))
    parsed.foreach(recs => assert(recs.size == 2))
    // files 0 and 3 share block (0+0)%3 == (3+0)%3 → first halves equal
    val s0 = parsed(0).head.sequence
    val s3 = parsed(3).head.sequence
    assert(s0.substring(0, 60) == s3.substring(0, 60))
    assert(s0 != s3)
  }
}
