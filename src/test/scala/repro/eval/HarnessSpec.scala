package repro.eval

import java.nio.file.Files
import java.util.Locale

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.ObjectMapper

import repro.SparkSpec
import repro.core.Rambo
import repro.genome.SynthGenomes.CorpusSpec

class HarnessSpec extends SparkSpec {
  import spark.implicits._

  private val spec = CorpusSpec(nFiles = 50, poolSize = 800, totalPairs = 10000L,
    alpha = 0.8, seed = 71L)
  private lazy val data = Harness.prepare(spark, spec, nPositive = 50, nNegative = 150)

  test("prepare caches corpus, truth and workload consistently") {
    assert(data.numFiles == 50)
    assert(data.queries.size == 200)
    // each workload k-mer's truth is its exact file set in the cached corpus
    val exact = GroundTruth.fromLocal(data.corpusDf.as[(Int, String)].collect(), spec.nFiles)
    assert(data.queries.exists(_.truth.cardinality > 0))
    data.queries.foreach(q => assert(q.truth == exact.filesOf(q.kmer), q.kmer))
  }

  test("avgKmersPerFile is pairs / files") {
    val avg = Harness.avgKmersPerFile(data)
    assert(math.abs(avg - data.corpusDf.count().toDouble / 50) < 1e-9)
  }

  test("avgKmersPerCell shows redundancy: less than files-per-cell * kmers-per-file") {
    val w = 5; val d = 3
    val perCell = Harness.avgKmersPerCell(data, w, d)
    val naive = (50.0 / w) * Harness.avgKmersPerFile(data)
    assert(perCell > 0 && perCell < naive,
      s"perCell=$perCell naive=$naive — no redundancy in corpus?")
  }

  test("avgKmersPerCell is the exact distinct (cell, k-mer) count per cell") {
    val w = 5; val d = 3
    val fileCells = Rambo.fileCells(spec.nFiles, w, d)
    val exact = data.corpusDf.as[(Int, String)].collect()
      .flatMap { case (f, k) => fileCells(f).map(_ -> k) }.distinct.length
    assert(Harness.avgKmersPerCell(data, w, d) == exact.toDouble / (w * d))
  }

  test("runBigsi produces a sane sweep point") {
    val p = Harness.time(Seq(Harness.runBigsi(data, m = 8192, eta = 3))).head
    assert(p.method == "BIGSI" && p.eta == 3 && p.mBits == 8192)
    assert(p.fpPct >= 0.0 && p.fpPct <= 100.0)
    assert(p.usProbe > 0 && p.usBitsliced > 0 && p.buildSec > 0)
    assert(math.abs(p.indexMB - 8192.0 * 50 / 8 / 1e6) < 1e-9)
  }

  test("runRambo produces a sane sweep point") {
    val p = Harness.time(Seq(Harness.runRambo(data, w = 5, d = 3, m = 32768, eta = 3))).head
    assert(p.method == "RAMBO(W=5,D=3)")
    assert(p.fpPct >= 0.0 && p.fpPct <= 100.0)
    assert(p.usProbe > 0 && p.usBitsliced > 0)
  }

  test("bigger filters give lower or equal FP") {
    val small = Harness.runBigsi(data, m = 2048, eta = 3)
    val big = Harness.runBigsi(data, m = 32768, eta = 3)
    assert(big.fpPct <= small.fpPct)
  }

  test("Table text and JSON hold every row under its field names") {
    import Experiments.{BuildRow, ScalingRow}
    val tables = Seq(
      Table("sweep", "a sweep", Harness.time(Seq(Harness.runBigsi(data, 4096, 3),
        Harness.runRambo(data, w = 5, d = 3, m = 32768, eta = 3)))),
      Table("scaling", "a scaling", Seq(
        ScalingRow(500, 38, 7472, 23371, 1.014, 4.473, 3.65, 0.125, 1.94, 0.0625, 3.65 / 1.94,
          0.25, 0.03125, 0.5, 0.0625, 0.25 / 0.5))),
      Table("build", "a build", Seq(BuildRow(1, 14.26, 0.31, 1.0, 0.19),
        BuildRow(2, 8.0, 0.2, 14.26 / 8.0, 0.338))))
    val dir = Files.createTempDirectory("tables")
    tables.foreach { t =>
      val names = t.rows.head.productElementNames.toSeq
      val lines = t.text.linesIterator.toSeq
      assert(lines.head == s"== ${t.title} ==")
      assert(lines(1).trim.split("\\s+").toSeq == names)
      assert(lines.size == t.rows.size + 2)
      t.rows.zip(lines.drop(2)).foreach { case (r, line) =>
        assert(line.trim.split("\\s+").toSeq == r.productIterator.map {
          case d: Double => String.format(Locale.ROOT, "%.4f", Double.box(d))
          case v         => v.toString
        }.toSeq)
      }
      val json = new ObjectMapper().readTree(t.json)
      assert(json.get("id").asText == t.id && json.get("title").asText == t.title)
      assert(json.get("rows").size == t.rows.size)
      t.rows.zipWithIndex.foreach { case (r, i) =>
        val o = json.get("rows").get(i)
        assert(o.fieldNames.asScala.toSeq == names)
        names.zip(r.productIterator.toSeq).foreach {
          case (k, v: Int)    => assert(o.get(k).isInt && o.get(k).asInt == v, k)
          case (k, v: Double) => assert(o.get(k).isDouble && o.get(k).asDouble == v, k)
          case (k, v)         => assert(o.get(k).asText == v.toString, k)
        }
      }
      t.write(dir)
      assert(Files.readString(dir.resolve(s"${t.id}.txt")) == t.text)
      assert(Files.readString(dir.resolve(s"${t.id}.json")) == t.json)
    }
    dir.toFile.listFiles.foreach(_.delete())
    Files.delete(dir)
  }
}
