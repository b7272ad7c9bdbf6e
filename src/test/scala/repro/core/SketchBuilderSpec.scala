package repro.core

import org.apache.spark.SparkException

import repro.SparkSpec
import repro.genome.Dna
import repro.util.Hashing

class SketchBuilderSpec extends SparkSpec {
  import spark.implicits._

  /** BIGSI's table: file `f` feeds column `f` only. */
  private def identity(n: Int): Array[Array[Int]] = Array.tabulate(n)(Array(_))

  private def pairs(n: Int, files: Int, seed: Long): Seq[(Int, String)] =
    (0 until n).map(i => (math.floorMod(Hashing.splitmix64(seed + i), files.toLong).toInt,
                          Dna.randomKmer(31, seed * 1000 + i)))

  /** The identity table over `files` columns, and a D = 3 RAMBO table over
    * 3·3 cells: (name, table, column count).
    */
  private def tables(files: Int): Seq[(String, Array[Array[Int]], Int)] = Seq(
    ("identity", identity(files), files),
    ("RAMBO W=3 D=3", Rambo.fileCells(files, 3, 3), 9))

  test("Spark build is bit-identical to the local reference build") {
    val data = pairs(2000, 7, 1L)
    val df = data.toDF("file_id", "kmer")
    tables(7).foreach { case (name, table, numCols) =>
      val viaSpark = SketchBuilder.buildSpark(df, table, numCols, 4096, 3)
      val viaLocal = SketchBuilder.buildLocal(data, table, numCols, 4096, 3)
      (0 until numCols).foreach(c =>
        assert(viaSpark.column(c) == viaLocal.column(c), s"$name: column $c differs"))
    }
  }

  test("build is invariant to input partitioning") {
    val data = pairs(1500, 5, 2L)
    val df = data.toDF("file_id", "kmer")
    tables(5).foreach { case (name, table, numCols) =>
      val p1 = SketchBuilder.buildSpark(df.repartition(1), table, numCols, 2048, 4)
      val p8 = SketchBuilder.buildSpark(df.repartition(8), table, numCols, 2048, 4)
      (0 until numCols).foreach(c => assert(p1.column(c) == p8.column(c), s"$name: column $c"))
    }
  }

  test("build is invariant to duplicate input rows") {
    val data = pairs(300, 3, 3L)
    val dup = data ++ data ++ data.take(50)
    val a = SketchBuilder.buildLocal(data, identity(3), 3, 1024, 3)
    val b = SketchBuilder.buildLocal(dup, identity(3), 3, 1024, 3)
    (0 until 3).foreach(c => assert(a.column(c) == b.column(c)))
  }

  test("columns with no input stay empty") {
    val df = Seq((0, "ACGTACGTACGTACGTACGTACGTACGTACG")).toDF("file_id", "kmer")
    val cols = SketchBuilder.buildSpark(df, identity(4), 4, 512, 3)
    assert(cols.column(0).cardinality > 0)
    (1 until 4).foreach(c => assert(cols.column(c).cardinality == 0))
  }

  test("each key sets at most eta bits in its column") {
    val df = Seq((0, "AAAAAAAAAA")).toDF("file_id", "kmer")
    val cols = SketchBuilder.buildSpark(df, identity(1), 1, 65536, 4)
    assert(cols.column(0).cardinality >= 1 && cols.column(0).cardinality <= 4)
  }

  /** A Spark build fails its job with the builder's file-id check as cause. */
  private def sparkRejects(build: => Any): Unit = {
    val e = intercept[SparkException](build)
    assert(e.getCause.isInstanceOf[IllegalArgumentException], s"cause: ${e.getCause}")
    assert(e.getCause.getMessage.contains("file id"), e.getCause.getMessage)
  }

  test("out-of-range column ids are rejected") {
    // Identity table: file id 5 is column id 5, outside 3 columns.
    intercept[IllegalArgumentException](
      SketchBuilder.buildLocal(Seq((5, "ACGT")), identity(3), 3, 64, 2))
    sparkRejects(SketchBuilder.buildSpark(Seq((5, "ACGT")).toDF("file_id", "kmer"),
      identity(3), 3, 64, 2))
    // Every builder rejects file ids N and -1.
    val n = 4
    Seq(n, -1).foreach { f =>
      val bad = Seq((0, "ACGTACGT"), (f, "ACGT"))
      val badDf = bad.toDF("file_id", "kmer")
      intercept[IllegalArgumentException](Rambo.buildLocal(bad, n, 2, 3, 64, 2))
      intercept[IllegalArgumentException](Bigsi.buildLocal(bad, n, 64, 2))
      sparkRejects(Rambo.buildSpark(badDf, n, 2, 3, 64, 2))
      sparkRejects(Bigsi.buildSpark(badDf, n, 64, 2))
    }
  }

  test("built column equals a directly-built BloomFilter") {
    import repro.bloom.BloomFilter
    val keys = (0 until 400).map(i => Dna.randomKmer(31, 900L + i))
    val cols = SketchBuilder.buildLocal(keys.map((0, _)), identity(1), 1, 8192, 3)
    assert(cols.column(0) == BloomFilter.of(8192, 3, keys).bits)
  }

  test("numCols must be positive") {
    intercept[IllegalArgumentException](
      SketchBuilder.buildSpark(Seq((0, "A")).toDF("file_id", "kmer"), identity(0), 0, 64, 2))
  }
}
