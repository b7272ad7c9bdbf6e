package repro.core

import repro.SparkSpec
import repro.genome.Dna
import repro.util.Hashing

class SketchBuilderSpec extends SparkSpec {
  import spark.implicits._

  private def pairs(n: Int, cols: Int, seed: Long): Seq[(Int, String)] =
    (0 until n).map(i => (math.floorMod(Hashing.splitmix64(seed + i), cols.toLong).toInt,
                          Dna.randomKmer(31, seed * 1000 + i)))

  test("Spark build is bit-identical to the local reference build") {
    val data = pairs(2000, 7, 1L)
    val df = data.toDF("col", "kmer")
    val viaSpark = SketchBuilder.buildColumns(df, 7, 4096, 3)
    val viaLocal = SketchBuilder.buildColumnsLocal(data, 7, 4096, 3)
    (0 until 7).foreach(c => assert(viaSpark.column(c) == viaLocal.column(c), s"column $c differs"))
  }

  test("build is invariant to input partitioning") {
    val data = pairs(1500, 5, 2L)
    val df = data.toDF("col", "kmer")
    val p1 = SketchBuilder.buildColumns(df.repartition(1), 5, 2048, 4)
    val p8 = SketchBuilder.buildColumns(df.repartition(8), 5, 2048, 4)
    (0 until 5).foreach(c => assert(p1.column(c) == p8.column(c)))
  }

  test("build is invariant to duplicate input rows") {
    val data = pairs(300, 3, 3L)
    val dup = data ++ data ++ data.take(50)
    val a = SketchBuilder.buildColumnsLocal(data, 3, 1024, 3)
    val b = SketchBuilder.buildColumnsLocal(dup, 3, 1024, 3)
    (0 until 3).foreach(c => assert(a.column(c) == b.column(c)))
  }

  test("columns with no input stay empty") {
    val df = Seq((0, "ACGTACGTACGTACGTACGTACGTACGTACG")).toDF("col", "kmer")
    val cols = SketchBuilder.buildColumns(df, 4, 512, 3)
    assert(cols.column(0).cardinality > 0)
    (1 until 4).foreach(c => assert(cols.column(c).cardinality == 0))
  }

  test("each key sets at most eta bits in its column") {
    val df = Seq((0, "AAAAAAAAAA")).toDF("col", "kmer")
    val cols = SketchBuilder.buildColumns(df, 1, 65536, 4)
    assert(cols.column(0).cardinality >= 1 && cols.column(0).cardinality <= 4)
  }

  test("out-of-range column ids are rejected") {
    val df = Seq((5, "ACGT")).toDF("col", "kmer")
    intercept[IllegalArgumentException](SketchBuilder.buildColumns(df, 3, 64, 2))
    intercept[IllegalArgumentException](
      SketchBuilder.buildColumnsLocal(Seq((5, "ACGT")), 3, 64, 2))
  }

  test("built column equals a directly-built BloomFilter") {
    import repro.bloom.BloomFilter
    val keys = (0 until 400).map(i => Dna.randomKmer(31, 900L + i))
    val cols = SketchBuilder.buildColumnsLocal(keys.map((0, _)), 1, 8192, 3)
    assert(cols.column(0) == BloomFilter.of(8192, 3, keys).bits)
  }

  test("numCols must be positive") {
    intercept[IllegalArgumentException](
      SketchBuilder.buildColumns(Seq((0, "A")).toDF("col", "kmer"), 0, 64, 2))
  }
}
