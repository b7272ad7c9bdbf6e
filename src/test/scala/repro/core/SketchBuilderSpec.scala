package repro.core

import org.apache.spark.SparkException
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.aggregate.ObjectHashAggregateExec
import org.apache.spark.sql.util.QueryExecutionListener

import scala.jdk.CollectionConverters._

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

  // Bloom sizes that fill all 64 row bands (4096, 2048), leave the last band
  // partial (1000) or leave bands empty (50 < 64 rows).
  test("Spark build is bit-identical to the local reference build") {
    val data = pairs(2000, 7, 1L)
    val df = data.toDF("file_id", "kmer")
    for ((name, table, numCols) <- tables(7); m <- Seq(4096, 1000, 50)) {
      val viaSpark = SketchBuilder.buildSpark(df, table, numCols, m, 3)
      val viaLocal = SketchBuilder.buildLocal(data, table, numCols, m, 3)
      (0 until numCols).foreach(c =>
        assert(viaSpark.column(c) == viaLocal.column(c), s"$name m=$m: column $c differs"))
    }
  }

  test("build is invariant to input partitioning") {
    val data = pairs(1500, 5, 2L)
    val df = data.toDF("file_id", "kmer")
    for ((name, table, numCols) <- tables(5); m <- Seq(2048, 1000, 50)) {
      val p1 = SketchBuilder.buildSpark(df.repartition(1), table, numCols, m, 4)
      val p8 = SketchBuilder.buildSpark(df.repartition(8), table, numCols, m, 4)
      (0 until numCols).foreach(c => assert(p1.column(c) == p8.column(c), s"$name m=$m: column $c"))
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
    // A table column outside [0, numCols) is rejected on the driver, before any job.
    val one = Seq((0, "ACGT"))
    Seq(Array(Array(3)), Array(Array(-1))).foreach { table =>
      intercept[IllegalArgumentException](SketchBuilder.buildLocal(one, table, 3, 64, 2))
      intercept[IllegalArgumentException](
        SketchBuilder.buildSpark(one.toDF("file_id", "kmer"), table, 3, 64, 2))
    }
  }

  /** Every `ObjectHashAggregateExec` the queries of `run` execute, walking
    * into AQE's final plan and its query stages (the partial aggregate lives
    * in a shuffle stage): (aggregates seen, `numTasksFallBacked` summed).
    */
  private def aggregateFallbacks(run: => Any): (Int, Long) = {
    def nodes(p: SparkPlan): Seq[SparkPlan] = p match {
      case a: AdaptiveSparkPlanExec => nodes(a.finalPhysicalPlan)
      case q: QueryStageExec => nodes(q.plan)
      case _ => p +: p.children.flatMap(nodes)
    }
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[(Int, Long)]()
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
        val aggs = nodes(qe.executedPlan).collect { case a: ObjectHashAggregateExec => a }
        if (aggs.nonEmpty) seen.add((aggs.length, aggs.map(_.metrics("numTasksFallBacked").value).sum))
      }
      override def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit = ()
    }
    spark.listenerManager.register(listener)
    try {
      run
      // The listener bus delivers asynchronously.
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (seen.isEmpty && System.nanoTime() < deadline) Thread.sleep(10)
    } finally spark.listenerManager.unregister(listener)
    seen.asScala.foldLeft((0, 0L)) { case ((n, s), (a, f)) => (n + a, s + f) }
  }

  test("no map task falls back to sort-based aggregation, past 128 columns") {
    val files = 200
    val df = pairs(3000, files, 4L).toDF("file_id", "kmer")
    val builds = Seq[(String, () => Any)](
      "RAMBO W=50 D=3" -> (() => Rambo.buildSpark(df, files, 50, 3, 4096, 3)),
      s"BIGSI N=$files" -> (() => Bigsi.buildSpark(df, files, 4096, 3)))
    builds.foreach { case (name, build) =>
      val (aggs, fallbacks) = aggregateFallbacks(build())
      assert(aggs > 0, s"$name: no aggregate seen")
      assert(fallbacks == 0, s"$name: $fallbacks map tasks fell back")
    }
    // The probe does see fallbacks: under a session threshold of 10 groups.
    val key = "spark.sql.objectHashAggregate.sortBased.fallbackThreshold"
    val before = spark.conf.getOption(key)
    spark.conf.set(key, 10L)
    try assert(aggregateFallbacks(builds.head._2())._2 > 0, "threshold 10: no fallback seen")
    finally before.fold(spark.conf.unset(key))(spark.conf.set(key, _))
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
