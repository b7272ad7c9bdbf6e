package perfbench

import java.nio.file.Path

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{QueryEngine, RamboIndex}
import repro.util.BitVector

/** What one run hands its workload: the Spark session (with the benchmark's
  * listener), the report being filled, the tracer, and the run's arguments.
  */
final class Env(val spark: SparkSession, val stats: SparkStats, val report: Report,
                val tracer: Tracer, val seed: Long, val seconds: Double, val workDir: Path) {
  val cores: Int = spark.sparkContext.defaultParallelism

  /** Run one named set-up step, printing its wall time. */
  def step[T](name: String)(body: => T): T = {
    val (r, s) = Stats.timed(tracer.span(s"setup.$name")(body))
    println(f"setup $name%-22s $s%8.3f s")
    r
  }

  /** `body` with its Spark jobs attributed to `group` in [[stats]]. */
  def tagged[T](group: String)(body: => T): T = stats.tagged(spark.sparkContext, group)(body)

  /** Heap retained by what `body` builds and keeps, in MB, measured as the
    * live-heap difference after full collections.
    */
  def retainedMb[T](body: => T): (T, Double) = {
    val before = Stats.liveHeap()
    val r = body
    val after = Stats.liveHeap()
    (r, (after - before) / 1e6)
  }

  /** Report the `build.<method>.*` layer metrics of the Spark builds whose
    * jobs ran under `groups` (one group per build), given each build's
    * seconds to query-ready (`buildS`) and its bitslice transpose seconds.
    */
  def reportBuild(method: String, groups: Seq[String], buildS: Seq[Double], transposeS: Seq[Double]): Unit = {
    val gs = groups.map(stats.group)
    def med(f: SparkStats.Group => Double) = Stats.median(gs.map(f))
    def stageWall(map: Boolean)(g: SparkStats.Group) =
      g.stages.filter(s => (s.shuffleWriteBytes > 0) == map).map(_.wallS).sum
    val perBuild = gs.zip(buildS).zip(transposeS)
    report(s"build.$method.map_stage_s") = med(stageWall(map = true))
    report(s"build.$method.reduce_stage_s") = med(stageWall(map = false))
    report(s"build.$method.driver_s") =
      Stats.median(perBuild.map { case ((g, b), t) => b - t - g.jobWallS })
    report(s"build.$method.transpose_s") = Stats.median(transposeS)
    report(s"build.$method.shuffle_write_mb") = med(_.stages.map(_.shuffleWriteBytes).sum / 1e6)
    report(s"build.$method.shuffle_records") = med(_.stages.map(_.shuffleRecords).sum.toDouble)
    report(s"build.$method.result_mb") = med(_.resultBytes / 1e6)
    report(s"build.$method.task_cpu_s") = med(_.cpuNs / 1e9)
    report(s"build.$method.gc_s") = med(_.gcMs / 1e3)
    report(s"build.$method.parallel_eff") =
      Stats.median(gs.zip(buildS).map { case (g, b) => g.runTimeMs / 1e3 / (b * cores) })
  }

  /** A batch of `kmers` for the batch engine, checked on every run against
    * `direct` (the same index's probe-path answer for each k-mer).
    */
  final class Batch(index: RamboIndex, kmers: IndexedSeq[String], direct: IndexedSeq[BitVector]) {
    import spark.implicits._
    val queries: DataFrame = cacheCount(kmers.zipWithIndex.map { case (k, i) => (i.toLong, k) }
      .toDF("qid", "kmer").repartition(cores))
    private val expected = direct.map(_.cardinality.toLong).sum

    /** Answer the batch once; returns (seconds, answer per k-mer). */
    def run(): (Double, Array[BitVector]) = tracer.span("engine.batch") {
      val (rows, s) = Stats.timed(QueryEngine.queryRambo(spark, queries, index).collect())
      val got = Array.fill(kmers.length)(BitVector.empty(index.numFiles))
      rows.foreach(r => got(r.getLong(0).toInt).set(r.getInt(1)))
      report.check(rows.length == expected && got.indices.forall(i => got(i) == direct(i)),
        "batch answers differ from the probe path")
      report("engine.result_rows") = rows.length.toDouble
      (s, got)
    }

    /** One untimed run, then the fastest of `times` runs in seconds; reports
      * the engine's cost per k-mer.
      */
    def timed(times: Int): Double = {
      run()
      val s = (1 to times).map(_ => run()._1).min
      report("engine.us_per_query") = s * 1e6 / kmers.length
      s
    }

    def close(): Unit = queries.unpersist()
  }

  def cacheCount(df: DataFrame): DataFrame = { val c = df.cache(); c.count(); c }
}
