package perfbench

import scala.collection.mutable

/** The benchmark's metric catalogue and the result of one run.
  *
  * Every workload reports every metric of both lists; end-to-end metrics are
  * never 0. A per-layer metric of a layer a workload does not run reads 0:
  * `genome.*`, `pipeline.*` and the Spark `build.*` stage metrics on
  * `query-conserved`, which skips the FASTA pipeline. The names and units
  * here mirror `BENCHMARK.json`.
  */
object Report {

  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "query_kqps" -> "kq/s",
    "slice_kqps" -> "kq/s",
    "bigsi_kqps" -> "kq/s",
    "fp_pct" -> "%",
    "resident_mb" -> "MB",
  )

  private val buildLayer: Seq[(String, String)] = for {
    method <- Seq("rambo", "bigsi")
    (m, u) <- Seq(
      "map_stage_s" -> "s", "reduce_stage_s" -> "s", "driver_s" -> "s",
      "transpose_s" -> "s", "shuffle_write_mb" -> "MB", "shuffle_records" -> "count",
      "result_mb" -> "MB", "task_cpu_s" -> "s", "gc_s" -> "s",
      "parallel_eff" -> "ratio", "local_s" -> "s")
  } yield s"build.$method.$m" -> u

  val PerLayer: Seq[(String, String)] = Seq(
    "util.hash_us" -> "us",
    "core.probe_us" -> "us",
    "core.rowand_us" -> "us",
    "core.resolve_us" -> "us",
    "core.bigsi_probe_us" -> "us",
    "core.hit_cells" -> "count",
    "core.result_files" -> "count",
    "core.fp_files" -> "count",
    "core.useful_cell_ratio" -> "ratio",
    "core.fp_absent_pct" -> "%",
    "core.fp_present_pct" -> "%",
    "core.bigsi_fp_pct" -> "%",
    "core.index_bytes" -> "bytes",
    "core.query_p50_us" -> "us",
    "core.query_p99_us" -> "us",
    "core.slice_p50_us" -> "us",
    "core.slice_p99_us" -> "us",
    "core.bigsi_p50_us" -> "us",
    "core.bigsi_p99_us" -> "us",
    "core.latency_samples" -> "count",
    "trace.probe_path_us" -> "us",
    "trace.untraced_probe_us" -> "us",
    "trace.overhead_us" -> "us",
    "trace.spans" -> "count",
  ) ++ buildLayer ++ Seq(
    "genome.read_s" -> "s",
    "genome.kmers_s" -> "s",
    "genome.ingest_shuffle_mb" -> "MB",
    "genome.pairs" -> "count",
    "genome.revcomp_recall" -> "ratio",
    "pipeline.ingest_s" -> "s",
    "pipeline.build_s" -> "s",
    "pipeline.bigsi_build_s" -> "s",
    "pipeline.e2e_s" -> "s",
    "pipeline.batch_kqps" -> "kq/s",
    "engine.us_per_query" -> "us",
    "engine.direct_us_per_query" -> "us",
    "engine.overhead_ratio" -> "ratio",
    "engine.result_rows" -> "count",
    "eval.corpus_s" -> "s",
    "eval.truth_s" -> "s",
    "eval.truth_mb" -> "MB",
    "jvm.gc_s" -> "s",
    "jvm.gc_count" -> "count",
  )

  private val units: Map[String, String] = (EndToEnd ++ PerLayer).toMap
}

/** Metric values, correctness counts and fingerprints gathered by one run. */
final class Report {
  val values: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  val fingerprints: mutable.LinkedHashMap[String, String] = mutable.LinkedHashMap.empty
  private val failures = mutable.ArrayBuffer.empty[String]
  var attempted = 0L

  def update(name: String, v: Double): Unit = {
    require(Report.EndToEnd.exists(_._1 == name) || Report.PerLayer.exists(_._1 == name),
      s"unknown metric $name")
    values(name) = v
  }

  /** Count one checked operation; a false `ok` records a failure. */
  def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) failures += what
  }

  def failed: Long = failures.length.toLong
  def failureMessages: Seq[String] = failures.toSeq
}
