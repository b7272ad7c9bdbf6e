package perfbench

import java.nio.file.{Files, Path, Paths}

import org.apache.spark.sql.SparkSession

/** Benchmark entry point:
  *
  * {{{
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * Prints every metric by name with its unit, the input and index
  * fingerprints, and as its last line one JSON object: `correct`,
  * `attempted`, `failed` and the end-to-end metrics (`--trace 0`) or the
  * per-layer metrics (`--trace 1`). Exits non-zero if any check failed.
  */
object Main {
  val Workloads: Seq[String] = Seq("query-uniform", "query-conserved")

  private def usage(msg: String): Nothing = {
    Console.err.println(s"$msg\nusage: --workload <${Workloads.mkString("|")}> --seed <n> " +
      "--seconds <s> --trace <0|1>")
    sys.exit(2)
  }

  def main(args: Array[String]): Unit = {
    val t0 = System.nanoTime()
    if (args.length % 2 != 0) usage("arguments come in --name value pairs")
    val opts = args.grouped(2).map(a => a(0).stripPrefix("--") -> a(1)).toMap
    def opt(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val workload = opt("workload")
    if (!Workloads.contains(workload)) usage(s"unknown workload $workload")
    val seed = opt("seed").toLongOption.getOrElse(usage("--seed must be an integer"))
    val seconds = opt("seconds").toDoubleOption.filter(_ > 0).getOrElse(usage("--seconds must be > 0"))
    val trace = opt("trace") match {
      case "0" => false
      case "1" => true
      case t => usage(s"--trace must be 0 or 1, got $t")
    }
    val workDir = Paths.get("perfbench", "out").toAbsolutePath
    Files.createDirectories(workDir)

    val (spark, sparkS) = Stats.timed(SparkSession.builder()
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName(s"perfbench-$workload")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("warehouse").toString)
      .config("spark.sql.shuffle.partitions", "64")
      .getOrCreate())
    println(f"setup ${"spark-session"}%-22s $sparkS%8.3f s")
    spark.sparkContext.setLogLevel("ERROR")
    val stats = new SparkStats
    spark.sparkContext.addSparkListener(stats)
    val report = new Report
    val tracer = new Tracer(trace)
    val env = new Env(spark, stats, report, tracer, seed, seconds, workDir)

    try {
      workload match {
        case "query-uniform" => CorpusWorkloads.query(env, conserved = false, t0)
        case "query-conserved" => CorpusWorkloads.query(env, conserved = true, t0)
      }
    } catch {
      case e: Throwable =>
        e.printStackTrace()
        report.check(ok = false, s"workload threw ${e.getClass.getName}: ${e.getMessage}")
    } finally spark.stop()

    if (trace) {
      report("trace.spans") = tracer.size.toDouble
      tracer.write(workDir.resolve(s"trace-$workload.tsv.gz"))
    }
    val gated = if (trace) Report.PerLayer else Report.EndToEnd
    for ((name, _) <- Report.EndToEnd if !trace) {
      val v = report.values.getOrElse(name, Double.NaN)
      report.check(v > 0 && !v.isInfinite, s"end-to-end metric $name is $v")
    }
    for ((name, unit) <- Report.EndToEnd ++ Report.PerLayer if report.values.contains(name))
      println(f"metric $name%-28s ${report.values(name)}%14.6f $unit")
    report.fingerprints.foreach { case (k, v) => println(s"fingerprint $k $v") }
    report.failureMessages.foreach(m => println(s"FAILED: $m"))
    println(f"failed_pct ${100.0 * report.failed / math.max(1L, report.attempted)}%.4f " +
      s"(${report.failed} of ${report.attempted})")

    val metrics = gated.map { case (name, unit) =>
      val v = report.values.getOrElse(name, 0.0)
      val num = if (v.isNaN || v.isInfinite) "0.0" else v.toString
      s""""$name": {"value": $num, "unit": "$unit"}"""
    }.mkString(", ")
    val correct = report.failed == 0
    println(s"""{"correct": $correct, "attempted": ${math.max(1L, report.attempted)}, """ +
      s""""failed": ${report.failed}, "metrics": {$metrics}}""")
    System.out.flush()
    sys.exit(if (correct) 0 else 1)
  }
}
