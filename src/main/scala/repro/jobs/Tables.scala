package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.eval.{Experiments, Harness}

/** spark-submit entrypoint for the reproduced tables (DESIGN.md §4): takes a
  * table id `T1`–`T6` and prints that table to stdout.
  *
  * Each table is built from the same corpora/sweeps, in the same Spark
  * session settings, as the corresponding bench suite (both call
  * [[repro.eval.Experiments]]).
  *
  *   sbt -batch "runMain repro.jobs.Tables T5"
  *   spark-submit --class repro.jobs.Tables target/scala-2.13/repro_2.13-0.1.0-SNAPSHOT.jar T1
  */
object Tables {
  import Experiments._

  private val tables: Map[String, SparkSession => String] = Map(
    "T1" -> (s => Harness.formatTable("T1: Query time vs FP rate, 3480 files (paper Fig. 5)",
      sweep(s, Corpus3480, W3480))),
    "T2" -> (s => Harness.formatTable("T2: Query time vs FP rate, 2500 files (paper Fig. 6)",
      sweep(s, Corpus2500, W2500))),
    "T3" -> (s => Harness.formatTable("T3: Memory vs FP rate, 3480 files (paper Fig. 7)",
      sweep(s, Corpus3480, W3480))),
    "T4" -> (s => Harness.formatTable("T4: Memory vs FP rate, 2500 files (paper Fig. 8)",
      sweep(s, Corpus2500, W2500))),
    "T5" -> (s => formatScaling(scalingTable(s))),
    "T6" -> (s => formatConstruction(constructionTable(s))))

  def main(args: Array[String]): Unit = {
    val id = args.headOption.map(_.toUpperCase).getOrElse("")
    val table = tables.getOrElse(id, {
      System.err.println(s"usage: repro.jobs.Tables <${tables.keys.toSeq.sorted.mkString("|")}>")
      sys.exit(2)
    })
    val spark = session(s"rambo-${id.toLowerCase}")
    try println(table(spark))
    finally spark.stop()
  }
}
