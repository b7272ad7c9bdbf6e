package repro.jobs

import repro.eval.Experiments

/** spark-submit entrypoint for the reproduced tables (DESIGN.md §4): takes a
  * table name (`T1`, `T2`, `T5` or `T6`) and prints that table's text to stdout.
  *
  * The table comes from [[repro.eval.Experiments]]' registry and prints
  * through the same [[repro.eval.Table]] writer, in the same Spark session
  * settings, as the corresponding bench suite.
  *
  *   sbt -batch "runMain repro.jobs.Tables T5"
  *   spark-submit --class repro.jobs.Tables target/scala-2.13/repro_2.13-0.1.0-SNAPSHOT.jar T1
  */
object Tables {

  def main(args: Array[String]): Unit = {
    val name = args.headOption.map(_.toUpperCase).getOrElse("")
    val table = Experiments.Tables.getOrElse(name, {
      System.err.println(s"usage: repro.jobs.Tables <${Experiments.Tables.keys.toSeq.sorted.mkString("|")}>")
      sys.exit(2)
    })
    val spark = Experiments.session(s"rambo-${name.toLowerCase}")
    try print(table(spark).text)
    finally spark.stop()
  }
}
