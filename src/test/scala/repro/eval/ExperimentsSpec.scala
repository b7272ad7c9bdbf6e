package repro.eval

import java.io.File

import org.scalatest.funsuite.AnyFunSuite

class ExperimentsSpec extends AnyFunSuite {

  test("bench_results holds one .txt and one .json per registered table") {
    // File names only: `T1_query_time_3480.json` belongs to table `T1`.
    val names = new File("bench_results").list().toSeq
    val byTable = names.groupBy(_.takeWhile(_ != '_'))
    assert(byTable.keySet == Experiments.Tables.keySet, names.sorted)
    byTable.foreach { case (table, files) =>
      assert(files.map(f => f.substring(f.lastIndexOf('.') + 1)).sorted == Seq("json", "txt"),
        s"$table: ${files.sorted}")
    }
  }
}
