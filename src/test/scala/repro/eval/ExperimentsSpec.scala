package repro.eval

import java.io.File

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
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

  test("every registered table has a gate") {
    assert(TableGates.Gates.keySet == Experiments.Tables.keySet)
  }

  test("committed bench_results tables pass their gates") {
    // The JSON `Table.json` writes, read back row by row into the row class.
    val mapper = new ObjectMapper().registerModule(DefaultScalaModule)
    val files = new File("bench_results").listFiles().toSeq.filter(_.getName.endsWith(".json"))
    TableGates.Gates.foreach { case (table, gate: TableGates.Gate[r]) =>
      val file = files.find(_.getName.takeWhile(_ != '_') == table)
      assert(file.nonEmpty, s"$table: no committed JSON")
      val rows = mapper.readTree(file.get).get("rows").elements.asScala.toSeq
        .map(row => mapper.treeToValue(row, gate.rowClass.runtimeClass).asInstanceOf[r])
      withClue(s"${file.get.getName}: ") { gate.check(rows) }
    }
  }
}
