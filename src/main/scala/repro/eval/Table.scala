package repro.eval

import java.nio.file.{Files, Path}
import java.util.Locale

import scala.collection.immutable.ListMap

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule

/** One reproduced table (DESIGN.md §4): a file id, a title and rows of one
  * case class. Its one writer names a column by its row field in both the
  * fixed-width [[text]] and the [[json]], so a derived value (a speedup, an
  * IQR) is a field of the row.
  */
final case class Table[R <: Product](id: String, title: String, rows: Seq[R]) {

  /** Title, a header of the field names and one line per row; doubles to 4 decimals. */
  def text: String = {
    def cell(v: Any) = v match { case d: Double => "%.4f".formatLocal(Locale.ROOT, d); case _ => v.toString }
    val lines = rows.take(1).map(_.productElementNames.toSeq) ++ rows.map(_.productIterator.map(cell).toSeq)
    val left = rows.take(1).flatMap(_.productIterator.map(_.isInstanceOf[String]))
    val widths = left.indices.map(c => lines.map(_(c).length).max)
    def pad(v: String, c: Int) = if (left(c)) v.padTo(widths(c), ' ') else " " * (widths(c) - v.length) + v
    (s"== $title ==" +: lines.map(l => l.indices.map(c => pad(l(c), c)).mkString("  ").stripTrailing))
      .mkString("", "\n", "\n")
  }

  /** `{"id", "title", "rows": [{field: value, …}, …]}`, doubles at full precision. */
  def json: String =
    new ObjectMapper().registerModule(DefaultScalaModule).writerWithDefaultPrettyPrinter()
      .writeValueAsString(ListMap("id" -> id, "title" -> title, "rows" -> rows)) + "\n"

  /** Write `<id>.txt` and `<id>.json` into `dir`, replacing earlier ones. */
  def write(dir: Path): Unit = {
    Files.createDirectories(dir)
    Files.writeString(dir.resolve(s"$id.txt"), text)
    Files.writeString(dir.resolve(s"$id.json"), json)
  }
}
