package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.util.Hashing

/** Shared construction path for BIGSI and RAMBO: the (file_id, kmer) corpus
  * plus a `fileColumns` table whose row `f` lists the columns file `f` feeds
  * (BIGSI: the identity; RAMBO: the file's D cells). `fanOut` hashes a pair
  * once; its η positions are set in each of its file's columns. The Spark
  * build is pure Catalyst, grouped by row band of the index's own matrix:
  *
  * {{{
  *   (file_id, kmer) --udf entries--> [D·η packed (band, bit)] --explode-->
  *   (band, bit) --groupBy(band).agg(BitsetAggregator(bit))--> (band, row words)
  * }}}
  *
  * Band `b` is rows [b·rowsPerBand, (b+1)·rowsPerBand) of the [[BitMatrix]]
  * in its own row-major words. Hashing happens on executors, partial Bloom
  * filters are OR-merged map-side, and the driver copies each finished band's
  * decoded words ([[BitsetAggregator.decode]]) into place.
  */
object SketchBuilder {

  // Row bands the Spark build groups by: fewer groups than Spark's default
  // sort-fallback threshold (128), so no map task's aggregate falls back to a sort.
  private val Bands = 64

  /** Columns outside [0, numCols) are rejected on the driver, before any job:
    * a band build would set a padding bit or a bit of the next row for them.
    */
  private def checkColumns(fileColumns: Array[Array[Int]], numCols: Int): Unit = {
    require(numCols > 0, s"numCols must be > 0, got $numCols")
    for ((cols, f) <- fileColumns.iterator.zipWithIndex; c <- cols)
      require(c >= 0 && c < numCols, s"file $f feeds column $c, outside [0, $numCols)")
  }

  /** One (file, kmer) pair's fan-out, hashed once: the columns file `fileId`
    * feeds and the k-mer's η positions, which are set in each of them.
    */
  private def fanOut(fileColumns: Array[Array[Int]], fileId: Int, kmer: String,
                     m: Int, eta: Int): (Array[Int], Array[Int]) = {
    require(fileId >= 0 && fileId < fileColumns.length,
      s"file id $fileId out of [0, ${fileColumns.length})")
    (fileColumns(fileId), Hashing.bloomPositions(kmer, m, eta))
  }

  /** Build the m×`numCols` bitslice matrix of an index whose columns are
    * `m`-bit Bloom filters using `eta` hash functions.
    *
    * @param corpus      DataFrame with columns `file_id: Int` and `kmer: String`
    * @param fileColumns row `f` = the columns in [0, numCols) file `f` feeds
    *                    (checked first); a file id outside its rows fails the job
    * @return matrix whose column `c` holds the k-mers of the files feeding it
    */
  def buildSpark(corpus: DataFrame, fileColumns: Array[Array[Int]], numCols: Int,
                 m: Int, eta: Int): BitMatrix = {
    checkColumns(fileColumns, numCols)
    val out = new BitMatrix(m, numCols)
    val rowsPerBand = (m + Bands - 1) / Bands
    require(rowsPerBand.toLong * 64 * out.wordsPerRow <= Int.MaxValue,
      s"band of $rowsPerBand rows x $numCols columns exceeds a single buffer; shard columns instead")
    val rowBits = 64 * out.wordsPerRow
    // Each pair's entries, packed `band << 32 | bit`.
    val entriesUdf = udf { (fileId: Int, kmer: String) =>
      val (cols, pos) = fanOut(fileColumns, fileId, kmer, m, eta)
      Array.tabulate(cols.length * eta) { k =>
        val p = pos(k % eta)
        (p / rowsPerBand).toLong << 32 | ((p % rowsPerBand) * rowBits + cols(k / eta))
      }
    }
    val agg = new BitsetAggregator(rowsPerBand * rowBits)
    val aggUdf = udaf(agg)
    corpus
      .select(explode(entriesUdf(col("file_id"), col("kmer"))) as "e")
      .groupBy(shiftright(col("e"), 32).cast("int") as "band")
      .agg(aggUdf(col("e").bitwiseAND(0xffffffffL).cast("int")) as "bits")
      .collect()
      .foreach(r => out.copyRows(r.getInt(0) * rowsPerBand, agg.decode(r.getAs[Array[Byte]](1)).words))
    out
  }

  /** Single-threaded reference build of the same matrix, set bit by bit;
    * tests assert the Spark build is bit-identical to this.
    */
  def buildLocal(corpus: Iterable[(Int, String)], fileColumns: Array[Array[Int]],
                 numCols: Int, m: Int, eta: Int): BitMatrix = {
    checkColumns(fileColumns, numCols)
    val out = new BitMatrix(m, numCols)
    corpus.foreach { case (f, kmer) =>
      val (cols, pos) = fanOut(fileColumns, f, kmer, m, eta)
      var c = 0
      while (c < cols.length) {
        var i = 0
        while (i < eta) { out.set(pos(i), cols(c)); i += 1 }
        c += 1
      }
    }
    out
  }
}
