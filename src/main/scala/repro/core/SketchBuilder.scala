package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.util.{BitVector, Hashing}

/** Shared construction path for BIGSI and RAMBO: the (file_id, kmer) corpus
  * plus a `fileColumns` table whose row `f` lists the columns file `f` feeds
  * (BIGSI: the identity; RAMBO: the file's D cells). `fanOut` hashes a pair
  * once; its η positions are set in each of its file's columns. The Spark
  * build is pure Catalyst:
  *
  * {{{
  *   (file_id, kmer) --udf entries--> [D·η packed (col, pos)] --explode-->
  *   (col, pos) --groupBy(col).agg(BitsetAggregator(pos))--> (col, m-bit array)
  * }}}
  *
  * Hashing happens on executors (the distributed map over partitioned input),
  * partial Bloom filters are OR-merged map-side, and only finished m-bit
  * buffers reach the driver. The aggregator that wrote them decodes them
  * ([[BitsetAggregator.decode]]), and the driver transposes the columns into
  * the index's [[BitMatrix]].
  */
object SketchBuilder {

  private val FallbackThreshold = "spark.sql.objectHashAggregate.sortBased.fallbackThreshold"

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
    * @param fileColumns row `f` = the columns in [0, numCols) file `f` feeds;
    *                    a file id outside its rows fails the job
    * @return matrix whose column `c` holds the k-mers of the files feeding it
    */
  def buildSpark(corpus: DataFrame, fileColumns: Array[Array[Int]], numCols: Int,
                 m: Int, eta: Int): BitMatrix = {
    require(numCols > 0, s"numCols must be > 0, got $numCols")
    // Each pair's entries, packed `col << 32 | pos`.
    val entriesUdf = udf { (fileId: Int, kmer: String) =>
      val (cols, pos) = fanOut(fileColumns, fileId, kmer, m, eta)
      Array.tabulate(cols.length * eta)(k => cols(k / eta).toLong << 32 | pos(k % eta))
    }
    val agg = new BitsetAggregator(m)
    val aggUdf = udaf(agg)
    val grouped = corpus
      .select(explode(entriesUdf(col("file_id"), col("kmer"))) as "e")
      .groupBy(shiftright(col("e"), 32).cast("int") as "col")
      .agg(aggUdf(col("e").bitwiseAND(0xffffffffL).cast("int")) as "bits")
    // A task's aggregate falls back to a sort once its map holds this many
    // groups with input left; numCols + 1 keeps every task on the hash path.
    // Spark reads the setting when collect() runs the job, so it wraps that call.
    val conf = corpus.sparkSession.conf
    val previous = conf.getAll.get(FallbackThreshold)
    conf.set(FallbackThreshold, numCols + 1L)
    val rows =
      try grouped.collect()
      finally previous.fold(conf.unset(FallbackThreshold))(conf.set(FallbackThreshold, _))

    val out = Array.fill(numCols)(BitVector.empty(m))
    rows.foreach(r => out(r.getInt(0)) = agg.decode(r.getAs[Array[Byte]](1)))
    BitMatrix.fromColumns(m, out)
  }

  /** Single-threaded reference build of the same matrix, set bit by bit;
    * tests assert the Spark build is bit-identical to this.
    */
  def buildLocal(corpus: Iterable[(Int, String)], fileColumns: Array[Array[Int]],
                 numCols: Int, m: Int, eta: Int): BitMatrix = {
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
