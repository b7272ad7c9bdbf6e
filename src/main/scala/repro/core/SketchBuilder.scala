package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.util.{BitVector, Hashing}

/** Shared distributed construction path for BIGSI and RAMBO.
  *
  * Input is a DataFrame with an integer `col` (which column of the index the
  * row feeds — a file for BIGSI, a (repetition, group) cell for RAMBO) and a
  * string `kmer`. The pipeline is pure Catalyst:
  *
  * {{{
  *   (col, kmer) --udf--> (col, [η positions]) --explode--> (col, pos)
  *              --groupBy(col).agg(BitsetAggregator)--> (col, m-bit array)
  * }}}
  *
  * Hashing happens on executors (the distributed map over partitioned input),
  * partial Bloom filters are OR-merged map-side, and only finished m-bit
  * buffers reach the driver, which transposes them into the index's
  * [[BitMatrix]].
  */
object SketchBuilder {

  /** Build the m×`numCols` bitslice matrix of an index whose columns are
    * `m`-bit Bloom filters using `eta` hash functions.
    *
    * @param colKmer DataFrame with columns `col: Int` and `kmer: String`
    * @return matrix whose column `c` is column id `c`'s filter; columns with
    *         no input are empty
    */
  def buildColumns(colKmer: DataFrame, numCols: Int, m: Int, eta: Int): BitMatrix = {
    require(numCols > 0, s"numCols must be > 0, got $numCols")
    val posUdf = udf((kmer: String) => Hashing.bloomPositions(kmer, m, eta))
    val agg = udaf(new BitsetAggregator(m))
    val rows = colKmer
      .select(col("col"), explode(posUdf(col("kmer"))) as "pos")
      .groupBy(col("col"))
      .agg(agg(col("pos")) as "bits")
      .collect()

    val out = Array.fill(numCols)(BitVector.empty(m))
    rows.foreach { r =>
      val c = r.getInt(0)
      require(c >= 0 && c < numCols, s"column id $c out of [0, $numCols)")
      out(c) = BitVector.fromBytes(m, r.getAs[Array[Byte]](1))
    }
    BitMatrix.fromColumns(m, out)
  }

  /** Single-threaded reference build of the same matrix, set bit by bit;
    * tests assert the Spark build is bit-identical to this.
    */
  def buildColumnsLocal(colKmer: Iterable[(Int, String)], numCols: Int,
                        m: Int, eta: Int): BitMatrix = {
    val out = new BitMatrix(m, numCols)
    colKmer.foreach { case (c, kmer) =>
      require(c >= 0 && c < numCols, s"column id $c out of [0, $numCols)")
      val pos = Hashing.bloomPositions(kmer, m, eta)
      var i = 0
      while (i < pos.length) { out.set(pos(i), c); i += 1 }
    }
    out
  }
}
