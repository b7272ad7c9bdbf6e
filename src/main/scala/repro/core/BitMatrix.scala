package repro.core

import repro.util.BitVector

/** Row-major bit matrix: `numRows` bitslices of `numCols` bits each.
  *
  * This is the one storage layout of every index, BIGSI's "bitsliced
  * signature index": column `c` is one Bloom filter (a dataset for BIGSI, a
  * (repetition, group) cell for RAMBO) and row `r` is bit `r` of every
  * filter. Both query paths read these same bits: [[get]] probes one column
  * at a position, [[rowAnd]] ANDs the η rows selected by the query's hash
  * values into a `numCols`-bit hit vector.
  *
  * @param numRows matrix height = Bloom filter size m
  * @param numCols matrix width = number of columns (files or cells)
  */
final class BitMatrix(val numRows: Int, val numCols: Int) extends Serializable {
  require(numRows > 0 && numCols > 0, s"bad matrix shape ${numRows}x$numCols")

  private val wordsPerRow = BitVector.wordsFor(numCols)
  require(numRows.toLong * wordsPerRow <= Int.MaxValue,
    s"matrix ${numRows}x$numCols exceeds a single array; shard columns instead")
  /** rows(r) holds bits [r*wordsPerRow, (r+1)*wordsPerRow) — flat for locality. */
  private val rows = new Array[Long](numRows * wordsPerRow)

  /** Set bit (row, col). */
  def set(row: Int, col: Int): Unit = {
    checkRow(row); checkCol(col)
    rows(row * wordsPerRow + (col >>> 6)) |= (1L << (col & 63))
  }

  /** Value of bit (row, col). */
  def get(row: Int, col: Int): Boolean = {
    checkRow(row); checkCol(col)
    (rows(row * wordsPerRow + (col >>> 6)) & (1L << (col & 63))) != 0L
  }

  @inline private def checkRow(r: Int): Unit =
    if (r < 0 || r >= numRows) throw new IndexOutOfBoundsException(s"row $r of $numRows")
  @inline private def checkCol(c: Int): Unit =
    if (c < 0 || c >= numCols) throw new IndexOutOfBoundsException(s"col $c of $numCols")

  /** Copy of column `col` as a `numRows`-bit vector (that column's filter). */
  def column(col: Int): BitVector = {
    checkCol(col)
    val out = BitVector.empty(numRows)
    val mask = 1L << (col & 63)
    var i = col >>> 6
    var r = 0
    while (r < numRows) {
      if ((rows(i) & mask) != 0L) out.words(r >>> 6) |= 1L << (r & 63)
      i += wordsPerRow
      r += 1
    }
    out
  }

  /** AND the given bitslices (rows) into a `numCols`-bit vector — the bitslice
    * query: rows are the η hash values of the query k-mer and the result's set
    * bits are the columns whose filters pass the membership test.
    */
  def rowAnd(rowIds: Array[Int]): BitVector = {
    require(rowIds.nonEmpty, "need at least one row")
    val acc = new Array[Long](wordsPerRow)
    val base0 = rowIds(0) * wordsPerRow
    var w = 0
    while (w < wordsPerRow) { acc(w) = rows(base0 + w); w += 1 }
    var i = 1
    while (i < rowIds.length) {
      checkRow(rowIds(i))
      val base = rowIds(i) * wordsPerRow
      w = 0
      while (w < wordsPerRow) { acc(w) &= rows(base + w); w += 1 }
      i += 1
    }
    BitVector.wrap(numCols, acc)
  }

  /** Storage footprint in bytes. */
  def sizeBytes: Long = rows.length.toLong * 8
}

object BitMatrix {
  /** Transpose per-column bit vectors (each `numRows` bits) into the row-major
    * bitslice layout. Cost is proportional to the number of set bits.
    */
  def fromColumns(numRows: Int, columns: Array[BitVector]): BitMatrix = {
    require(columns.nonEmpty, "need at least one column")
    columns.foreach(c => require(c.numBits == numRows,
      s"column has ${c.numBits} bits, expected $numRows"))
    val m = new BitMatrix(numRows, columns.length)
    var c = 0
    while (c < columns.length) {
      val bits = columns(c).setBits
      var i = 0
      while (i < bits.length) { m.set(bits(i), c); i += 1 }
      c += 1
    }
    m
  }
}
