package repro.core

import repro.util.BitVector

/** Row-major bit matrix: `numRows` bitslices of `numCols` bits each.
  *
  * This is the one storage layout of every index, BIGSI's "bitsliced
  * signature index": column `c` is one Bloom filter (a dataset for BIGSI, a
  * (repetition, group) cell for RAMBO) and row `r` is bit `r` of every
  * filter. Both query paths read these same bits and return a `numCols`-bit
  * hit vector: [[probe]] reads each column's η bits, one filter at a time, and
  * [[rowAnd]] ANDs the η rows selected by the query's hash values word by word.
  *
  * @param numRows matrix height = Bloom filter size m
  * @param numCols matrix width = number of columns (files or cells)
  */
final class BitMatrix(val numRows: Int, val numCols: Int) extends Serializable {
  require(numRows > 0 && numCols > 0, s"bad matrix shape ${numRows}x$numCols")

  /** Row stride in 64-bit words; a row's bits past `numCols` stay zero. */
  val wordsPerRow: Int = BitVector.wordsFor(numCols)
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

  /** Copy row-major `words` (`wordsPerRow` per row) into place from row
    * `firstRow` on, dropping any words past the last row.
    */
  def copyRows(firstRow: Int, words: Array[Long]): Unit = {
    checkRow(firstRow)
    val start = firstRow * wordsPerRow
    System.arraycopy(words, 0, rows, start, math.min(words.length, rows.length - start))
  }

  @inline private def checkRow(r: Int): Unit =
    if (r < 0 || r >= numRows) throw new IndexOutOfBoundsException(s"row $r of $numRows")
  @inline private def checkCol(c: Int): Unit =
    if (c < 0 || c >= numCols) throw new IndexOutOfBoundsException(s"col $c of $numCols")

  /** Copy of column `col` as a `numRows`-bit vector (that column's filter).
    * Each output word gathers 64 rows' bits by shift and mask, with no branch
    * on the bit values.
    */
  def column(col: Int): BitVector = {
    checkCol(col)
    val out = BitVector.empty(numRows)
    val shift = col & 63
    var i = col >>> 6
    var r = 0
    while (r < numRows) {
      val end = math.min(r + 64, numRows)
      var word = 0L
      var b = 0
      while (r < end) {
        word |= ((rows(i) >>> shift) & 1L) << b
        i += wordsPerRow
        r += 1
        b += 1
      }
      out.words((r - 1) >>> 6) = word
    }
    out
  }

  /** Probe every column's filter at the given rows: the `numCols`-bit vector
    * of columns whose bits are set at all of them. This is the per-filter
    * query the paper times, O(columns·η): each column ANDs exactly its η bits,
    * with no early exit at the first unset bit, because a half-full filter
    * makes that exit an unpredictable branch per column. It deliberately does
    * not AND whole row words as [[rowAnd]] does, which would cost
    * O(columns/64·η) and erase the per-filter cost model BIGSI and RAMBO are
    * compared under.
    */
  def probe(rowIds: Array[Int]): BitVector = {
    require(rowIds.nonEmpty, "need at least one row")
    val bases = new Array[Int](rowIds.length)
    var i = 0
    while (i < rowIds.length) {
      checkRow(rowIds(i))
      bases(i) = rowIds(i) * wordsPerRow
      i += 1
    }
    val out = new Array[Long](wordsPerRow)
    var c = 0
    while (c < numCols) {
      val w = c >>> 6
      val shift = c & 63
      var bit = 1L
      i = 0
      while (i < bases.length) { bit &= rows(bases(i) + w) >>> shift; i += 1 }
      out(w) |= (bit & 1L) << shift
      c += 1
    }
    BitVector.wrap(numCols, out)
  }

  /** AND the given bitslices (rows) into a `numCols`-bit vector — the bitslice
    * query: rows are the η hash values of the query k-mer and the result's set
    * bits are the columns whose filters pass the membership test.
    */
  def rowAnd(rowIds: Array[Int]): BitVector = {
    require(rowIds.nonEmpty, "need at least one row")
    checkRow(rowIds(0))
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
