package repro.core

import org.apache.spark.sql.DataFrame

import repro.util.{BitVector, Hashing}

/** RAMBO — the paper's contribution: a count-min-sketch arrangement of merged
  * Bloom filters (Repeated And Merged BloOm filter).
  *
  * Geometry: `d` independent repetitions × `w` groups per repetition. In
  * repetition `r`, the universal hash `ph_r(file) = `
  * [[repro.util.Hashing.partitionHash]] assigns each of the N files to one of
  * the `w` groups; each (repetition, group) cell owns one Bloom filter holding
  * the union of its files' k-mers. Column id of cell (r, g) is `r·w + g`,
  * giving `d·w ≪ N` columns.
  *
  * Query (Algorithm 2): hash the k-mer once; for each repetition take the
  * union of the member sets of the groups whose filters pass, then intersect
  * those unions across repetitions. Probe cost is O(d·w·η) — independent of N
  * — plus the resolve: each repetition ORs the member sets of the smaller of
  * its hit and missed cells, min(h_r, w − h_r)·⌈N/64⌉ words for h_r hit
  * cells, and the d unions are ANDed; on a key present in no file, a file
  * is falsely reported only if all of its `d` cells yield Bloom false
  * positives, so the whole-index FP is ≈ fp_cell^d.
  *
  * @param numFiles N datasets
  * @param w        groups per repetition (paper: 100 for N=3480, 84 for N=2500)
  * @param d        repetitions (paper: 3)
  * @param eta      hash functions per filter
  * @param matrix   m×(d·w) bitslice matrix, column = cell `rep·w + group`
  */
final class RamboIndex(
    numFiles: Int,
    val w: Int,
    val d: Int,
    eta: Int,
    matrix: BitMatrix) extends MembershipIndex(numFiles, eta, matrix) {
  require(w > 0 && d > 0, s"bad geometry w=$w d=$d")
  require(matrix.numCols == w * d, s"${matrix.numCols} columns for ${w * d} cells")

  /** Member set of each cell as an N-bit vector: the inverse of [[Rambo.fileCells]]. */
  val memberships: Array[BitVector] = Array.fill(w * d)(BitVector.empty(numFiles))
  Rambo.fileCells(numFiles, w, d).zipWithIndex.foreach { case (cs, f) => cs.foreach(memberships(_).set(f)) }

  /** Repetition r's span of the hit vector: `spanWord(j)` for `spanStart(r)
    * <= j < spanStart(r + 1)` are the words its cells `r·w until (r+1)·w`
    * fall in, and `spanMask(j)` is the mask of those cells in each.
    */
  private val (spanStart, spanWord, spanMask) = {
    val words = Array.tabulate(d)(r => Array.range((r * w) >>> 6, (((r + 1) * w - 1) >>> 6) + 1))
    val masks = Array.tabulate(d) { r =>
      words(r).map { k =>
        val from = math.max(r * w - (k << 6), 0)
        val until = math.min((r + 1) * w - (k << 6), 64)
        (-1L >>> (64 - until)) & (-1L << from)
      }
    }
    (words.scanLeft(0)(_ + _.length), words.flatten, masks.flatten)
  }

  /** Mask of the file bits in the last word of an N-bit vector. */
  private val lastWordMask = -1L >>> (-numFiles & 63)

  /** Algorithm 2: union the member sets of the hit cells within each
    * repetition, then intersect those unions across repetitions.
    *
    * A repetition's w cells partition the N files, so the union of its hit
    * cells is the complement of the union of its missed cells. Each
    * repetition counts its h hit cells over its span of `hits`; if h > w/2 it
    * ORs the member words of the w − h missed cells and complements that
    * union (clearing the spare bits at and past N), otherwise it ORs the hit
    * cells' member words. Either way it streams min(h, w − h)·⌈N/64⌉ words.
    * Repetition 0's union is the first answer; each later one is ANDed into
    * it. A repetition with no hit cell, or an empty answer, stops the walk.
    */
  def resolve(hits: BitVector): BitVector = {
    require(hits.numBits == w * d, s"${hits.numBits} hit bits for ${w * d} cells")
    val hw = hits.words
    val nw = BitVector.wordsFor(numFiles)
    val result = new Array[Long](nw)
    val union = new Array[Long](nw)
    var rep = 0
    while (rep < d) {
      val start = spanStart(rep)
      val end = spanStart(rep + 1)
      var hit = 0
      var j = start
      while (j < end) { hit += java.lang.Long.bitCount(hw(spanWord(j)) & spanMask(j)); j += 1 }
      val missSide = 2 * hit > w
      val flip = if (missSide) -1L else 0L
      val acc = if (rep == 0) result else union
      j = start
      while (j < end) {
        var word = (hw(spanWord(j)) ^ flip) & spanMask(j)
        while (word != 0L) {
          val mw = memberships((spanWord(j) << 6) + java.lang.Long.numberOfTrailingZeros(word)).words
          var i = 0
          while (i < nw) { acc(i) |= mw(i); i += 1 }
          word &= word - 1
        }
        j += 1
      }
      if (missSide && nw > 0) {
        var i = 0
        while (i < nw) { acc(i) = ~acc(i); i += 1 }
        acc(nw - 1) &= lastWordMask
      }
      if (rep == 0) rep = if (hit == 0) d else 1
      else {
        // Fold repetition `rep`'s union into the answer and clear it.
        var any = 0L
        var i = 0
        while (i < nw) { result(i) &= union(i); any |= result(i); union(i) = 0L; i += 1 }
        rep = if (any == 0L) d else rep + 1
      }
    }
    BitVector.wrap(numFiles, result)
  }

  /** Index size: the m×(d·w) bit matrix plus the d·w member sets of N bits. */
  def indexBytes: Long =
    m.toLong * (w * d) / 8 + memberships.length.toLong * BitVector.wordsFor(numFiles) * 8
}

/** Builders for [[RamboIndex]]. */
object Rambo {

  /** The d cell columns a file's k-mers are inserted into. */
  def cellsForFile(fileId: Int, w: Int, d: Int): Array[Int] =
    Array.tabulate(d)(r => r * w + Hashing.partitionHash(fileId.toLong, r, w))

  /** The file → cell table: both builds take it, [[RamboIndex.memberships]]
    * inverts it and `Harness.avgKmersPerCell` sizes cells through it.
    */
  def fileCells(numFiles: Int, w: Int, d: Int): Array[Array[Int]] =
    Array.tabulate(numFiles)(cellsForFile(_, w, d))

  /** Distributed build from a (file_id: Int, kmer: String) DataFrame: each
    * pair is hashed once and set in its file's d cells.
    */
  def buildSpark(corpus: DataFrame, numFiles: Int, w: Int, d: Int,
                 m: Int, eta: Int): RamboIndex =
    new RamboIndex(numFiles, w, d, eta,
      SketchBuilder.buildSpark(corpus, fileCells(numFiles, w, d), w * d, m, eta))

  /** Single-threaded reference build. */
  def buildLocal(corpus: Iterable[(Int, String)], numFiles: Int, w: Int, d: Int,
                 m: Int, eta: Int): RamboIndex =
    new RamboIndex(numFiles, w, d, eta,
      SketchBuilder.buildLocal(corpus, fileCells(numFiles, w, d), w * d, m, eta))
}
