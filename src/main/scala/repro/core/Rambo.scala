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
  * — plus a cheap N-bit set intersection; on a key present in no file, a file
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

  /** Algorithm 2: union the member sets of the hit cells within each
    * repetition, then intersect those unions across repetitions. Walks only
    * the set bits of `hits`, in ascending cell order, ORing each hit cell's
    * member words into one scratch union; at each repetition boundary the
    * union is folded into the answer. A repetition with no hit cell empties
    * the answer, and the walk stops there.
    */
  def resolve(hits: BitVector): BitVector = {
    require(hits.numBits == w * d, s"${hits.numBits} hit bits for ${w * d} cells")
    val nw = BitVector.wordsFor(numFiles)
    val result = new Array[Long](nw)
    val union = new Array[Long](nw)
    var rep = 0 // repetition whose union is being gathered
    var hw = 0
    var word = hits.words(0)
    while (rep < d) {
      while (word == 0L && hw + 1 < hits.words.length) { hw += 1; word = hits.words(hw) }
      val c = if (word == 0L) w * d else (hw << 6) + java.lang.Long.numberOfTrailingZeros(word)
      if (c < (rep + 1) * w) {
        val mw = memberships(c).words
        var i = 0
        while (i < nw) { union(i) |= mw(i); i += 1 }
        word &= word - 1
      } else {
        // Fold repetition `rep`'s union into the answer and clear it.
        var any = 0L
        var i = 0
        if (rep == 0) while (i < nw) { result(i) = union(i); any |= union(i); union(i) = 0L; i += 1 }
        else while (i < nw) { result(i) &= union(i); any |= result(i); union(i) = 0L; i += 1 }
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
