package repro.core

import org.apache.spark.sql.DataFrame

import repro.util.BitVector

/** BIGSI baseline (Bradley et al., Nature Biotech 2019) — one Bloom filter
  * column per dataset, all sharing the same η hash functions. A hit column is
  * a hit file, so [[resolve]] is the identity.
  *
  * @param numFiles N datasets (columns)
  * @param eta      hash functions per filter
  * @param matrix   m×N bitslice matrix, column = file id
  */
final class BigsiIndex(numFiles: Int, eta: Int, matrix: BitMatrix)
    extends MembershipIndex(numFiles, eta, matrix) {
  require(matrix.numCols == numFiles, s"${matrix.numCols} columns for $numFiles files")

  def resolve(hits: BitVector): BitVector = hits

  /** Index size: the m×N bit matrix (the number the paper's memory plots report). */
  def indexBytes: Long = m.toLong * numFiles / 8
}

/** Builders for [[BigsiIndex]]: [[SketchBuilder]] with the identity file → column table. */
object Bigsi {

  private def fileColumns(numFiles: Int): Array[Array[Int]] = Array.tabulate(numFiles)(Array(_))

  /** Distributed build from a (file_id: Int, kmer: String) DataFrame. */
  def buildSpark(corpus: DataFrame, numFiles: Int, m: Int, eta: Int): BigsiIndex =
    new BigsiIndex(numFiles, eta,
      SketchBuilder.buildSpark(corpus, fileColumns(numFiles), numFiles, m, eta))

  /** Single-threaded reference build. */
  def buildLocal(corpus: Iterable[(Int, String)], numFiles: Int, m: Int, eta: Int): BigsiIndex =
    new BigsiIndex(numFiles, eta,
      SketchBuilder.buildLocal(corpus, fileColumns(numFiles), numFiles, m, eta))
}
