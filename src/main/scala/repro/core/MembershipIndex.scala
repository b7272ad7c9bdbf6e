package repro.core

import repro.bloom.BloomFilter
import repro.util.{BitVector, Hashing}

/** A multiple-set membership index over `numFiles` datasets: one m×columns
  * [[BitMatrix]] whose columns are Bloom filters that all share `m`, `eta`
  * and the hash functions ([[repro.util.Hashing.bloomPositions]]), so a query
  * k-mer is hashed once and its η positions probe every column.
  *
  * BIGSI and RAMBO are both this matrix and differ only in what a column
  * stands for, i.e. in [[resolve]]: BIGSI has one column per file, so the hit
  * columns are the answer; RAMBO has one column per (repetition, group) cell
  * and resolves hit cells to files with the paper's Algorithm 2.
  *
  * The matrix is the only copy of the bits. Two query paths read it and share
  * one `resolve`:
  *  - [[queryProbe]]: probe each column at the query's η positions through
  *    [[BitMatrix.probe]], one shared kernel for BIGSI and RAMBO that reads
  *    exactly η bits per column with no early exit — O(columns·η) bit reads.
  *    This is the cost model the paper measures (its implementation probes
  *    BIGSI's Bloom filter class per column), and the path the benches time.
  *  - [[queryBitsliced]]: AND the η selected bitslice rows — BIGSI's
  *    publicised bit-trick; still O(columns) work per query (each row is one
  *    bit per column), but 64 columns per word. Kept for cross-validation and
  *    reference timings, not as the probe: it would drop the per-filter cost
  *    the paper compares.
  *
  * @param numFiles N datasets
  * @param eta      hash functions per column filter
  * @param matrix   the m×columns bitslice matrix; `m = matrix.numRows`
  */
abstract class MembershipIndex(
    val numFiles: Int,
    val eta: Int,
    val matrix: BitMatrix) extends Serializable {
  require(eta > 0, s"eta must be > 0, got $eta")

  /** Bits per column filter. */
  final val m: Int = matrix.numRows

  /** Copies of the column filters, read out of the matrix (not storage). */
  final def columns: Array[BloomFilter] =
    Array.tabulate(matrix.numCols)(c => new BloomFilter(m, eta, matrix.column(c)))

  /** Hash a query k-mer once (shared hash functions across all columns). The
    * k-mer is hashed as given: pass upper-case ACGT, as `Kmers.kmers` indexes.
    */
  final def positions(kmer: String): Array[Int] = Hashing.bloomPositions(kmer, m, eta)

  /** Map a hit-column vector to the N-bit vector of candidate files. */
  def resolve(hits: BitVector): BitVector

  /** Probe-path query: N-bit vector of candidate files. */
  final def queryProbe(kmer: String): BitVector = queryProbePositions(positions(kmer))

  /** Probe-path query on pre-hashed positions. */
  final def queryProbePositions(pos: Array[Int]): BitVector = resolve(matrix.probe(pos))

  /** Bitsliced query: AND of the η selected rows, then the same resolve. */
  final def queryBitsliced(kmer: String): BitVector = resolve(matrix.rowAnd(positions(kmer)))

  /** Index size in bytes, as the paper's memory plots report it. */
  def indexBytes: Long
}
