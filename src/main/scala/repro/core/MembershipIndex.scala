package repro.core

import repro.bloom.BloomFilter
import repro.util.{BitVector, Hashing}

/** A multiple-set membership index over `numFiles` datasets: a matrix of
  * Bloom filter columns that all share `m`, `eta` and the hash functions
  * ([[repro.util.Hashing.bloomPositions]]), so a query k-mer is hashed once
  * and its η positions probe every column.
  *
  * BIGSI and RAMBO are both this matrix and differ only in what a column
  * stands for, i.e. in [[resolve]]: BIGSI has one column per file, so the hit
  * columns are the answer; RAMBO has one column per (repetition, group) cell
  * and resolves hit cells to files with the paper's Algorithm 2.
  *
  * Two query paths over the same logical bits, sharing one `resolve`:
  *  - [[queryProbe]]: probe each column filter at the query's η positions —
  *    O(columns·η) memory accesses. This is the cost model the paper measures
  *    (its implementation probes BIGSI's Bloom filter class per column), and
  *    the path the benches time.
  *  - [[queryBitsliced]]: AND the η selected bitslice rows of the
  *    m×columns matrix — BIGSI's publicised bit-trick; still O(columns) work
  *    per query (each row is one bit per column). Kept for cross-validation
  *    and reference timings.
  *
  * @param numFiles N datasets
  * @param m        bits per column filter
  * @param eta      hash functions per filter
  * @param columns  column filters
  */
abstract class MembershipIndex(
    val numFiles: Int,
    val m: Int,
    val eta: Int,
    val columns: Array[BloomFilter]) extends Serializable {
  columns.indices.foreach { i =>
    require(columns(i).m == m && columns(i).eta == eta,
      s"column $i has geometry (m=${columns(i).m}, eta=${columns(i).eta}), index has (m=$m, eta=$eta)")
  }

  /** Bitslice matrix (built once from the columns; same logical bits). */
  @transient lazy val matrix: BitMatrix =
    BitMatrix.fromColumns(m, columns.map(_.bits))

  /** Hash a query k-mer once (shared hash functions across all columns). */
  final def positions(kmer: String): Array[Int] = Hashing.bloomPositions(kmer, m, eta)

  /** Columns whose filters pass the membership test at pre-hashed positions. */
  final def hitColumns(pos: Array[Int]): BitVector = {
    val hits = BitVector.empty(columns.length)
    var c = 0
    while (c < columns.length) {
      if (columns(c).containsPositions(pos)) hits.set(c)
      c += 1
    }
    hits
  }

  /** Map a hit-column vector to the N-bit vector of candidate files. */
  def resolve(hits: BitVector): BitVector

  /** Probe-path query: N-bit vector of candidate files. */
  final def queryProbe(kmer: String): BitVector = queryProbePositions(positions(kmer))

  /** Probe-path query on pre-hashed positions. */
  final def queryProbePositions(pos: Array[Int]): BitVector = resolve(hitColumns(pos))

  /** Bitsliced query: AND of the η selected rows, then the same resolve. */
  final def queryBitsliced(kmer: String): BitVector = resolve(matrix.rowAnd(positions(kmer)))

  /** Index size in bytes, as the paper's memory plots report it. */
  def indexBytes: Long
}
