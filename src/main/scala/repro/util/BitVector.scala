package repro.util

import java.util.Arrays

/** Fixed-size mutable bit vector backed by an `Array[Long]`.
  *
  * This is the bit-set primitive shared across the repo: reference Bloom
  * filter bit arrays ([[repro.bloom.BloomFilter]]), columns copied out of and
  * row-ANDs read from an index's [[repro.core.BitMatrix]], RAMBO's cell member
  * sets, query result vectors and the columns a Spark build decodes from
  * [[repro.core.BitsetAggregator]]'s buffers (that byte layout lives there,
  * not here). It is deliberately minimal — no growth, no boxing — because the
  * benchmarked query paths are tight loops over these words.
  *
  * @param numBits logical size; bits are indexed `0 until numBits`
  * @param words   backing words, length must be `wordsFor(numBits)`
  */
final class BitVector(val numBits: Int, val words: Array[Long]) extends Serializable {
  require(numBits >= 0, s"numBits must be >= 0, got $numBits")
  require(words.length == BitVector.wordsFor(numBits),
    s"expected ${BitVector.wordsFor(numBits)} words for $numBits bits, got ${words.length}")

  def this(numBits: Int) = this(numBits, new Array[Long](BitVector.wordsFor(numBits)))

  @inline private def check(i: Int): Unit =
    if (i < 0 || i >= numBits) throw new IndexOutOfBoundsException(s"bit $i of $numBits")

  /** Set bit `i` to 1. */
  def set(i: Int): Unit = { check(i); words(i >>> 6) |= (1L << (i & 63)) }

  /** Value of bit `i`. */
  def get(i: Int): Boolean = { check(i); (words(i >>> 6) & (1L << (i & 63))) != 0L }

  /** In-place bitwise OR with `other` (sizes must match). */
  def or(other: BitVector): Unit = {
    require(other.numBits == numBits, s"size mismatch: $numBits vs ${other.numBits}")
    var w = 0
    while (w < words.length) { words(w) |= other.words(w); w += 1 }
  }

  /** In-place bitwise AND with `other` (sizes must match). */
  def and(other: BitVector): Unit = {
    require(other.numBits == numBits, s"size mismatch: $numBits vs ${other.numBits}")
    var w = 0
    while (w < words.length) { words(w) &= other.words(w); w += 1 }
  }

  /** Set every bit to 1 (bits past `numBits` in the last word stay 0). */
  def setAll(): Unit = {
    if (numBits > 0) {
      Arrays.fill(words, -1L)
      val spare = words.length * 64 - numBits
      if (spare > 0) words(words.length - 1) = -1L >>> spare
    }
  }

  /** Number of set bits. */
  def cardinality: Int = {
    var c = 0; var w = 0
    while (w < words.length) { c += java.lang.Long.bitCount(words(w)); w += 1 }
    c
  }

  /** Fraction of set bits (0 for an empty vector). */
  def fillRatio: Double = if (numBits == 0) 0.0 else cardinality.toDouble / numBits

  /** Indices of set bits, ascending. */
  def setBits: Array[Int] = {
    val out = new Array[Int](cardinality)
    var n = 0; var w = 0
    while (w < words.length) {
      var word = words(w)
      while (word != 0L) {
        val t = java.lang.Long.numberOfTrailingZeros(word)
        out(n) = w * 64 + t; n += 1
        word &= word - 1
      }
      w += 1
    }
    out
  }

  /** Deep copy. */
  def copy(): BitVector = new BitVector(numBits, words.clone())

  override def equals(o: Any): Boolean = o match {
    case b: BitVector => b.numBits == numBits && Arrays.equals(b.words, words)
    case _            => false
  }
  override def hashCode: Int = 31 * numBits + Arrays.hashCode(words)
  override def toString: String = s"BitVector($numBits bits, $cardinality set)"
}

object BitVector {
  /** Words needed to hold `numBits` bits. */
  def wordsFor(numBits: Int): Int = (numBits + 63) >>> 6

  /** Empty vector of `numBits` bits. */
  def empty(numBits: Int): BitVector = new BitVector(numBits)

  /** Vector with all `numBits` bits set. */
  def full(numBits: Int): BitVector = { val b = new BitVector(numBits); b.setAll(); b }

  /** Vector from explicit set-bit indices. */
  def of(numBits: Int, bits: Iterable[Int]): BitVector = {
    val b = new BitVector(numBits); bits.foreach(b.set); b
  }

  /** Wrap existing words (no copy); caller guarantees spare bits are zero. */
  def wrap(numBits: Int, words: Array[Long]): BitVector = new BitVector(numBits, words)
}
