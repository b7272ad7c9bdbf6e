package repro.bloom

import repro.util.{BitVector, Hashing}

/** Bloom filter over string keys: an m-bit array with η hash functions
  * (paper: η ∈ {3, 4}).
  *
  * An index does not store these: its one copy of the bits is the
  * [[repro.core.BitMatrix]], whose columns are Bloom filters probed at the
  * positions of [[repro.util.Hashing.bloomPositions]]. This class hashes with
  * the same function, so it is the reference a single column is checked
  * against, and `MembershipIndex.columns` copies a column out as one.
  *
  * @param m    number of bits
  * @param eta  number of hash functions
  * @param bits backing bit vector of `m` bits
  */
final class BloomFilter(val m: Int, val eta: Int, val bits: BitVector) extends Serializable {
  require(m > 0, s"m must be > 0, got $m")
  require(eta > 0, s"eta must be > 0, got $eta")
  require(bits.numBits == m, s"bit vector has ${bits.numBits} bits, expected $m")

  def this(m: Int, eta: Int) = this(m, eta, BitVector.empty(m))

  /** Insert a key: set its η positions. */
  def insert(key: String): Unit = {
    val pos = Hashing.bloomPositions(key, m, eta)
    var i = 0
    while (i < pos.length) { bits.set(pos(i)); i += 1 }
  }

  /** Membership test: true iff every position of `key` is set.
    * Zero false negatives; false positives at rate [[BloomParams.falsePositiveRate]].
    */
  def contains(key: String): Boolean = {
    val pos = Hashing.bloomPositions(key, m, eta)
    var i = 0
    while (i < pos.length) { if (!bits.get(pos(i))) return false; i += 1 }
    true
  }

  /** Fraction of set bits. */
  def fillRatio: Double = bits.fillRatio

  /** Size of the bit array in bytes. */
  def sizeBytes: Long = bits.words.length.toLong * 8
}

object BloomFilter {
  /** Build a filter from a set of keys. */
  def of(m: Int, eta: Int, keys: Iterable[String]): BloomFilter = {
    val bf = new BloomFilter(m, eta)
    keys.foreach(bf.insert)
    bf
  }
}
