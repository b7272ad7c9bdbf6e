package repro.core

import org.apache.spark.sql.{Encoder, Encoders}
import org.apache.spark.sql.expressions.Aggregator

import repro.util.BitVector

/** Typed Spark aggregator that ORs Bloom bit positions into an m-bit set.
  *
  * This is the distributed construction kernel (DESIGN.md S9): each (file,
  * kmer) pair becomes its (band, bit) entries, grouped by row band of the
  * index's matrix, and this aggregator folds each group into the band's bits.
  * Catalyst aggregates map-side first, so each partition builds partial
  * bands and the shuffle only moves finished buffers — the paper's
  * "embarrassingly parallel" build (partial filters merge by bitwise OR).
  *
  * This class alone knows the buffer's byte layout: bit `i` lives in byte
  * `i/8`, bit `i%8` (Encoders.BINARY), i.e. little-endian 64-bit words.
  * [[decode]] turns an output buffer back into a [[repro.util.BitVector]].
  *
  * @param mBits buffer size in bits (one band of the index's rows)
  */
final class BitsetAggregator(mBits: Int)
    extends Aggregator[Int, Array[Byte], Array[Byte]] {
  require(mBits > 0, s"mBits must be > 0, got $mBits")

  private val numBytes = (mBits + 7) >>> 3

  override def zero: Array[Byte] = new Array[Byte](numBytes)

  override def reduce(buf: Array[Byte], pos: Int): Array[Byte] = {
    if (pos < 0 || pos >= mBits)
      throw new IllegalArgumentException(s"bit position $pos out of [0, $mBits)")
    buf(pos >>> 3) = (buf(pos >>> 3) | (1 << (pos & 7))).toByte
    buf
  }

  override def merge(a: Array[Byte], b: Array[Byte]): Array[Byte] = {
    var i = 0
    while (i < a.length) { a(i) = (a(i) | b(i)).toByte; i += 1 }
    a
  }

  override def finish(buf: Array[Byte]): Array[Byte] = buf

  override def bufferEncoder: Encoder[Array[Byte]] = Encoders.BINARY
  override def outputEncoder: Encoder[Array[Byte]] = Encoders.BINARY

  /** The m-bit vector an output buffer encodes. */
  def decode(bytes: Array[Byte]): BitVector = {
    require(bytes.length == numBytes,
      s"expected $numBytes bytes for $mBits bits, got ${bytes.length}")
    val words = new Array[Long](BitVector.wordsFor(mBits))
    var i = 0
    while (i < bytes.length) {
      words(i >>> 3) |= (bytes(i) & 0xffL) << ((i & 7) << 3)
      i += 1
    }
    BitVector.wrap(mBits, words)
  }
}
