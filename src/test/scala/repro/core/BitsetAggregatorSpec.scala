package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class BitsetAggregatorSpec extends AnyFunSuite {

  private val agg = new BitsetAggregator(128)

  test("zero buffer is all clear with the right length") {
    val z = agg.zero
    assert(z.length == 16)
    assert(z.forall(_ == 0))
    assert(new BitsetAggregator(9).zero.length == 2)
  }

  test("reduce sets the requested bit") {
    val buf = agg.reduce(agg.zero, 0)
    assert(agg.decode(buf).setBits.toSeq == Seq(0))
    val buf2 = agg.reduce(buf, 127)
    assert(agg.decode(buf2).setBits.toSeq == Seq(0, 127))
  }

  test("reduce is idempotent per position") {
    val buf = agg.reduce(agg.reduce(agg.zero, 5), 5)
    assert(agg.decode(buf).cardinality == 1)
  }

  test("reduce rejects out-of-range positions") {
    intercept[IllegalArgumentException](agg.reduce(agg.zero, 128))
    intercept[IllegalArgumentException](agg.reduce(agg.zero, -1))
  }

  test("merge ORs buffers") {
    val a = agg.reduce(agg.zero, 1)
    val b = agg.reduce(agg.zero, 100)
    val m = agg.merge(a, b)
    assert(agg.decode(m).setBits.toSeq == Seq(1, 100))
  }

  test("merge with zero is identity") {
    val a = agg.reduce(agg.zero, 42)
    val m = agg.merge(a.clone(), agg.zero)
    assert(m.toSeq == a.toSeq)
  }

  test("finish passes the buffer through") {
    val a = agg.reduce(agg.zero, 9)
    assert(agg.finish(a) sameElements a)
  }

  test("fold order does not matter (commutative monoid)") {
    val positions = Seq(3, 77, 3, 120, 0, 77)
    val left = positions.foldLeft(agg.zero)(agg.reduce)
    val right = positions.reverse.foldLeft(agg.zero)(agg.reduce)
    assert(left.toSeq == right.toSeq)
    // and splitting into partial buffers + merge gives the same result
    val (p1, p2) = positions.splitAt(3)
    val merged = agg.merge(p1.foldLeft(agg.zero)(agg.reduce),
                           p2.foldLeft(agg.zero)(agg.reduce))
    assert(merged.toSeq == left.toSeq)
  }

  test("decode inverts reduce on random positions") {
    val r = new Random(3)
    Seq(1, 7, 8, 9, 63, 64, 65, 200, 1000).foreach { n =>
      val a = new BitsetAggregator(n)
      val bits = (0 until n / 2 + 1).map(_ => r.nextInt(n))
      val v = a.decode(bits.foldLeft(a.zero)(a.reduce))
      assert(v.numBits == n && v.setBits.toSeq == bits.distinct.sorted, s"n=$n")
    }
  }

  test("decode reads bit i from byte i/8, bit i%8") {
    val a = new BitsetAggregator(16)
    // byte 0 = 0b00000101 → bits 0 and 2
    assert(a.decode(Array[Byte](5, 0)).setBits.toSeq == Seq(0, 2))
    assert(a.decode(Array[Byte](0, 0x80.toByte)).setBits.toSeq == Seq(15))
  }

  test("decode rejects a buffer of the wrong length") {
    intercept[IllegalArgumentException](new BitsetAggregator(16).decode(new Array[Byte](1)))
  }

  test("constructor rejects non-positive m") {
    intercept[IllegalArgumentException](new BitsetAggregator(0))
  }
}
