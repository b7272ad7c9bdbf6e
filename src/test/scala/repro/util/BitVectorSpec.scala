package repro.util

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class BitVectorSpec extends AnyFunSuite {

  test("new vector has no set bits") {
    val v = new BitVector(100)
    assert(v.cardinality == 0)
    (0 until 100).foreach(i => assert(!v.get(i)))
  }

  test("set then get round-trips") {
    val v = new BitVector(130)
    v.set(0); v.set(63); v.set(64); v.set(129)
    assert(v.get(0) && v.get(63) && v.get(64) && v.get(129))
    assert(!v.get(1) && !v.get(62) && !v.get(65) && !v.get(128))
  }

  test("set is idempotent") {
    val v = new BitVector(10)
    v.set(3); v.set(3)
    assert(v.cardinality == 1)
  }

  test("out-of-range access throws") {
    val v = new BitVector(64)
    intercept[IndexOutOfBoundsException](v.get(64))
    intercept[IndexOutOfBoundsException](v.set(-1))
  }

  test("wordsFor rounds up") {
    assert(BitVector.wordsFor(0) == 0)
    assert(BitVector.wordsFor(1) == 1)
    assert(BitVector.wordsFor(64) == 1)
    assert(BitVector.wordsFor(65) == 2)
  }

  test("cardinality counts set bits across words") {
    val v = new BitVector(200)
    val r = new Random(1)
    val bits = (0 until 80).map(_ => r.nextInt(200)).toSet
    bits.foreach(v.set)
    assert(v.cardinality == bits.size)
  }

  test("setBits returns ascending indices matching get") {
    val v = new BitVector(300)
    val r = new Random(2)
    val bits = (0 until 50).map(_ => r.nextInt(300)).toSet
    bits.foreach(v.set)
    assert(v.setBits.toSeq == bits.toSeq.sorted)
  }

  test("or is set union") {
    val a = BitVector.of(150, Seq(1, 64, 149))
    val b = BitVector.of(150, Seq(0, 64, 100))
    a.or(b)
    assert(a.setBits.toSeq == Seq(0, 1, 64, 100, 149))
  }

  test("and is set intersection") {
    val a = BitVector.of(150, Seq(1, 64, 100, 149))
    val b = BitVector.of(150, Seq(0, 64, 100))
    a.and(b)
    assert(a.setBits.toSeq == Seq(64, 100))
  }

  test("or/and reject size mismatch") {
    intercept[IllegalArgumentException](new BitVector(10).or(new BitVector(11)))
    intercept[IllegalArgumentException](new BitVector(10).and(new BitVector(11)))
  }

  test("setAll sets exactly numBits bits, no spare-bit garbage") {
    Seq(1, 63, 64, 65, 127, 128, 130).foreach { n =>
      val v = BitVector.full(n)
      assert(v.cardinality == n, s"n=$n")
      assert(v.setBits.toSeq == (0 until n))
    }
  }

  test("fillRatio of full, empty and half vectors") {
    assert(BitVector.full(128).fillRatio == 1.0)
    assert(BitVector.empty(128).fillRatio == 0.0)
    val half = BitVector.of(128, 0 until 64)
    assert(half.fillRatio == 0.5)
  }

  test("fillRatio of zero-bit vector is 0") {
    assert(new BitVector(0).fillRatio == 0.0)
  }

  test("copy is deep") {
    val a = BitVector.of(80, Seq(5))
    val b = a.copy()
    b.set(6)
    assert(!a.get(6) && b.get(6) && b.get(5))
  }

  test("equals and hashCode reflect content") {
    val a = BitVector.of(80, Seq(1, 70))
    val b = BitVector.of(80, Seq(1, 70))
    val c = BitVector.of(80, Seq(1, 71))
    assert(a == b && a.hashCode == b.hashCode)
    assert(a != c)
    assert(a != BitVector.of(81, Seq(1, 70)))
  }

  test("of builds from indices") {
    val v = BitVector.of(10, Seq(2, 7))
    assert(v.setBits.toSeq == Seq(2, 7))
  }

  test("wrap shares the underlying words") {
    val words = new Array[Long](2)
    val v = BitVector.wrap(100, words)
    v.set(99)
    assert(words(1) != 0L)
  }

  test("constructor rejects wrong word count") {
    intercept[IllegalArgumentException](new BitVector(65, new Array[Long](1)))
  }

  test("or-based accumulation equals set union on random data (property)") {
    val r = new Random(4)
    (0 until 20).foreach { _ =>
      val n = 1 + r.nextInt(500)
      val s1 = (0 until r.nextInt(50)).map(_ => r.nextInt(n)).toSet
      val s2 = (0 until r.nextInt(50)).map(_ => r.nextInt(n)).toSet
      val a = BitVector.of(n, s1); a.or(BitVector.of(n, s2))
      assert(a.setBits.toSet == (s1 ++ s2))
      val b = BitVector.of(n, s1); b.and(BitVector.of(n, s2))
      assert(b.setBits.toSet == (s1 & s2))
    }
  }
}
