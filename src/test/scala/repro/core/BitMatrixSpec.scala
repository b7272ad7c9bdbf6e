package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.util.BitVector

import scala.util.Random

class BitMatrixSpec extends AnyFunSuite {

  test("set/get round-trip") {
    val m = new BitMatrix(10, 10)
    m.set(3, 7)
    assert(m.get(3, 7))
    assert(!m.get(7, 3))
    assert(!m.get(3, 6))
  }

  test("bounds are checked") {
    val m = new BitMatrix(4, 4)
    intercept[IndexOutOfBoundsException](m.set(4, 0))
    intercept[IndexOutOfBoundsException](m.set(0, 4))
    intercept[IndexOutOfBoundsException](m.get(-1, 0))
    intercept[IndexOutOfBoundsException](m.rowAnd(Array(0, 9)))
  }

  test("constructor rejects bad shapes") {
    intercept[IllegalArgumentException](new BitMatrix(0, 5))
    intercept[IllegalArgumentException](new BitMatrix(5, 0))
  }

  test("rowAnd of a single row returns that row") {
    val m = new BitMatrix(3, 130)
    m.set(1, 0); m.set(1, 64); m.set(1, 129)
    assert(m.rowAnd(Array(1)).setBits.toSeq == Seq(0, 64, 129))
  }

  test("rowAnd intersects rows") {
    val m = new BitMatrix(3, 100)
    Seq(0, 10, 64, 99).foreach(c => m.set(0, c))
    Seq(10, 64, 98).foreach(c => m.set(1, c))
    assert(m.rowAnd(Array(0, 1)).setBits.toSeq == Seq(10, 64))
    assert(m.rowAnd(Array(0, 1, 2)).cardinality == 0)
  }

  test("rowAnd does not mutate the matrix") {
    val m = new BitMatrix(2, 10)
    m.set(0, 5)
    m.rowAnd(Array(0, 1))
    assert(m.get(0, 5))
  }

  test("rowAnd requires at least one row") {
    intercept[IllegalArgumentException](new BitMatrix(2, 2).rowAnd(Array.empty[Int]))
  }

  test("fromColumns transposes column bitsets") {
    val cols = Array(
      BitVector.of(5, Seq(0, 3)),
      BitVector.of(5, Seq(3, 4)))
    val m = BitMatrix.fromColumns(5, cols)
    assert(m.get(0, 0) && !m.get(0, 1))
    assert(m.get(3, 0) && m.get(3, 1))
    assert(!m.get(4, 0) && m.get(4, 1))
    cols.indices.foreach(c => assert(m.column(c) == cols(c)))
    intercept[IndexOutOfBoundsException](m.column(2))
  }

  test("fromColumns validates column sizes") {
    intercept[IllegalArgumentException](
      BitMatrix.fromColumns(5, Array(BitVector.empty(4))))
    intercept[IllegalArgumentException](
      BitMatrix.fromColumns(5, Array.empty[BitVector]))
  }

  test("bitslice query equals per-column probe on random data") {
    val r = new Random(7)
    val numRows = 64; val numCols = 150
    val cols = Array.fill(numCols)(BitVector.empty(numRows))
    cols.foreach(c => (0 until 20).foreach(_ => c.set(r.nextInt(numRows))))
    val m = BitMatrix.fromColumns(numRows, cols)
    (0 until 50).foreach { _ =>
      val probe = Array.fill(3)(r.nextInt(numRows))
      val viaMatrix = m.rowAnd(probe).setBits.toSet
      val viaCols = cols.indices.filter(c => probe.forall(cols(c).get)).toSet
      assert(viaMatrix == viaCols)
    }
  }

  test("sizeBytes matches the flat layout") {
    assert(new BitMatrix(10, 64).sizeBytes == 10 * 8)
    assert(new BitMatrix(10, 65).sizeBytes == 10 * 2 * 8)
  }

  test("oversized matrix is rejected, not silently truncated") {
    intercept[IllegalArgumentException](new BitMatrix(Int.MaxValue, 1 << 20))
  }
}
