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

  test("bitslice query equals per-column probe on random data") {
    val r = new Random(7)
    val numRows = 64; val numCols = 150
    val cols = Array.fill(numCols)(BitVector.empty(numRows))
    cols.foreach(c => (0 until 20).foreach(_ => c.set(r.nextInt(numRows))))
    val m = new BitMatrix(numRows, numCols)
    for (c <- cols.indices; row <- cols(c).setBits) m.set(row, c)
    (0 until 50).foreach { _ =>
      val probe = Array.fill(3)(r.nextInt(numRows))
      val viaMatrix = m.rowAnd(probe).setBits.toSet
      val viaCols = cols.indices.filter(c => probe.forall(cols(c).get)).toSet
      assert(viaMatrix == viaCols)
    }
  }

  /** Reference probe: per-bit `get`, stopping at a column's first unset bit. */
  private def probeRef(m: BitMatrix, rowIds: Array[Int]): BitVector = {
    val hits = BitVector.empty(m.numCols)
    (0 until m.numCols).foreach { c =>
      var i = 0
      while (i < rowIds.length && m.get(rowIds(i), c)) i += 1
      if (i == rowIds.length) hits.set(c)
    }
    hits
  }

  private def randomMatrix(r: Random, numRows: Int, numCols: Int, density: Double): BitMatrix = {
    val m = new BitMatrix(numRows, numCols)
    for (row <- 0 until numRows; c <- 0 until numCols if r.nextDouble() < density) m.set(row, c)
    m
  }

  test("probe equals the per-bit reference with early exit") {
    val r = new Random(17)
    val numRows = 97
    for (numCols <- Seq(1, 63, 64, 65, 300, 3480)) {
      val matrices = Seq(0.0, 0.3, 0.5, 0.8, 1.0).map(randomMatrix(r, numRows, numCols, _))
      for (m <- matrices; eta <- 1 to 4; _ <- 0 until 5) {
        val rowIds = Array.fill(eta)(r.nextInt(numRows))
        assert(m.probe(rowIds) == probeRef(m, rowIds), s"numCols=$numCols eta=$eta")
      }
    }
  }

  test("probe and rowAnd check every row id, the first included") {
    val numRows = 4
    val m = new BitMatrix(numRows, 70)
    val bigsi = new BigsiIndex(70, 2, m)
    val rambo = new RamboIndex(70, 35, 2, 2, m)
    for (bad <- Seq(-1, numRows); rowIds <- Seq(Array(bad, 0), Array(0, bad))) {
      val readers = Seq[Array[Int] => Any](m.probe, m.rowAnd, bigsi.queryProbePositions,
        rambo.queryProbePositions)
      readers.foreach { read =>
        val e = intercept[IndexOutOfBoundsException](read(rowIds))
        assert(e.getMessage == s"row $bad of $numRows")
      }
    }
    intercept[IllegalArgumentException](m.probe(Array.empty[Int]))
  }

  test("column copies equal the per-bit get") {
    val r = new Random(23)
    for (numCols <- Seq(1, 63, 64, 65); numRows <- Seq(1, 64, 130)) {
      val m = randomMatrix(r, numRows, numCols, 0.5)
      (0 until numCols).foreach { c =>
        val col = m.column(c)
        assert(col.numBits == numRows)
        (0 until numRows).foreach(row => assert(col.get(row) == m.get(row, c), s"($row, $c)"))
      }
    }
  }

  test("copyRows places row-major words from a row on and drops words past the last row") {
    val m = new BitMatrix(3, 70)
    assert(m.wordsPerRow == 2)
    // Rows 1 and 2 of the matrix, then a row past its end.
    m.copyRows(1, Array(1L, 1L << 5, 1L << 63, 0L, -1L, -1L))
    assert(m.rowAnd(Array(0)).cardinality == 0)
    assert(m.rowAnd(Array(1)).setBits.toSeq == Seq(0, 69))
    assert(m.rowAnd(Array(2)).setBits.toSeq == Seq(63))
    intercept[IndexOutOfBoundsException](m.copyRows(3, Array(0L)))
    intercept[IndexOutOfBoundsException](m.copyRows(-1, Array(0L)))
  }

  test("sizeBytes matches the flat layout") {
    assert(new BitMatrix(10, 64).sizeBytes == 10 * 8)
    assert(new BitMatrix(10, 65).sizeBytes == 10 * 2 * 8)
  }

  test("oversized matrix is rejected, not silently truncated") {
    intercept[IllegalArgumentException](new BitMatrix(Int.MaxValue, 1 << 20))
  }
}
