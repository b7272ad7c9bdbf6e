package repro.util

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class HashingSpec extends AnyFunSuite {

  test("murmur64 is deterministic") {
    assert(Hashing.murmur64("ACGT", 1L) == Hashing.murmur64("ACGT", 1L))
    assert(Hashing.murmur64(42L, 9L) == Hashing.murmur64(42L, 9L))
  }

  test("murmur64 depends on the seed") {
    assert(Hashing.murmur64("ACGT", 1L) != Hashing.murmur64("ACGT", 2L))
  }

  test("murmur64 depends on the key") {
    assert(Hashing.murmur64("ACGT", 1L) != Hashing.murmur64("ACGA", 1L))
  }

  test("murmur64 handles all tail lengths 0..8") {
    // exercises every branch of the tail switch
    val hashes = (0 to 8).map(n => Hashing.murmur64(Array.fill[Byte](n)(7), 0L))
    assert(hashes.distinct.size == hashes.size)
  }

  test("murmur64 known self-consistency across representations") {
    val s = "AACCGGTT"
    assert(Hashing.murmur64(s, 5L) ==
      Hashing.murmur64(s.getBytes("UTF-8"), 5L))
    // A long hashes as its 8 little-endian bytes.
    val r = new Random(11)
    val longs = Seq(0L, 1L, -1L, Long.MinValue, Long.MaxValue) ++ Seq.fill(500)(r.nextLong())
    longs.foreach { x =>
      val seed = r.nextLong()
      val bytes = Array.tabulate[Byte](8)(i => (x >>> (8 * i)).toByte)
      assert(Hashing.murmur64(x, seed) == Hashing.murmur64(bytes, seed), s"x=$x seed=$seed")
    }
  }

  test("murmur64 output is well distributed (chi-square-ish bucket check)") {
    val buckets = new Array[Int](16)
    (0 until 16000).foreach { i =>
      buckets((Hashing.murmur64(i.toLong, 3L) & 15L).toInt) += 1
    }
    buckets.foreach(c => assert(math.abs(c - 1000) < 150, buckets.mkString(",")))
  }

  test("bloomPositions length and range") {
    val pos = Hashing.bloomPositions("ACGTACGTACGT", 1000, 4)
    assert(pos.length == 4)
    pos.foreach(p => assert(p >= 0 && p < 1000))
  }

  test("bloomPositions deterministic and key-sensitive") {
    val a = Hashing.bloomPositions("AAAA", 512, 3)
    assert(a.toSeq == Hashing.bloomPositions("AAAA", 512, 3).toSeq)
    assert(a.toSeq != Hashing.bloomPositions("AAAT", 512, 3).toSeq)
  }

  test("bloomPositions rejects bad parameters") {
    intercept[IllegalArgumentException](Hashing.bloomPositions("A", 0, 3))
    intercept[IllegalArgumentException](Hashing.bloomPositions("A", 10, 0))
  }

  test("bloomPositions covers the whole range over many keys") {
    val m = 64
    val seen = scala.collection.mutable.Set.empty[Int]
    (0 until 2000).foreach(i => seen ++= Hashing.bloomPositions(s"k$i", m, 3))
    assert(seen.size == m)
  }

  test("bloomPositions positions roughly uniform (scalacheck)") {
    val prop = Prop.forAll(Gen.alphaNumStr.suchThat(_.nonEmpty)) { s =>
      val pos = Hashing.bloomPositions(s, 977, 4)
      pos.forall(p => p >= 0 && p < 977)
    }
    assert(SCTest.check(SCTest.Parameters.default, prop).passed)
  }

  test("partitionHash lands in [0, w)") {
    (0 until 1000).foreach { f =>
      (0 until 5).foreach { rep =>
        val g = Hashing.partitionHash(f.toLong, rep, 7)
        assert(g >= 0 && g < 7)
      }
    }
  }

  test("partitionHash is deterministic") {
    assert(Hashing.partitionHash(123L, 2, 100) == Hashing.partitionHash(123L, 2, 100))
  }

  test("partitionHash differs across repetitions (independence proxy)") {
    // With 100 groups, 1000 files agreeing on rep0 and rep1 assignments would
    // indicate correlated repetitions; expect ~1% coincidence.
    val same = (0 until 1000).count(f =>
      Hashing.partitionHash(f.toLong, 0, 100) == Hashing.partitionHash(f.toLong, 1, 100))
    assert(same < 50, s"reps look correlated: $same/1000 agree")
  }

  test("partitionHash balances groups roughly evenly") {
    val counts = new Array[Int](10)
    (0 until 10000).foreach(f => counts(Hashing.partitionHash(f.toLong, 0, 10)) += 1)
    counts.foreach(c => assert(math.abs(c - 1000) < 150, counts.mkString(",")))
  }

  test("partitionHash rejects w <= 0") {
    intercept[IllegalArgumentException](Hashing.partitionHash(1L, 0, 0))
  }

  test("splitmix64 is deterministic and non-trivial") {
    assert(Hashing.splitmix64(1L) == Hashing.splitmix64(1L))
    val outs = (0L until 1000L).map(Hashing.splitmix64)
    assert(outs.distinct.size == 1000)
  }

  test("bloomPositions double-hashing differs across i for odd step") {
    val r = new Random(5)
    (0 until 100).foreach { _ =>
      val key = r.nextLong().toString
      val pos = Hashing.bloomPositions(key, 1 << 16, 4)
      // h2 is odd, so consecutive probes differ in a power-of-two table
      assert(pos.distinct.length >= 3, pos.mkString(","))
    }
  }
}
