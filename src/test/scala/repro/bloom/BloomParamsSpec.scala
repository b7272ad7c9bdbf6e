package repro.bloom

import org.scalatest.funsuite.AnyFunSuite

class BloomParamsSpec extends AnyFunSuite {

  test("falsePositiveRate at n=0 is 0") {
    assert(BloomParams.falsePositiveRate(1024, 3, 0) == 0.0)
  }

  test("falsePositiveRate increases with load") {
    val fps = Seq(100L, 500L, 2000L).map(BloomParams.falsePositiveRate(8192, 3, _))
    assert(fps == fps.sorted)
    assert(fps.head < fps.last)
  }

  test("falsePositiveRate decreases with size") {
    assert(BloomParams.falsePositiveRate(4096, 3, 500) >
           BloomParams.falsePositiveRate(16384, 3, 500))
  }

  test("known closed-form value: m=n*8, eta=3") {
    // fill = 1 - e^{-3/8} = 0.31271..., fp = fill^3 = 0.030579...
    val fp = BloomParams.falsePositiveRate(8000, 3, 1000)
    assert(math.abs(fp - 0.030579) < 1e-4, fp.toString)
  }

  test("expectedFill bounds") {
    assert(BloomParams.expectedFill(1000, 3, 0) == 0.0)
    val f = BloomParams.expectedFill(1000, 3, 10000)
    assert(f > 0.99 && f <= 1.0)
  }

  test("bitsForFp inverts falsePositiveRate") {
    Seq(0.2, 0.05, 0.01, 0.001).foreach { p =>
      Seq(3, 4).foreach { eta =>
        val m = BloomParams.bitsForFp(1000, eta, p)
        val achieved = BloomParams.falsePositiveRate(m, eta, 1000)
        assert(achieved <= p * 1.01, s"p=$p eta=$eta m=$m achieved=$achieved")
        // and not wastefully larger than needed
        assert(BloomParams.falsePositiveRate(m / 2, eta, 1000) > p)
      }
    }
  }

  test("bitsForFp rejects degenerate inputs") {
    intercept[IllegalArgumentException](BloomParams.bitsForFp(0, 3, 0.1))
    intercept[IllegalArgumentException](BloomParams.bitsForFp(10, 3, 0.0))
    intercept[IllegalArgumentException](BloomParams.bitsForFp(10, 3, 1.0))
  }

  test("ramboNegativeFp is the D-fold product") {
    assert(math.abs(BloomParams.ramboNegativeFp(0.1, 3) - 0.001) < 1e-15)
    assert(BloomParams.ramboNegativeFp(0.5, 1) == 0.5)
  }

  test("rambo intersection beats a single filter for fp<1") {
    assert(BloomParams.ramboNegativeFp(0.2, 3) < 0.2)
  }
}
