package repro.bloom

/** Bloom filter sizing theory — used to pick sweep points and to sanity-check
  * measured false-positive rates against `(1 - e^{-ηn/m})^η`.
  */
object BloomParams {

  /** Theoretical FP rate of an (m, η) filter holding n distinct keys. */
  def falsePositiveRate(m: Long, eta: Int, n: Long): Double = {
    require(m > 0 && eta > 0 && n >= 0)
    math.pow(1.0 - math.exp(-eta.toDouble * n / m), eta)
  }

  /** Expected fill ratio of an (m, η) filter holding n distinct keys. */
  def expectedFill(m: Long, eta: Int, n: Long): Double =
    1.0 - math.exp(-eta.toDouble * n / m)

  /** Bits needed for a target FP rate `p` with `eta` hashes and n keys:
    * solve `(1 - e^{-ηn/m})^η = p` for m.
    */
  def bitsForFp(n: Long, eta: Int, p: Double): Long = {
    require(n > 0 && eta > 0 && p > 0 && p < 1)
    val fill = math.pow(p, 1.0 / eta) // required fill ratio
    math.ceil(-eta.toDouble * n / math.log(1.0 - fill)).toLong
  }

  /** RAMBO whole-index FP on a universal negative (a key in no file): the
    * probability a given file is falsely reported is the product over its D
    * cells of each cell filter's FP. With equal per-cell FP `cellFp` this is
    * `cellFp^D` — the count-min intersection's FP suppression.
    */
  def ramboNegativeFp(cellFp: Double, d: Int): Double = math.pow(cellFp, d)
}
