package repro.util

import java.nio.charset.StandardCharsets

/** Hash substrate shared by every sketch in the repo.
  *
  * Three layers, all deterministic:
  *
  *  - [[murmur64]]: MurmurHash64A (Austin Appleby's 64-bit Murmur2) over a
  *    byte array with a caller-supplied seed. This is the single source of
  *    randomness for the whole index, which is what makes Spark-built and
  *    locally-built sketches bit-identical.
  *  - [[bloomPositions]]: the Kirsch–Mitzenmacher double-hashing scheme
  *    `pos_i = (h1 + i*h2) mod m` that expands one 128-bit draw into the η
  *    Bloom positions. BIGSI and RAMBO share these functions by construction
  *    (the paper requires all filters to use the same hash functions so that a
  *    query hashes once and probes every column).
  *  - [[partitionHash]]: the universal hash `ph_d(file) ∈ {0..W-1}` that
  *    assigns a file to its group in repetition `d` (RAMBO's count-min-sketch
  *    arrangement).
  */
object Hashing {

  private final val M = 0xc6a4a7935bd1e995L
  private final val R = 47

  /** MurmurHash64A's step for one 8-byte block `k` (little-endian). */
  @inline private def mixBlock(h: Long, k: Long): Long = {
    var x = k * M; x ^= x >>> R; x *= M
    (h ^ x) * M
  }

  /** MurmurHash64A's finaliser. */
  @inline private def finalMix(h: Long): Long = {
    val x = (h ^ (h >>> R)) * M
    x ^ (x >>> R)
  }

  /** MurmurHash64A over `data` with `seed`. */
  def murmur64(data: Array[Byte], seed: Long): Long = {
    var h = seed ^ (data.length * M)
    val nBlocks = data.length >>> 3
    var i = 0
    while (i < nBlocks) {
      val base = i << 3
      h = mixBlock(h,
        (data(base) & 0xffL) |
        ((data(base + 1) & 0xffL) << 8) |
        ((data(base + 2) & 0xffL) << 16) |
        ((data(base + 3) & 0xffL) << 24) |
        ((data(base + 4) & 0xffL) << 32) |
        ((data(base + 5) & 0xffL) << 40) |
        ((data(base + 6) & 0xffL) << 48) |
        ((data(base + 7) & 0xffL) << 56))
      i += 1
    }
    val tail = nBlocks << 3
    val rem = data.length & 7
    if (rem >= 7) h ^= (data(tail + 6) & 0xffL) << 48
    if (rem >= 6) h ^= (data(tail + 5) & 0xffL) << 40
    if (rem >= 5) h ^= (data(tail + 4) & 0xffL) << 32
    if (rem >= 4) h ^= (data(tail + 3) & 0xffL) << 24
    if (rem >= 3) h ^= (data(tail + 2) & 0xffL) << 16
    if (rem >= 2) h ^= (data(tail + 1) & 0xffL) << 8
    if (rem >= 1) { h ^= data(tail) & 0xffL; h *= M }
    finalMix(h)
  }

  /** MurmurHash64A over a string's UTF-8 bytes. */
  def murmur64(s: String, seed: Long): Long =
    murmur64(s.getBytes(StandardCharsets.UTF_8), seed)

  /** MurmurHash64A over a long's 8 little-endian bytes, hashed as one block. */
  def murmur64(x: Long, seed: Long): Long = finalMix(mixBlock(seed ^ (8 * M), x))

  /** Seeds for the two base draws of the double-hashing scheme. */
  private val Seed1 = 0x9e3779b97f4a7c15L
  private val Seed2 = 0xc2b2ae3d27d4eb4fL

  @inline private def floorMod(x: Long, m: Int): Int = {
    val r = (x % m).toInt
    if (r < 0) r + m else r
  }

  /** The η Bloom bit positions of `key` (its UTF-8 bytes) in a filter of `m` bits.
    *
    * Kirsch–Mitzenmacher: `pos_i = (h1 + i*h2) mod m` with `h2` forced odd so
    * the probe sequence cycles through residues even for power-of-two `m`.
    */
  def bloomPositions(key: String, m: Int, eta: Int): Array[Int] = {
    require(m > 0, s"m must be > 0, got $m")
    require(eta > 0, s"eta must be > 0, got $eta")
    val bytes = key.getBytes(StandardCharsets.UTF_8)
    val h1 = murmur64(bytes, Seed1)
    val h2 = murmur64(bytes, Seed2) | 1L
    val out = new Array[Int](eta)
    var i = 0
    while (i < eta) { out(i) = floorMod(h1 + i * h2, m); i += 1 }
    out
  }

  /** RAMBO partition hash: group of `fileId` in repetition `rep`, in `[0, w)`.
    *
    * Each repetition is an independent universal hash (seeded by `rep`), so
    * the D group assignments of a file are independent — the count-min-sketch
    * property RAMBO's intersection argument rests on.
    */
  def partitionHash(fileId: Long, rep: Int, w: Int): Int = {
    require(w > 0, s"w must be > 0, got $w")
    floorMod(murmur64(fileId, 0x5851f42d4c957f2dL + rep), w)
  }

  /** A deterministic splitmix64 stream for synthetic data generation. */
  def splitmix64(state: Long): Long = {
    var z = state + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
}
