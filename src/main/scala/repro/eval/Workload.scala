package repro.eval

import repro.genome.SynthGenomes
import repro.genome.SynthGenomes.CorpusSpec
import repro.util.{BitVector, Hashing}

/** Query workloads, mirroring the paper's "30,000 randomly selected k-mer
  * queries": a mix of corpus-present k-mers (sampled uniformly from the pool,
  * so mostly low-document-frequency tail under the Zipf corpus) and fresh
  * random 31-mers, which are universal negatives with overwhelming
  * probability. FP rate is scored per (query, non-containing file) pair.
  */
object Workload {

  /** One query with its exact truth set. */
  final case class Query(kmer: String, truth: BitVector)

  /** The k-mers of [[queries]] before truth is known: `nPositive` pool
    * samples, then `nNegative` fresh random k-mers. Only these need truth.
    */
  def candidates(spec: CorpusSpec, nPositive: Int, nNegative: Int,
                 seed: Long = 123L): IndexedSeq[String] =
    (0 until nPositive).map(i =>
      SynthGenomes.poolKmer(spec, math.floorMod(Hashing.splitmix64(seed + i), spec.poolSize.toLong))) ++
      SynthGenomes.negativeKmers(spec, nNegative, seed)

  /** Build a workload of `nPositive` pool-sampled present k-mers and
    * `nNegative` corpus-absent k-mers, deterministic in `seed`.
    */
  def queries(spec: CorpusSpec, truth: GroundTruth,
              nPositive: Int, nNegative: Int, seed: Long = 123L): IndexedSeq[Query] = {
    val (pos, neg) = candidates(spec, nPositive, nNegative, seed).splitAt(nPositive)
    pos.map(k => Query(k, truth.filesOf(k))) ++
      neg.filterNot(truth.isPresent) // collisions with the pool are ~impossible; guard anyway
        .map(k => Query(k, BitVector.empty(truth.numFiles)))
  }
}
