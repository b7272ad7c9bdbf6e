package repro.genome

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import scala.collection.mutable

/** k-mer extraction: the sliding-window decomposition of a sequence into its
  * k-contiguous substrings (the paper uses k = 31 throughout).
  *
  * Windows containing an ambiguous base (anything outside ACGT) are skipped,
  * as real k-mer counters do for 'N' runs in assemblies. k-mers are emitted
  * in upper case: soft-masked (lower-case) regions of a FASTA record are the
  * same bases, and queries are hashed as given in upper-case ACGT.
  */
object Kmers {
  /** The paper's k-mer length. */
  val DefaultK = 31

  /** All k-windows of `seq` in order, upper-cased, skipping windows with
    * ambiguous bases. May contain duplicates (callers wanting the k-mer *set*
    * use [[kmerSet]]).
    */
  def kmers(seq: String, k: Int = DefaultK): Seq[String] = {
    require(k > 0, s"k must be > 0, got $k")
    if (seq.length < k) return Seq.empty
    // Returns `seq` itself, with no copy, unless it holds a lower-case base.
    val s = seq.toUpperCase(java.util.Locale.ROOT)
    val out = mutable.ArrayBuffer.empty[String]
    // `lastBad` tracking keeps extraction O(n) even with long N runs.
    var i = 0
    var lastBad = -1
    var j = 0
    while (j < k - 1) { if (Dna.code(s.charAt(j)) < 0) lastBad = j; j += 1 }
    while (i + k <= s.length) {
      val end = i + k - 1
      if (Dna.code(s.charAt(end)) < 0) lastBad = end
      if (lastBad < i) out += s.substring(i, i + k)
      i += 1
    }
    out.toSeq
  }

  /** Distinct k-mers of `seq`. */
  def kmerSet(seq: String, k: Int = DefaultK): Set[String] = kmers(seq, k).toSet

  /** Explode a (…, `seqCol`) DataFrame (e.g. parsed FASTA) into one row per
    * distinct k-mer of each sequence, through a UDF so Catalyst distributes it.
    */
  def explodeKmers(df: DataFrame, seqCol: Column, k: Int = DefaultK): DataFrame = {
    val kmerSetUdf = udf((seq: String) => if (seq == null) Array.empty[String] else kmerSet(seq, k).toArray)
    df.withColumn("kmer", explode(kmerSetUdf(seqCol)))
  }
}
