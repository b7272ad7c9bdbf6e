package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.util.BitVector

/** Exact containment ground truth: for each k-mer, the set of files holding
  * it. Built from (file, kmer) rows (the harness passes only the rows of its
  * workload's k-mers) and used to score every sweep point's false positives /
  * false negatives.
  */
final case class GroundTruth(numFiles: Int, byKmer: Map[String, BitVector]) {
  private val empty = BitVector.empty(numFiles)

  /** Files containing `kmer` (empty vector if the k-mer is corpus-absent). */
  def filesOf(kmer: String): BitVector = byKmer.getOrElse(kmer, empty)

  /** Whether `kmer` appears in any file. */
  def isPresent(kmer: String): Boolean = byKmer.contains(kmer)
}

object GroundTruth {

  /** Invert (file, kmer) rows: the one truth inversion. Spark callers collect
    * the rows of the k-mers they score first (see `Harness.prepare`).
    */
  def fromLocal(corpus: Iterable[(Int, String)], numFiles: Int): GroundTruth = {
    val m = scala.collection.mutable.HashMap.empty[String, BitVector]
    corpus.foreach { case (f, kmer) =>
      m.getOrElseUpdate(kmer, BitVector.empty(numFiles)).set(f)
    }
    GroundTruth(numFiles, m.toMap)
  }

  /** Relational ground truth for a (qid, kmer) query DataFrame: the exact
    * (qid, file_id) containment join. This is what the DuckDB oracle checks
    * the batch query engine against.
    */
  def truthDf(spark: SparkSession, queries: DataFrame, corpus: DataFrame): DataFrame =
    queries
      .join(corpus, Seq("kmer"))
      .select(col("qid"), col("file_id"))
      .distinct()
}
