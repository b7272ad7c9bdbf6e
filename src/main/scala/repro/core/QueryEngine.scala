package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Batch query path: a queries DataFrame looked up against a broadcast index
  * (DESIGN.md S12, the "query via DataFrame filter/lookup against sketches"
  * band). The index (its bitslice matrix, a few MB) is broadcast once; a UDF resolves
  * each k-mer to its matching file ids, and `explode` yields the relational
  * (qid, file_id) result that downstream SQL — and the DuckDB oracle — can
  * consume.
  */
object QueryEngine {

  /** Query an index with a (qid, kmer) DataFrame → (qid, file_id). */
  def query(spark: SparkSession, queries: DataFrame, index: MembershipIndex): DataFrame = {
    val bc = spark.sparkContext.broadcast(index)
    val lookup = udf((kmer: String) => bc.value.queryProbe(kmer).setBits)
    queries
      .select(col("qid"), explode(lookup(col("kmer"))) as "file_id")
  }

  /** [[query]] on a RAMBO index. */
  def queryRambo(spark: SparkSession, queries: DataFrame, index: RamboIndex): DataFrame =
    query(spark, queries, index)
}
