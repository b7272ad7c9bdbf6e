package repro.genome

import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.aggregate.BaseAggregateExec
import org.apache.spark.sql.execution.exchange.Exchange

import repro.SparkSpec
import repro.genome.SynthGenomes.CorpusSpec

class SynthGenomesSpec extends SparkSpec {

  private val spec = CorpusSpec(nFiles = 40, poolSize = 800, totalPairs = 8000L,
    alpha = 0.9, seed = 5L)

  test("docFreq is within [1, nFiles] and non-increasing in rank") {
    val dfs = (0 until spec.poolSize).map(spec.docFreq)
    dfs.foreach(d => assert(d >= 1 && d <= spec.nFiles))
    dfs.sliding(2).foreach { case Seq(a, b) => assert(a >= b) }
  }

  test("docFreq sums to roughly totalPairs") {
    val total = (0 until spec.poolSize).map(spec.docFreq(_).toLong).sum
    // clamping to [1, nFiles] distorts the sum a bit; stay within 2x
    assert(total > spec.totalPairs / 2 && total < spec.totalPairs * 2, s"total=$total")
  }

  test("higher alpha concentrates document frequency in the head") {
    val flat = CorpusSpec(40, 800, 8000L, alpha = 0.1, seed = 5L)
    val skew = CorpusSpec(40, 800, 8000L, alpha = 1.2, seed = 5L)
    assert(skew.docFreq(0) > flat.docFreq(0))
  }

  test("poolKmer is deterministic, k-long and distinct across indices") {
    val ks = (0 until 500).map(i => SynthGenomes.poolKmer(spec, i))
    assert(ks == (0 until 500).map(i => SynthGenomes.poolKmer(spec, i)))
    ks.foreach(k => assert(k.length == spec.k && Dna.isUnambiguous(k)))
    assert(ks.distinct.size == 500)
  }

  test("hostFile lands in [0, nFiles)") {
    (0 until 200).foreach { i =>
      (0 until 5).foreach { rep =>
        val f = SynthGenomes.hostFile(spec, i, rep)
        assert(f >= 0 && f < spec.nFiles)
      }
    }
    // hostFiles: distinct files in [0, nFiles), at most docFreq(i) of them,
    // the first occurrences of the replicas' host files in replica order
    (0 until spec.poolSize).foreach { i =>
      val fs = SynthGenomes.hostFiles(spec, i).toSeq
      assert(fs.distinct == fs && fs.forall(f => f >= 0 && f < spec.nFiles))
      assert(fs.nonEmpty && fs.size <= spec.docFreq(i))
      assert(fs == (0 until spec.docFreq(i)).map(SynthGenomes.hostFile(spec, i, _)).distinct)
    }
    assert(SynthGenomes.corpusLocal(spec) == (0 until spec.poolSize).flatMap(i =>
      SynthGenomes.hostFiles(spec, i).toSeq.map((_, SynthGenomes.poolKmer(spec, i)))))
  }

  test("corpus plan holds no aggregate and no shuffle exchange") {
    val df = SynthGenomes.corpus(spark, spec)
    df.collect() // adaptive execution fixes the final plan, exchanges included, as it runs
    val plan = df.queryExecution.executedPlan
    val found = new AdaptiveSparkPlanHelper {}.collect(plan) {
      case a: BaseAggregateExec => a
      case e: Exchange          => e
    }
    assert(found.isEmpty, plan.treeString)
  }

  test("corpus DataFrame equals the local reference generation") {
    import spark.implicits._
    val got = SynthGenomes.corpus(spark, spec)
      .as[(Int, String)].collect().toSet
    val want = SynthGenomes.corpusLocal(spec).toSet
    assert(got == want)
  }

  test("corpus has no duplicate (file, kmer) pairs") {
    val df = SynthGenomes.corpus(spark, spec)
    assert(df.count() == df.distinct().count())
  }

  test("corpus file ids cover [0, nFiles) and kmers are valid") {
    import spark.implicits._
    val rows = SynthGenomes.corpus(spark, spec).as[(Int, String)].collect()
    assert(rows.map(_._1).forall(f => f >= 0 && f < spec.nFiles))
    rows.take(100).foreach { case (_, k) =>
      assert(k.length == spec.k && Dna.isUnambiguous(k))
    }
    // with 8000 pairs over 40 files every file should be populated
    assert(rows.map(_._1).distinct.length == spec.nFiles)
  }

  test("corpus is deterministic in the spec") {
    import spark.implicits._
    val a = SynthGenomes.corpus(spark, spec).as[(Int, String)].collect().toSet
    val b = SynthGenomes.corpus(spark, spec).as[(Int, String)].collect().toSet
    assert(a == b)
    val c = SynthGenomes.corpus(spark, spec.copy(seed = 6L)).as[(Int, String)].collect().toSet
    assert(c != a)
  }

  test("head kmers are shared across many files (the redundancy RAMBO needs)") {
    val local = SynthGenomes.corpusLocal(spec)
    val byKmer = local.groupBy(_._2).view.mapValues(_.size)
    val head = SynthGenomes.poolKmer(spec, 0)
    assert(byKmer(head) > spec.nFiles / 2, s"head df=${byKmer(head)}")
  }

  test("tail kmers appear in few files") {
    val local = SynthGenomes.corpusLocal(spec)
    val tail = SynthGenomes.poolKmer(spec, spec.poolSize - 1)
    val df = local.count(_._2 == tail)
    assert(df >= 1 && df <= 5, s"tail df=$df")
  }

  test("negativeKmers are absent from the pool") {
    val pool = (0 until spec.poolSize).map(i => SynthGenomes.poolKmer(spec, i)).toSet
    val negs = SynthGenomes.negativeKmers(spec, 200)
    assert(negs.size == 200)
    negs.foreach(n => assert(!pool.contains(n)))
    assert(negs.distinct.size == 200)
  }

  test("negativeKmers deterministic in seed") {
    assert(SynthGenomes.negativeKmers(spec, 50) == SynthGenomes.negativeKmers(spec, 50))
    assert(SynthGenomes.negativeKmers(spec, 50, seed = 9L) !=
           SynthGenomes.negativeKmers(spec, 50, seed = 10L))
  }

  test("corpusLocal per-file sizes are roughly balanced") {
    val sizes = SynthGenomes.corpusLocal(spec).groupBy(_._1).map(_._2.size)
    val avg = sizes.sum.toDouble / sizes.size
    sizes.foreach(s => assert(s > avg / 4 && s < avg * 4, s"file size $s vs avg $avg"))
  }
}
