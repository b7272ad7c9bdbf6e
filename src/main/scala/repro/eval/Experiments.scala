package repro.eval

import org.apache.spark.sql.SparkSession

import repro.bloom.BloomParams
import repro.core.Rambo
import repro.genome.SynthGenomes.CorpusSpec

/** Canonical definitions of the reproduced experiments T1, T2, T5 and T6
  * (DESIGN.md §4).
  *
  * Both the `bench/` suites and the `repro.jobs.Tables` main run these from
  * one registry ([[Tables]]), in a session built by [[session]], through one
  * [[Table]] writer, so a table is always regenerated from the same corpus,
  * geometry, sweep and Spark settings regardless of how it is launched.
  * Each corpus sweep is one table whose rows hold both of the paper's views
  * of it: query time vs FP (Figs. 5/6) and memory vs FP (Figs. 7/8).
  *
  * Scaling notes vs. the paper: N, W, D, η and k match the paper exactly
  * (3480/2500 files, W=100/84, D=3, η∈{3,4}, k=31). Per-file k-mer counts are
  * ~10³ instead of ~10⁶ (one machine, hundreds of sweep points), with Bloom
  * sizes scaled in proportion so every fill-ratio/FP operating point matches.
  */
object Experiments {

  /** Corpus for the paper's 3480-file subset (Figs. 5/7 → T1).
    *
    * Pool sized so the Zipf tail bottoms out at document frequency ~2: most
    * 31-mers live in a handful of files (as in deduplicated genome archives)
    * while head k-mers span many — redundancy without making every query
    * k-mer near-universal.
    */
  val Corpus3480: CorpusSpec =
    CorpusSpec(nFiles = 3480, poolSize = 300000, totalPairs = 3000000L, alpha = 0.8, seed = 42L)

  /** Corpus for the paper's 2500-file subset (Figs. 6/8 → T2). */
  val Corpus2500: CorpusSpec =
    CorpusSpec(nFiles = 2500, poolSize = 216000, totalPairs = 2160000L, alpha = 0.8, seed = 43L)

  /** RAMBO geometry, straight from the paper. */
  val W3480 = 100
  val W2500 = 84
  val D = 3

  /** Bloom hash counts, straight from the paper. */
  val Etas: Seq[Int] = Seq(3, 4)

  /** Bloom-size sweeps (the paper "var[ies] the size of the Bloom filters to
    * test … different false positive rates"). BIGSI columns hold one file
    * (~860 k-mers here); RAMBO cells hold ~N/W files' union, so its sweep
    * sits ~an order of magnitude higher for the same FP range.
    */
  val BigsiSizes: Seq[Int] = Seq(3072, 6144, 12288, 24576, 49152)
  val RamboSizes: Seq[Int] = Seq(32768, 65536, 131072, 262144, 524288)

  /** Queries per sweep point (paper: 30,000 once; here 3,000 × ~50 points). */
  val NPositive = 600
  val NNegative = 2400

  /** The Spark session the tables and the tests run in, with 64 shuffle
    * partitions. The master comes from `SPARK_MASTER` (default `local[*]`).
    * Broadcast joins are off, so joins exercise the shuffle path.
    */
  def session(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  private val dataCache = scala.collection.mutable.HashMap.empty[CorpusSpec, Harness.ExperimentData]

  /** Prepared corpus (generated + cached once per JVM). */
  def data(spark: SparkSession, spec: CorpusSpec): Harness.ExperimentData = synchronized {
    dataCache.getOrElseUpdate(spec, Harness.prepare(spark, spec, NPositive, NNegative))
  }

  /** The full BIGSI+RAMBO sweep for one corpus: all η × all sizes, every
    * point built and scored before any is timed.
    */
  def sweep(spark: SparkSession, spec: CorpusSpec, w: Int): Seq[Harness.SweepPoint] = {
    val d = data(spark, spec)
    Harness.time(Etas.flatMap { eta =>
      BigsiSizes.map(m => Harness.runBigsi(d, m, eta)) ++
        RamboSizes.map(m => Harness.runRambo(d, w, D, m, eta))
    })
  }

  /** One row of the T5 scaling table; `speedup` is `usBigsi / usRambo`. */
  final case class ScalingRow(
      n: Int, w: Int, mBigsi: Int, mRambo: Int,
      fpBigsiPct: Double, fpRamboPct: Double,
      usBigsi: Double, usBigsiIqr: Double,
      usRambo: Double, usRamboIqr: Double,
      speedup: Double)

  /** T5's corpus sizes, index FP target and hash count. */
  val ScalingNs: Seq[Int] = Seq(500, 1000, 2000, 3480)
  val ScalingTargetFp = 0.01
  val ScalingEta = 4

  /** T5: query-time ratio vs. N at a matched ~1% FP target, η=4, D=3,
    * W = round(1.7·√N) — the same W(N) rule behind the paper's W=100@3480 and
    * W=84@2500 choices, which is what makes RAMBO's probe count sub-linear.
    * Every N's pair of indexes is built and scored before any is timed.
    */
  def scalingTable(spark: SparkSession): Seq[ScalingRow] = {
    val built = ScalingNs.map { n =>
      val frac = n.toDouble / Corpus3480.nFiles
      val spec = Corpus3480.copy(
        nFiles = n,
        poolSize = math.max(1000, (Corpus3480.poolSize * frac).toInt),
        totalPairs = math.max(10000L, (Corpus3480.totalPairs * frac).toLong),
        seed = Corpus3480.seed + n)
      val w = math.max(2, math.round(1.7 * math.sqrt(n.toDouble)).toInt)
      val d = data(spark, spec)
      val nFile = Harness.avgKmersPerFile(d)
      val nCell = Harness.avgKmersPerCell(d, w, D)
      // Matched *index* FP: BIGSI needs per-filter fp = target; RAMBO's D-fold
      // intersection lets each cell run at target^(1/D).
      val mBigsi = BloomParams.bitsForFp(math.ceil(nFile).toLong, ScalingEta, ScalingTargetFp).toInt
      val mRambo = BloomParams.bitsForFp(math.ceil(nCell).toLong, ScalingEta,
        math.pow(ScalingTargetFp, 1.0 / D)).toInt
      (n, w, Seq(Harness.runBigsi(d, mBigsi, ScalingEta), Harness.runRambo(d, w, D, mRambo, ScalingEta)))
    }
    val timed = Harness.time(built.flatMap(_._3))
    built.indices.map { i =>
      val ((n, w, _), b, r) = (built(i), timed(2 * i), timed(2 * i + 1))
      ScalingRow(n, w, b.mBits, r.mBits, b.fpPct, r.fpPct,
        b.usProbe, b.usProbeIqr, r.usProbe, r.usProbeIqr, b.usProbe / r.usProbe)
    }
  }

  /** One row of the T6 construction-scaling table: the median build time of
    * 5 builds with their IQR, and the speedup and throughput at that median.
    */
  final case class BuildRow(partitions: Int, buildSec: Double, buildSecIqr: Double,
                            speedup: Double, mPairsPerSec: Double)

  /** T6's input partition counts and index geometry (m, η). */
  val BuildPartitions: Seq[Int] = Seq(1, 2, 4, 8, 16)
  val BuildM = 131072
  val BuildEta = 4

  /** T6: RAMBO distributed-build wall time vs. input partition count over the
    * 3480-file corpus — the single-box analogue of the SIGMOD "170TB across
    * 100 nodes" construction claim (a pure map + OR-merge, so wall time should
    * fall near-linearly until the cores saturate).
    */
  def constructionTable(spark: SparkSession): Seq[BuildRow] = {
    val d = data(spark, Corpus3480)
    val pairs = d.corpusDf.count()
    val times = BuildPartitions.map { p =>
      val repart = d.corpusDf.repartition(p).cache()
      repart.count()
      // Median of 5 builds — Spark job-scheduling noise at 1-partition scale
      // is comparable to the build itself otherwise.
      val runs = (1 to 5).map(_ =>
        Timer.timed(Rambo.buildSpark(repart, d.numFiles, W3480, D, BuildM, BuildEta))._2)
      repart.unpersist()
      p -> Timer.quartiles(runs)
    }
    val base = times.head._2.median
    times.map { case (p, t) =>
      BuildRow(p, t.median, t.iqr, base / t.median, pairs / t.median / 1e6)
    }
  }

  /** T1, T2, T5, T6: each table's file id and title, with its rows computed in `s`. */
  def t1(s: SparkSession) = Table("T1_query_time_3480",
    "T1: Query time and memory vs FP rate, 3480 files (paper Figs. 5 and 7)",
    sweep(s, Corpus3480, W3480))
  def t2(s: SparkSession) = Table("T2_query_time_2500",
    "T2: Query time and memory vs FP rate, 2500 files (paper Figs. 6 and 8)",
    sweep(s, Corpus2500, W2500))
  def t5(s: SparkSession) = Table("T5_scaling",
    "T5: query time scaling with N (matched ~1% FP, eta=4, D=3, W=1.7*sqrt(N))", scalingTable(s))
  def t6(s: SparkSession) = Table("T6_construction",
    "T6: RAMBO Spark build time vs input partitions (3480 files, W=100, D=3)", constructionTable(s))

  /** The registry, by table name. */
  val Tables: Map[String, SparkSession => Table[_ <: Product]] =
    Map("T1" -> t1, "T2" -> t2, "T5" -> t5, "T6" -> t6)
}
