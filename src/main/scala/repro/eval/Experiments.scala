package repro.eval

import org.apache.spark.sql.SparkSession

import repro.bloom.BloomParams
import repro.core.Rambo
import repro.genome.SynthGenomes.CorpusSpec

/** Canonical definitions of the reproduced experiments T1–T6 (DESIGN.md §4).
  *
  * Both the `bench/` suites and the `repro.jobs.Tables` main call these, in a
  * session built by [[session]], so a table is always regenerated from the
  * same corpus, geometry, sweep and Spark settings regardless of how it is
  * launched. Results are cached per JVM so a bench run evaluating the
  * query-time view (T1/T2) and the memory view (T3/T4) of the same sweep
  * builds each index once.
  *
  * Scaling notes vs. the paper: N, W, D, η and k match the paper exactly
  * (3480/2500 files, W=100/84, D=3, η∈{3,4}, k=31). Per-file k-mer counts are
  * ~10³ instead of ~10⁶ (one machine, hundreds of sweep points), with Bloom
  * sizes scaled in proportion so every fill-ratio/FP operating point matches.
  */
object Experiments {

  /** Corpus for the paper's 3480-file subset (Figs. 5/7 → T1/T3).
    *
    * Pool sized so the Zipf tail bottoms out at document frequency ~2: most
    * 31-mers live in a handful of files (as in deduplicated genome archives)
    * while head k-mers span many — redundancy without making every query
    * k-mer near-universal.
    */
  val Corpus3480: CorpusSpec =
    CorpusSpec(nFiles = 3480, poolSize = 300000, totalPairs = 3000000L, alpha = 0.8, seed = 42L)

  /** Corpus for the paper's 2500-file subset (Figs. 6/8 → T2/T4). */
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

  /** The Spark session the tables and the tests run in. Master and shuffle
    * partitions come from `SPARK_MASTER` and `SPARK_SHUFFLE_PARTITIONS`
    * (default `local[*]`, 64). Broadcast joins are off, so joins exercise the
    * shuffle path.
    */
  def session(appName: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  private val dataCache = scala.collection.mutable.HashMap.empty[CorpusSpec, Harness.ExperimentData]
  private val sweepCache = scala.collection.mutable.HashMap.empty[(CorpusSpec, Int), Seq[Harness.SweepPoint]]

  /** Prepared corpus (generated + cached once per JVM). */
  def data(spark: SparkSession, spec: CorpusSpec): Harness.ExperimentData = synchronized {
    dataCache.getOrElseUpdate(spec, Harness.prepare(spark, spec, NPositive, NNegative))
  }

  /** The full BIGSI+RAMBO sweep for one corpus: all η × all sizes. */
  def sweep(spark: SparkSession, spec: CorpusSpec, w: Int): Seq[Harness.SweepPoint] = synchronized {
    sweepCache.getOrElseUpdate((spec, w), {
      val d = data(spark, spec)
      Etas.flatMap { eta =>
        BigsiSizes.map(m => Harness.runBigsi(d, m, eta)) ++
          RamboSizes.map(m => Harness.runRambo(d, w, D, m, eta))
      }
    })
  }

  /** One row of the T5 scaling table. */
  final case class ScalingRow(
      n: Int, w: Int, mBigsi: Int, mRambo: Int,
      fpBigsiPct: Double, fpRamboPct: Double,
      usBigsi: Double, usRambo: Double) {
    def speedup: Double = usBigsi / usRambo
  }

  /** T5's corpus sizes, index FP target and hash count. */
  val ScalingNs: Seq[Int] = Seq(500, 1000, 2000, 3480)
  val ScalingTargetFp = 0.01
  val ScalingEta = 4

  /** T5: query-time ratio vs. N at a matched ~1% FP target, η=4, D=3,
    * W = round(1.7·√N) — the same W(N) rule behind the paper's W=100@3480 and
    * W=84@2500 choices, which is what makes RAMBO's probe count sub-linear.
    */
  def scalingTable(spark: SparkSession): Seq[ScalingRow] = {
    ScalingNs.map { n =>
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
      val b = Harness.runBigsi(d, mBigsi, ScalingEta)
      val r = Harness.runRambo(d, w, D, mRambo, ScalingEta)
      ScalingRow(n, w, mBigsi, mRambo, b.fpPct, r.fpPct, b.usProbe, r.usProbe)
    }
  }

  def formatScaling(rows: Seq[ScalingRow]): String = {
    val sb = new StringBuilder
    sb.append("== T5: query time scaling with N (matched ~1% FP, eta=4, D=3, W=1.7*sqrt(N)) ==\n")
    sb.append(f"${"N"}%6s ${"W"}%5s ${"m_bigsi"}%9s ${"m_rambo"}%9s ${"FP_b_%"}%8s ${"FP_r_%"}%8s " +
              f"${"us/q_BIGSI"}%11s ${"us/q_RAMBO"}%11s ${"speedup"}%8s\n")
    rows.foreach { r =>
      sb.append(f"${r.n}%6d ${r.w}%5d ${r.mBigsi}%9d ${r.mRambo}%9d ${r.fpBigsiPct}%8.3f " +
                f"${r.fpRamboPct}%8.3f ${r.usBigsi}%11.2f ${r.usRambo}%11.2f ${r.speedup}%8.2f\n")
    }
    sb.toString
  }

  /** One row of the T6 construction-scaling table. */
  final case class BuildRow(partitions: Int, buildSec: Double, speedup: Double, mPairsPerSec: Double)

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
        Timer.timed(Rambo.buildSpark(repart, d.numFiles, W3480, D, BuildM, BuildEta))._2).sorted
      repart.unpersist()
      p -> runs(2)
    }
    val base = times.head._2
    times.map { case (p, t) => BuildRow(p, t, base / t, pairs / t / 1e6) }
  }

  def formatConstruction(rows: Seq[BuildRow]): String = {
    val sb = new StringBuilder
    sb.append("== T6: RAMBO Spark build time vs input partitions (3480 files, W=100, D=3) ==\n")
    sb.append(f"${"partitions"}%10s ${"build_s"}%9s ${"speedup"}%8s ${"Mpairs/s"}%9s\n")
    rows.foreach { r =>
      sb.append(f"${r.partitions}%10d ${r.buildSec}%9.2f ${r.speedup}%8.2f ${r.mPairsPerSec}%9.3f\n")
    }
    sb.toString
  }
}
