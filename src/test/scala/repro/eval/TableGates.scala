package repro.eval

import scala.reflect.ClassTag

import org.scalatest.Assertions

/** The acceptance gate of every reproduced table, defined once. The `bench/`
  * suites run each gate on the rows they have just recorded, and
  * [[ExperimentsSpec]] runs it on the rows committed in `bench_results/`.
  */
object TableGates extends Assertions {

  /** Fastest probe-path point of `method` at FP below `fpPct`, if any. */
  private def fastestBelow(rows: Seq[Harness.SweepPoint], method: String, fpPct: Double): Option[Harness.SweepPoint] =
    rows.filter(p => p.method.startsWith(method) && p.fpPct <= fpPct)
      .sortBy(_.usProbe).headOption

  /** T1 (paper Figs. 5 and 7, 3480 files). */
  def t1(rows: Seq[Harness.SweepPoint]): Unit = {
    // Paper's headline claim at this N: RAMBO beats BIGSI at matched accuracy.
    for (fpCut <- Seq(2.0, 10.0)) {
      val b = fastestBelow(rows, "BIGSI", fpCut)
      val r = fastestBelow(rows, "RAMBO", fpCut)
      assert(b.nonEmpty && r.nonEmpty, s"no points under $fpCut% FP")
      assert(r.get.usProbe < b.get.usProbe,
        s"RAMBO (${r.get.usProbe}us) not faster than BIGSI (${b.get.usProbe}us) at <=$fpCut% FP")
    }
    // Memory is monotone in m within a method/eta — sanity of the sweep.
    for (method <- Seq("BIGSI", "RAMBO"); eta <- Experiments.Etas) {
      val pts = rows.filter(p => p.method.startsWith(method) && p.eta == eta).sortBy(_.mBits)
      assert(pts.map(_.indexMB) == pts.map(_.indexMB).sorted, s"$method eta=$eta")
    }
  }

  /** T2 (paper Figs. 6 and 8, 2500 files). */
  def t2(rows: Seq[Harness.SweepPoint]): Unit = {
    val b = fastestBelow(rows, "BIGSI", 2.0)
    val r = fastestBelow(rows, "RAMBO", 2.0)
    assert(b.nonEmpty && r.nonEmpty)
    assert(r.get.usProbe < b.get.usProbe,
      s"RAMBO (${r.get.usProbe}us) not faster than BIGSI (${b.get.usProbe}us) at <=2% FP")
    // FP falls as memory grows for both methods (the tradeoff both figures plot).
    for (method <- Seq("BIGSI", "RAMBO"); eta <- Experiments.Etas) {
      val pts = rows.filter(p => p.method.startsWith(method) && p.eta == eta).sortBy(_.mBits)
      assert(pts.head.fpPct + 1e-9 >= pts.last.fpPct, s"$method eta=$eta FP not shrinking")
    }
  }

  /** T5 (scaling with N), read on the probe path. */
  def t5(rows: Seq[Experiments.ScalingRow]): Unit = {
    assert(rows.last.speedup > 1.3,
      s"RAMBO not clearly faster at N=${rows.last.n}: ${rows.last.speedup}")
    // Sub-linear scaling: the gain at large N must exceed the smallest N's.
    // Compare against the best of the two largest points — single-point
    // microbenchmark noise at this scale is a few tens of percent.
    val late = rows.takeRight(2).map(_.speedup).max
    assert(late > rows.head.speedup,
      s"speedup did not grow: ${rows.map(r => f"${r.n}:${r.speedup}%.2f").mkString(", ")}")
  }

  /** T6 (Spark build time vs input partitions). */
  def t6(rows: Seq[Experiments.BuildRow]): Unit = {
    val best = rows.map(_.speedup).max
    assert(best > 2.0, s"parallel build speedup only ${best}x over 1 partition")
  }

  /** A table's gate with the class of the rows it reads. */
  final case class Gate[R](check: Seq[R] => Unit)(implicit val rowClass: ClassTag[R])

  /** Every gate, by the table names of [[Experiments.Tables]]. */
  val Gates: Map[String, Gate[_]] = Map(
    "T1" -> Gate(t1), "T2" -> Gate(t2), "T5" -> Gate(t5), "T6" -> Gate(t6))
}
