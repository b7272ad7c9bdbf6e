package repro.eval

import org.scalatest.funsuite.AnyFunSuite

import repro.util.BitVector

class TimerSpec extends AnyFunSuite {

  test("quartiles interpolate linearly between order statistics") {
    assert(Timer.quartiles(Seq(1.0, 2.0, 3.0, 4.0, 5.0)) == Timer.Quartiles(2.0, 3.0, 4.0))
    assert(Timer.quartiles(Seq(4.0, 1.0, 3.0, 2.0)) == Timer.Quartiles(1.75, 2.5, 3.25))
    assert(Timer.quartiles(Seq(7.0)) == Timer.Quartiles(7.0, 7.0, 7.0))
    assert(Timer.quartiles(Seq(1.0, 2.0, 3.0, 4.0, 5.0)).iqr == 2.0)
    intercept[IllegalArgumentException](Timer.quartiles(Nil))
  }

  test("microsPerQuery runs warm-up plus samples of best-of-rounds passes") {
    val calls = Seq.newBuilder[String]
    def path(name: String) = ({ (_: String) => calls += name; BitVector.empty(8) }, IndexedSeq("A", "C"))
    val qs = Timer.microsPerQuery(Seq(path("a"), path("b"), path("c")))
    // warm-up of every path, then sample s of every path before sample s+1 of any
    def passes(name: String, n: Int) = Seq.fill(n * 2)(name)
    val round = Seq("a", "b", "c").flatMap(passes(_, Timer.Rounds))
    assert(calls.result() == Seq("a", "b", "c").flatMap(passes(_, Timer.WarmupRounds)) ++
      Seq.fill(Timer.Samples)(round).flatten)
    assert(qs.size == 3)
    qs.foreach(q => assert(q.q1 <= q.median && q.median <= q.q3 && q.median > 0))
    intercept[IllegalArgumentException](Timer.microsPerQuery(Seq((_ => BitVector.empty(8), IndexedSeq.empty))))
  }
}
