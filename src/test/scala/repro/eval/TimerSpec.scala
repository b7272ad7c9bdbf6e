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
    var calls = 0
    val q = Timer.microsPerQuery({ _ => calls += 1; BitVector.empty(8) }, IndexedSeq("A", "C"))
    assert(calls == 2 * (Timer.WarmupRounds + Timer.Samples * Timer.Rounds))
    assert(q.q1 <= q.median && q.median <= q.q3 && q.median > 0)
  }
}
