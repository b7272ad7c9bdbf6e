package repro.bench

import java.nio.file.Paths

import repro.SparkSpec
import repro.eval.{Experiments, Table, TableGates}

/** Shared output plumbing for the bench suites: every table is printed to the
  * test log and written as `bench_results/<id>.txt` and `<id>.json` so
  * EXPERIMENTS.md can be diffed against a fresh run. Each suite then runs
  * its table's gate from [[repro.eval.TableGates]] on the fresh rows.
  */
trait BenchOutput { self: SparkSpec =>
  def record[R <: Product](table: Table[R]): Seq[R] = {
    print(table.text)
    table.write(Paths.get(sys.props.getOrElse("bench.out.dir", "bench_results")))
    table.rows
  }
}

/** T1 — paper Figs. 5 and 7 as one table: query time and index memory vs
  * FP rate, 3480 files, BIGSI vs RAMBO(W=100, D=3), η ∈ {3,4}, Bloom-size
  * sweep.
  */
class BenchTable1QueryTime3480 extends SparkSpec with BenchOutput {
  test("T1: query time vs FP rate on 3480 files") {
    TableGates.t1(record(Experiments.t1(spark)))
  }
}

/** T2 — paper Figs. 6 and 8 as one table: query time and index memory vs
  * FP rate, 2500 files, BIGSI vs RAMBO(W=84, D=3).
  */
class BenchTable2QueryTime2500 extends SparkSpec with BenchOutput {
  test("T2: query time vs FP rate on 2500 files") {
    TableGates.t2(record(Experiments.t2(spark)))
  }
}

/** T5 — the paper's scaling claim ("the larger the number of datasets, the
  * bigger the gains"): BIGSI/RAMBO query-time ratio vs N at matched ~1% FP.
  */
class BenchTable5Scaling extends SparkSpec with BenchOutput {
  test("T5: RAMBO speedup grows with the number of files") {
    TableGates.t5(record(Experiments.t5(spark)))
  }
}

/** T6 — the SIGMOD construction claim at one-box scale: RAMBO Spark build
  * wall time vs input partitions (embarrassingly parallel map + OR-merge).
  */
class BenchTable6Construction extends SparkSpec with BenchOutput {
  test("T6: distributed build scales with partitions") {
    TableGates.t6(record(Experiments.t6(spark)))
  }
}
