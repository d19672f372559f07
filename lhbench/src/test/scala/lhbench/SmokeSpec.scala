package lhbench

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite

/** One short traced run of every workload: one untimed warm-up, one plain
  * and one traced pass. Every answer must match the pinned one, and every
  * metric that BENCHMARK.json names must be emitted.
  */
class SmokeSpec extends AnyFunSuite {

  private val spec = Files.readString(Paths.get("..", "BENCHMARK.json"))

  /** Metric names listed under `section` of BENCHMARK.json. */
  private def names(section: String): Set[String] = {
    val body = spec.drop(spec.indexOf(s""""$section"""")).dropWhile(_ != '[').takeWhile(_ != ']')
    """"name":\s*"([^"]+)"""".r.findAllMatchIn(body).map(_.group(1)).toSet
  }

  test("BENCHMARK.json names the four workloads and both metric sets") {
    assert(names("workloads") == Workloads.all.map(_.name).toSet)
    assert(names("end_to_end").contains("setup_s"))
    assert(names("per_layer").nonEmpty)
  }

  for (w <- Workloads.all) test(s"${w.name}: one short traced run is correct and emits every metric") {
    val out = Files.createTempDirectory("lhbench-smoke")
    val r = Bench.run(Bench.Options(w.name, seed = 1, seconds = 0, trace = true, out = out))
    assert(r.correct && r.failed == 0 && r.attempted >= 2)
    val perLayer = r.perLayer.map(m => m.name -> m.value).toMap
    assert(perLayer("failed_frac") == 0.0)
    assert(names("end_to_end") -- r.endToEnd.map(_.name) == Set.empty)
    assert(names("per_layer") -- perLayer.keySet == Set.empty)
    assert(r.endToEnd.forall(m => m.value > 0))
    assert(perLayer("core.IPPV.topK_s") > 0 && perLayer("jfr.samples") > 0)
    val line = Bench.resultLine(r, trace = true)
    assert(line.startsWith("{\"correct\": true, ") && line.contains("\"metrics\": {"))
  }
}
