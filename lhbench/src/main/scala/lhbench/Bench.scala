package lhbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import repro.core.{IPPV, InstanceSet, KClistPP}
import scala.util.control.NonFatal

/** The exact top-k LhCDS benchmark. One run generates one workload's
  * graphs from the seed, then runs its queries (enumeration followed by
  * `IPPV.topKWithStats`) sequentially on this thread for the given number
  * of seconds, checks every answer against the pinned one, and prints its
  * metrics as one JSON line. See README.md for the metrics.
  *
  * {{{
  * Bench --workload lds-suite --seed 0 --seconds 20 --trace 0 [--out DIR]
  * }}}
  */
object Bench {

  final case class Options(
      workload: String,
      seed: Long = Workloads.DefaultSeed,
      seconds: Double = 20,
      trace: Boolean = false,
      out: Path = Paths.get("."),
      commit: String = "unknown",
      sourcesSha: String = "unknown",
  )

  final case class Metric(name: String, value: Double, unit: String)

  final case class Report(
      correct: Boolean,
      attempted: Int,
      failed: Int,
      endToEnd: Seq[Metric],
      perLayer: Seq[Metric],
      env: Seq[(String, Any)],
  )

  private final case class QueryRun(query: Int, seconds: Double, instances: Long, results: Int, stats: IPPV.Stats)

  private final case class PassRun(
      seconds: Double,
      queries: Seq[QueryRun],
      allocBytes: Long,
      gcMillis: Long,
      spans: Map[String, Double],
      fwCalls: Long,
      fwInstanceIters: Long,
  )

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it. Below 22
    * samples no percentile above the median has, and the maximum is
    * reported instead.
    */
  def tail(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length >= 22) s(s.length - 11) else s.last
  }

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def gcMillis: Long =
    ManagementFactory.getGarbageCollectorMXBeans.stream().mapToLong(_.getCollectionTime.max(0L)).sum()
  private def heapUsedAfterGc(): Long = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  def run(opts: Options): Report = {
    val w = Workloads.byName(opts.workload)
    val pinned = Pinned.load(w.name)
    val tid = Thread.currentThread().getId

    var base: Seq[(String, repro.graph.LocalGraph)] = Seq.empty
    var queries: Seq[Query] = Seq.empty
    val setupTimes = (1 to w.setupReps).map { _ =>
      base = Seq.empty
      queries = Seq.empty
      val t0 = System.nanoTime()
      base = w.graphs()
      queries = w.label(base, opts.seed, 0)
      (System.nanoTime() - t0) / 1e9
    }
    var expected = queries.map(Pinned.expectedFor(pinned, _))
    val heldInstances = new Array[InstanceSet](queries.length)
    val heldResults = new Array[Seq[IPPV.Lhcds]](queries.length)

    var attempted = 0
    var failed = 0
    var spans: Spans = null
    var fwCalls = 0L
    var fwInstanceIters = 0L
    val tracedConfig = IPPV.Config(fwRunner = (inst, iters) =>
      spans.time("core.KClistPP.fresh") {
        fwCalls += 1
        fwInstanceIters += inst.size.toLong * iters
        KClistPP.fresh(inst, iters)
      })

    def span[T](name: String)(f: => T): T = if (spans == null) f else spans.time(name)(f)

    def runQuery(i: Int): Option[QueryRun] = {
      val q = queries(i)
      val cfg = if (spans == null) IPPV.Config() else tracedConfig
      attempted += 1
      if (spans != null) spans.query = attempted
      try {
        val t0 = System.nanoTime()
        val (inst, (res, stats)) = span("query") {
          val inst = span(w.enumSpan)(w.enumerate(q.graph))
          (inst, span("core.IPPV.topK")(IPPV.topKWithStats(q.graph, inst, w.k, cfg)))
        }
        val seconds = (System.nanoTime() - t0) / 1e9
        heldInstances(i) = inst
        heldResults(i) = res
        val got = Pinned.answers(res)
        if (Pinned.correct(got, expected(i))) Some(QueryRun(i, seconds, inst.size.toLong, res.size, stats))
        else {
          failed += 1
          System.err.println(s"WRONG ${w.name} ${q.name} seed=${opts.seed}:\n  got  ${got.mkString("; ")}\n" +
            s"  want ${expected(i).top.mkString("; ")}")
          None
        }
      } catch {
        case NonFatal(e) =>
          failed += 1
          System.err.println(s"FAILED ${w.name} ${q.name} seed=${opts.seed}: $e")
          None
      }
    }

    var passes = 0

    /** One pass over the queries, each relabeled afresh for the pass. */
    def pass(): PassRun = {
      if (passes > 0) {
        queries = Seq.empty
        queries = w.label(base, opts.seed, passes)
        expected = queries.map(Pinned.expectedFor(pinned, _))
      }
      passes += 1
      val spansFrom = if (spans == null) 0 else spans.size
      fwCalls = 0; fwInstanceIters = 0
      val alloc0 = threads.getThreadAllocatedBytes(tid)
      val gc0 = gcMillis
      val runs = queries.indices.flatMap(runQuery)
      System.err.println(s"lhbench: pass ${passes - 1}: " +
        runs.map(r => f"${queries(r.query).name}=${r.seconds}%.3f").mkString(" "))
      PassRun(runs.map(_.seconds).sum, runs, threads.getThreadAllocatedBytes(tid) - alloc0,
        gcMillis - gc0, if (spans == null) Map.empty else spans.secondsByName(spansFrom),
        fwCalls, fwInstanceIters)
    }

    /** As many passes as fit `budget` seconds at the nominal pass time; at least one. */
    def measure(budget: Double): Seq[PassRun] =
      Seq.fill(math.round(budget / w.passSeconds).toInt.max(1))(pass())

    def warmUp(): Int = {
      val t0 = System.nanoTime()
      val graphs = w.warmup(queries.map(_.graph))
      for (g <- graphs) IPPV.topK(g, w.enumerate(g), w.k)
      System.err.println(f"lhbench: warm-up ${(System.nanoTime() - t0) / 1e9}%.2f s")
      graphs.length
    }
    val warmupQueries = warmUp()

    val untraced = measure(if (opts.trace) opts.seconds / 2 else opts.seconds)
    var traced: Seq[PassRun] = Seq.empty
    var samples: Attribution.Counts = null
    if (opts.trace) {
      val sampler = new Sampler
      spans = new Spans
      sampler.start()
      traced = measure(opts.seconds / 2)
      samples = sampler.stop(opts.out.resolve(s"samples-${w.name}-${opts.seed}.jfr"), tid)
      spans.write(opts.out.resolve(s"spans-${w.name}-${opts.seed}.tsv"))
    }

    // the graphs, instance sets and answers held, then released
    val heldHeap = heapUsedAfterGc()
    base = Seq.empty
    queries = Seq.empty
    java.util.Arrays.fill(heldInstances.asInstanceOf[Array[AnyRef]], null)
    java.util.Arrays.fill(heldResults.asInstanceOf[Array[AnyRef]], null)
    val retainedMb = (heldHeap - heapUsedAfterGc()) / (1024.0 * 1024.0)

    // each query's median over the passes' relabelings
    val queryTimes = untraced.flatMap(_.queries).groupBy(_.query).values.map(qs => median(qs.map(_.seconds))).toSeq
    val endToEnd =
      if (queryTimes.isEmpty) Seq.empty
      else Seq(
        Metric("pass_s", median(untraced.map(_.seconds)), "s"),
        Metric("query_s.p50", median(queryTimes), "s"),
        Metric("query_s.tail", tail(queryTimes), "s"),
        Metric("setup_s", median(setupTimes), "s"),
        Metric("retained_mb", retainedMb, "MB"),
      )
    val perLayer =
      if (!opts.trace || traced.forall(_.queries.isEmpty)) Seq.empty
      else layerMetrics(traced, samples, median(traced.map(_.seconds)) / median(untraced.map(_.seconds)),
        failed.toDouble / attempted, queryTimes.length)

    val rt = Runtime.getRuntime
    val env = Seq(
      "workload" -> w.name, "seed" -> opts.seed, "seconds" -> opts.seconds, "trace" -> (if (opts.trace) 1 else 0),
      "nproc" -> rt.availableProcessors(),
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "heap_max_mb" -> rt.maxMemory() / (1024 * 1024),
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.stream().map(_.getName).toArray.mkString(","),
      "commit" -> opts.commit, "engine_sources_sha256" -> opts.sourcesSha,
      "jfr_period_ms" -> Sampler.PeriodMs,
      "queries" -> heldInstances.length, "passes" -> untraced.length, "traced_passes" -> traced.length,
      "warmup_queries" -> warmupQueries, "setup_reps" -> w.setupReps,
    )
    Report(failed == 0, attempted, failed, endToEnd, perLayer, env)
  }

  private def layerMetrics(
      passes: Seq[PassRun],
      samples: Attribution.Counts,
      traceOverhead: Double,
      failedFrac: Double,
      timedQueries: Int,
  ): Seq[Metric] = {
    def perPass(f: PassRun => Double): Double = median(passes.map(f))
    def stat(f: IPPV.Stats => Long): Double = perPass(_.queries.map(q => f(q.stats)).sum.toDouble)
    def span(name: String): Double = perPass(_.spans.getOrElse(name, 0.0))
    val topK = span("core.IPPV.topK")
    val results = perPass(_.queries.map(_.results).sum.toDouble)
    val verify = stat(_.verifyCalls)
    val isDensest = stat(_.isDensestCalls)
    def share(counts: Map[String, Int], key: String): Double =
      if (samples.samples == 0) 0.0 else topK * counts.getOrElse(key, 0) / samples.samples
    Seq(
      Metric("clique.CliqueEnum.enumerate_s", span("clique.CliqueEnum.enumerate"), "s"),
      Metric("pattern.PatternEnum.instances4_s", span("pattern.PatternEnum.instances4"), "s"),
      Metric("core.IPPV.topK_s", topK, "s"),
      Metric("core.KClistPP.fresh_s", span("core.KClistPP.fresh"), "s"),
      Metric("core.KClistPP.calls", perPass(_.fwCalls.toDouble), "count"),
      Metric("core.KClistPP.instance_iters", perPass(_.fwInstanceIters.toDouble), "count"),
      Metric("clique.instances", perPass(_.queries.map(_.instances).sum.toDouble), "count"),
      Metric("ippv.propose_rounds", stat(_.proposeRounds), "count"),
      Metric("ippv.fw_iterations", stat(_.fwIterations), "count"),
      Metric("ippv.isdensest_calls", isDensest, "count"),
      Metric("ippv.verify_calls", verify, "count"),
      Metric("ippv.exact_splits", stat(_.exactFallbacks), "count"),
      Metric("ippv.pruned", stat(_.pruneRemoved), "count"),
      Metric("ippv.results", results, "count"),
      Metric("ippv.verify_yield", if (verify == 0) 0.0 else results / verify, "ratio"),
      Metric("ippv.isdensest_pass", if (isDensest == 0) 0.0 else verify / isDensest, "ratio"),
    ) ++ Attribution.stages.map(s => Metric(s"stage.${s}_s", share(samples.stage, s), "s")) ++
      Attribution.kernels.map(k => Metric(s"kernel.${k}_s", share(samples.kernel, k), "s")) ++
      Seq(
        Metric("jfr.samples", samples.samples.toDouble, "count"),
        Metric("jvm.gc_s", perPass(_.gcMillis / 1e3), "s"),
        Metric("jvm.alloc_mb", perPass(_.allocBytes / (1024.0 * 1024.0)), "MB"),
        Metric("trace_overhead", traceOverhead, "ratio"),
        Metric("failed_frac", failedFrac, "ratio"),
        Metric("query_s.n", timedQueries.toDouble, "count"),
      )
  }

  // ------------------------------------------------------------------ JSON

  private def jsonString(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  private def jsonValue(v: Any): String = v match {
    case s: String => jsonString(s)
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case x => x.toString
  }

  def resultLine(r: Report, trace: Boolean): String = {
    val ms = (if (trace) r.perLayer else r.endToEnd).map { m =>
      s"${jsonString(m.name)}: {\"value\": ${jsonValue(m.value)}, \"unit\": ${jsonString(m.unit)}}"
    }
    s"""{"correct": ${r.correct}, "attempted": ${r.attempted}, "failed": ${r.failed}, "metrics": {${ms.mkString(", ")}}}"""
  }

  def envLine(r: Report): String =
    r.env.map { case (k, v) => s"${jsonString(k)}: ${jsonValue(v)}" }.mkString("{\"env\": {", ", ", "}}")

  def parseArgs(args: Array[String]): Options = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments near: ${other.mkString(" ")}")
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "out", "commit", "sources-sha")
    val unknown = kv.keySet -- known
    require(unknown.isEmpty, s"unknown options: ${unknown.mkString(", ")}")
    val d = Options(kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required")))
    Options(
      d.workload,
      kv.get("seed").map(_.toLong).getOrElse(d.seed),
      kv.get("seconds").map(_.toDouble).getOrElse(d.seconds),
      kv.get("trace").map(t => t.toInt != 0).getOrElse(d.trace),
      kv.get("out").map(Paths.get(_)).getOrElse(d.out),
      kv.getOrElse("commit", d.commit),
      kv.getOrElse("sources-sha", d.sourcesSha),
    )
  }

  def main(args: Array[String]): Unit = {
    val opts = parseArgs(args)
    Files.createDirectories(opts.out)
    val r = run(opts)
    println(envLine(r))
    println(resultLine(r, opts.trace))
  }
}
