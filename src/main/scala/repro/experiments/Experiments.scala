package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.SynthGraphs
import repro.SynthGraphs.NamedGraph
import repro.baseline.Baselines
import repro.clique.{CliqueEnum, SparkCliqueEnum}
import repro.core.IPPV
import repro.graph.{GraphMeasures, LocalGraph}
import repro.pattern.PatternEnum

/** The paper's evaluation experiments (Section 6), shared by the
  * spark-submit entrypoints in `jobs/` and the benchmark suites in
  * `bench/`. Each `tableN` function runs the experiment and returns the
  * formatted rows; EXPERIMENTS.md records these next to the paper's
  * numbers.
  */
object Experiments {

  final case class Timed[T](value: T, seconds: Double)

  def time[T](f: => T): Timed[T] = {
    val t0 = System.nanoTime()
    val v = f
    Timed(v, (System.nanoTime() - t0) / 1e9)
  }

  def formatTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (fmt(header) +: sep +: rows.map(fmt)).mkString("\n")
  }

  /** Quality-measure datasets (Tables 4, 5): several planted near-clique
    * communities of varying size/density over a power-law background, so
    * top-5 LhCDSes exist for every h up to 9 (the paper's sweep).
    */
  def qualitySuite(): Seq[NamedGraph] = {
    def planted(name: String, abbr: String, n: Int, deg: Double,
                comms: Seq[(Int, Double)], seed: Long): NamedGraph =
      NamedGraph(name, abbr, SynthGraphs.withCommunities(n, deg, comms, seed))
    Seq(
      planted("syn-quality-pc", "SYN-PC", 2500, 3.0,
        Seq((18, 0.95), (17, 0.92), (16, 1.0), (15, 0.95), (14, 0.92), (13, 1.0)), 101),
      planted("syn-quality-ha", "SYN-HA", 1200, 3.5,
        Seq((20, 0.92), (18, 0.95), (16, 0.92), (15, 1.0), (14, 0.95)), 103),
      planted("syn-quality-pp", "SYN-PP", 2000, 4.0,
        Seq((22, 0.9), (19, 0.92), (17, 0.95), (15, 0.92), (14, 1.0)), 107),
      planted("syn-quality-cm", "SYN-CM", 3000, 3.5,
        Seq((19, 0.95), (17, 1.0), (16, 0.92), (15, 0.95), (13, 0.95)), 109),
    )
  }

  // ---------------------------------------------------------------- Table 2

  /** Dataset statistics: |V|, |E|, |Ψ₃|, |Ψ₅|; |Ψ₃| is cross-checked via
    * the distributed DataFrame enumeration on the smaller datasets when a
    * SparkSession is supplied.
    */
  def table2(spark: Option[SparkSession]): String = {
    val rows = SynthGraphs.benchmarkSuite().map { ng =>
      val g = ng.graph
      val t3 = CliqueEnum.count(g, 3)
      val t5 = CliqueEnum.count(g, 5)
      val sparkCheck = spark match {
        case Some(s) if g.n <= 3000 =>
          val viaSpark = SparkCliqueEnum.count(repro.graph.SparkGraph.fromLocal(s, g), 3)
          require(viaSpark == t3, s"spark/local clique-count mismatch on ${ng.abbr}")
          "ok"
        case _ => "-"
      }
      Seq(ng.abbr, g.n.toString, g.m.toString, t3.toString, t5.toString, sparkCheck)
    }
    formatTable(Seq("dataset", "|V|", "|E|", "|Psi3|", "|Psi5|", "spark-xcheck"), rows)
  }

  // ---------------------------------------------------------------- Table 3

  /** Efficiency of IPPV (h=3, k=5) vs the flow-first LTDS baseline. */
  def table3(k: Int = 5, datasets: Seq[NamedGraph] = SynthGraphs.benchmarkSuite()): String = {
    val rows = datasets.map { ng =>
      val g = ng.graph
      val inst = CliqueEnum.enumerate(g, 3)
      val ippv = time(IPPV.topK(g, inst, k))
      val ltds = time(Baselines.flowTopK(g, inst, k))
      require(ippv.value.map(_.vertices.toSeq) == ltds.value.map(_.vertices.toSeq),
        s"IPPV and LTDS disagree on ${ng.abbr}")
      val speedup = ltds.seconds / math.max(ippv.seconds, 1e-9)
      Seq(ng.abbr, f"${ippv.seconds}%.2f", f"${ltds.seconds}%.2f", f"$speedup%.2fx",
        ippv.value.length.toString)
    }
    formatTable(Seq("dataset", "IPPV(h=3) s", "LTDS s", "speedup", "#found"), rows)
  }

  // ------------------------------------------------------------ Tables 4, 5

  /** Top-5 LhCDSes for each h; returns (edge density, diameter, clustering)
    * averages — Table 4 uses the first two, Table 5 the third.
    */
  def qualityMeasures(
      hs: Seq[Int] = Seq(2, 3, 5, 7, 9),
      k: Int = 5,
      datasets: Seq[NamedGraph] = qualitySuite(),
  ): Seq[(String, Int, Double, Double, Double, Int)] = {
    for {
      ng <- datasets
      h <- hs
    } yield {
      val inst = CliqueEnum.enumerate(ng.graph, h)
      val res = IPPV.topK(ng.graph, inst, k)
      if (res.isEmpty) (ng.abbr, h, Double.NaN, Double.NaN, Double.NaN, 0)
      else {
        val dens = res.map(r => GraphMeasures.edgeDensity(ng.graph, r.vertices))
        val diam = res.map(r => GraphMeasures.diameter(ng.graph, r.vertices).toDouble)
        val cc = res.map(r => GraphMeasures.avgClusteringCoefficient(ng.graph, r.vertices))
        (ng.abbr, h, dens.sum / dens.length, diam.sum / diam.length, cc.sum / cc.length,
          res.length)
      }
    }
  }

  def table4(measures: Seq[(String, Int, Double, Double, Double, Int)]): String = {
    val rows = measures.map { case (abbr, h, ed, diam, _, found) =>
      Seq(abbr, h.toString, f"$ed%.3f", f"$diam%.2f", found.toString)
    }
    formatTable(Seq("dataset", "h", "avg edge density", "avg diameter", "#found"), rows)
  }

  def table5(measures: Seq[(String, Int, Double, Double, Double, Int)]): String = {
    val rows = measures.map { case (abbr, h, _, _, cc, found) =>
      Seq(abbr, h.toString, f"$cc%.3f", found.toString)
    }
    formatTable(Seq("dataset", "h", "avg clustering coefficient", "#found"), rows)
  }

  // ------------------------------------------------------------- Figure 9/10

  /** Fast vs basic verification inside full IPPV runs. */
  def fig9(
      hs: Seq[Int] = Seq(3, 4),
      ks: Seq[Int] = Seq(5, 10, 20),
      datasets: Seq[NamedGraph] = qualitySuite().take(2),
  ): String = {
    val rows = for {
      ng <- datasets
      h <- hs
      k <- ks
    } yield {
      val inst = CliqueEnum.enumerate(ng.graph, h)
      val fast = time(IPPV.topK(ng.graph, inst, k, IPPV.Config(fastVerify = true)))
      val basic = time(IPPV.topK(ng.graph, inst, k, IPPV.Config(fastVerify = false)))
      require(fast.value.map(_.vertices.toSeq) == basic.value.map(_.vertices.toSeq),
        s"fast/basic disagree on ${ng.abbr} h=$h k=$k")
      Seq(ng.abbr, h.toString, k.toString, f"${fast.seconds}%.2f", f"${basic.seconds}%.2f",
        f"${basic.seconds / math.max(fast.seconds, 1e-9)}%.2fx")
    }
    formatTable(Seq("dataset", "h", "k", "fast s", "basic s", "basic/fast"), rows)
  }

  // -------------------------------------------------------------- Figure 11

  /** Runtime vs density: random edge subsamples of one dataset. */
  def fig11(
      proportions: Seq[Double] = Seq(0.25, 0.5, 0.75, 1.0),
      k: Int = 5,
      datasets: Seq[NamedGraph] = Seq(SynthGraphs.benchmarkSuite().last),
  ): String = {
    val rows = datasets.flatMap { ng =>
      proportions.map { p =>
        val g = sampleEdges(ng.graph, p, seed = 4711)
        val inst = CliqueEnum.enumerate(g, 3)
        val t = time(IPPV.topK(g, inst, k))
        Seq(ng.abbr, f"$p%.2f", g.m.toString, inst.size.toString, f"${t.seconds}%.2f")
      }
    }
    formatTable(Seq("dataset", "edge fraction", "|E|", "|Psi3|", "IPPV s"), rows)
  }

  private def sampleEdges(g: LocalGraph, p: Double, seed: Long): LocalGraph = {
    val rnd = new scala.util.Random(seed)
    LocalGraph.fromEdges(g.n, g.edges.filter(_ => rnd.nextDouble() < p))
  }

  // -------------------------------------------------------------- Figure 15

  /** Coarse peak-heap measurement of IPPV vs the LTDS baseline (the
    * paper's Fig 15). JVM heap accounting is approximate: we GC, snapshot
    * used heap, run, and report the high-water delta sampled after the
    * run — good enough for the qualitative claim (memory tracks dataset
    * size; the flow-heavy baseline allocates more).
    */
  def fig15(k: Int = 5, datasets: Seq[NamedGraph] = SynthGraphs.benchmarkSuite()): String = {
    def usedMb(): Double = {
      val rt = Runtime.getRuntime
      (rt.totalMemory() - rt.freeMemory()) / 1e6
    }
    def measure[T](f: => T): Double = {
      System.gc(); Thread.sleep(50)
      val before = usedMb()
      f
      val after = usedMb()
      math.max(0.0, after - before)
    }
    val rows = datasets.map { ng =>
      val inst = CliqueEnum.enumerate(ng.graph, 3)
      val ippvMb = measure(IPPV.topK(ng.graph, inst, k))
      val ltdsMb = measure(Baselines.flowTopK(ng.graph, inst, k))
      Seq(ng.abbr, ng.graph.n.toString, inst.size.toString, f"$ippvMb%.0f", f"$ltdsMb%.0f")
    }
    formatTable(Seq("dataset", "|V|", "|Psi3|", "IPPV ~MB", "LTDS ~MB"), rows)
  }

  // -------------------------------------------------------------- Figure 12

  /** IPPV (h=2) vs the flow-first LDS baseline. */
  def fig12(k: Int = 5, datasets: Seq[NamedGraph] = SynthGraphs.benchmarkSuite().take(6)): String = {
    val rows = datasets.map { ng =>
      val g = ng.graph
      val inst = CliqueEnum.enumerate(g, 2)
      val ippv = time(IPPV.topK(g, inst, k))
      val lds = time(Baselines.flowTopK(g, inst, k))
      require(ippv.value.map(_.vertices.toSeq) == lds.value.map(_.vertices.toSeq),
        s"IPPV and LDSflow disagree on ${ng.abbr}")
      Seq(ng.abbr, f"${ippv.seconds}%.2f", f"${lds.seconds}%.2f",
        f"${lds.seconds / math.max(ippv.seconds, 1e-9)}%.2fx")
    }
    formatTable(Seq("dataset", "IPPV(h=2) s", "LDSflow s", "speedup"), rows)
  }

  // -------------------------------------------------------------- Figure 14

  /** Size and h-clique density of IPPV's LhCDSes vs Greedy's CDSes. */
  def fig14(h: Int, k: Int = 5, dataset: NamedGraph = qualitySuite().head): String = {
    val g = dataset.graph
    val inst = CliqueEnum.enumerate(g, h)
    val ippv = IPPV.topK(g, inst, k)
    val greedy = Baselines.greedyTopK(g, h, k)
    val n = math.max(ippv.length, greedy.length)
    val rows = (0 until n).map { i =>
      val iv = ippv.lift(i).map(r => f"${r.vertices.length}%d / ${r.density}%.1f").getOrElse("-")
      val gv = greedy.lift(i).map(r => f"${r.vertices.length}%d / ${r.density}%.1f").getOrElse("-")
      Seq((i + 1).toString, iv, gv)
    }
    formatTable(Seq(s"rank (h=$h)", "IPPV size/density", "Greedy size/density"), rows)
  }

  // -------------------------------------------------------------- Figure 16

  /** Runtime of IPPV under different Frank–Wolfe iteration counts T. */
  def fig16(
      ts: Seq[Int] = Seq(5, 10, 15, 20, 40, 80),
      k: Int = 5,
      datasets: Seq[NamedGraph] = SynthGraphs.benchmarkSuite().take(4),
  ): String = {
    val rows = datasets.map { ng =>
      val inst = CliqueEnum.enumerate(ng.graph, 3)
      val times = ts.map { t =>
        f"${time(IPPV.topK(ng.graph, inst, k, IPPV.Config(fwIters = t))).seconds}%.2f"
      }
      ng.abbr +: times
    }
    formatTable("dataset" +: ts.map(t => s"T=$t"), rows)
  }

  // -------------------------------------------------- Figure 17 / Section 5

  /** Top-2 L4xPDS per 4-vertex pattern. */
  def patternsCaseStudy(dataset: NamedGraph = qualitySuite().head): String = {
    val g = dataset.graph
    val rows = PatternEnum.all4.map { p =>
      val inst = PatternEnum.instances4(g, p)
      val res = IPPV.topK(g, inst, 2)
      val cells = res.map(r => f"n=${r.vertices.length}%d rho=${r.density}%.1f")
      Seq(s"${p.code} ${p.name}", inst.size.toString,
        cells.lift(0).getOrElse("-"), cells.lift(1).getOrElse("-"))
    }
    formatTable(Seq("pattern", "#instances", "top-1", "top-2"), rows)
  }

  // ------------------------------------------------------ Spark end-to-end

  /** Distributed pipeline demonstration: IPPV over the DataFrame clique
    * enumeration on one dataset must match the local engine; returns
    * timing info.
    */
  def sparkPipeline(spark: SparkSession, dataset: NamedGraph, h: Int = 3, k: Int = 5): String = {
    val g = dataset.graph
    val local = time(IPPV.topK(g, CliqueEnum.enumerate(g, h), k))
    val dist = time(IPPV.topK(g, SparkCliqueEnum.fromLocal(spark, g, h), k))
    require(local.value.map(_.vertices.toSeq) == dist.value.map(_.vertices.toSeq),
      "IPPV over Spark-enumerated cliques disagrees with local IPPV")
    formatTable(
      Seq("enumeration", "seconds", "#found", "top-1 density"),
      Seq(("local", local), ("Spark", dist)).map { case (name, r) =>
        Seq(name, f"${r.seconds}%.2f", r.value.length.toString,
          r.value.headOption.map(x => f"${x.density}%.2f").getOrElse("-"))
      },
    )
  }
}
