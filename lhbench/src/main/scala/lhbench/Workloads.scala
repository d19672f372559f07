package lhbench

import repro.SynthGraphs
import repro.clique.CliqueEnum
import repro.core.InstanceSet
import repro.graph.LocalGraph
import repro.pattern.PatternEnum

/** One query of a workload: a named graph whose vertices the workload seed
  * has relabeled. `perm(v)` is the new id of the generator's vertex `v`.
  */
final case class Query(name: String, graph: LocalGraph, perm: Array[Int])

/** A benchmark workload: the graphs it generates, how it enumerates the
  * instances of each, and k. Every query runs `enumerate` and then
  * `IPPV.topKWithStats(graph, instances, k)`.
  *
  * @param enumSpan    span name of the enumeration call
  * @param passSeconds nominal seconds of one pass over the queries on a
  *                    4-core machine; a run measures `seconds / passSeconds`
  *                    passes (at least one), so that the number of samples
  *                    does not depend on the machine's speed
  * @param setupReps   graph generations per run; `setup_s` is their median
  * @param warmup      graphs queried untimed and unchecked before timing, so
  *                    that the JIT has compiled the hot code, given the
  *                    workload's own graphs
  */
final case class Workload(
    name: String,
    enumSpan: String,
    k: Int,
    passSeconds: Double,
    setupReps: Int,
    warmup: Seq[LocalGraph] => Seq[LocalGraph],
    graphs: () => Seq[(String, LocalGraph)],
    enumerate: LocalGraph => InstanceSet,
) {

  /** The queries of the first pass at `seed`. */
  def generate(seed: Long): Seq[Query] = label(graphs(), seed, 0)

  /** The queries of `pass` at `seed`: the generator's graphs `base`, each
    * with its vertices permuted by a permutation drawn from (seed, pass,
    * graph); the identity for pass 0 of the default seed. Relabeling keeps
    * every graph isomorphic to the generator's, so the answer (up to the
    * relabeling) stays the same while the memory layout and every id-based
    * tie-break change.
    */
  def label(base: Seq[(String, LocalGraph)], seed: Long, pass: Int): Seq[Query] =
    base.zipWithIndex.map { case ((name, g), i) =>
      val perm = Workloads.permutation(g.n, seed, pass, i)
      Query(name, Workloads.relabel(g, perm), perm)
    }
}

object Workloads {

  val DefaultSeed = 0L

  /** SYN-EN's planted communities, reused by the scale tier. */
  private val enronCommunities = Seq((24, 0.9), (22, 0.9), (20, 0.95), (18, 0.95), (16, 1.0))

  /** The first graph of the quality suite (`Experiments.qualitySuite`). */
  private val qualityPcCommunities =
    Seq((18, 0.95), (17, 0.92), (16, 1.0), (15, 0.95), (14, 0.92), (13, 1.0))

  /** The second graph of the quality suite, whose communities the warm-up
    * of the pattern workload plants in a smaller background.
    */
  private val qualityHaCommunities = Seq((20, 0.92), (18, 0.95), (16, 0.92), (15, 1.0), (14, 0.95))

  private def suite(): Seq[(String, LocalGraph)] =
    SynthGraphs.benchmarkSuite().map(ng => (ng.abbr, ng.graph))

  /** The suite graphs whose h=2 query takes under 2 s. A pass over all
    * eight takes about 16 s, so a run would time each query once, and the
    * median query would rest on two single samples.
    */
  private val ldsGraphs = Set("SYN-HA", "SYN-GQ", "SYN-PP", "SYN-CM")

  private def cliques(h: Int): LocalGraph => InstanceSet = g => CliqueEnum.enumerate(g, h)

  val all: Seq[Workload] = Seq(
    Workload("lds-suite",
      "clique.CliqueEnum.enumerate", k = 5, passSeconds = 3.3, setupReps = 9, warmup = identity,
      () => suite().filter(g => ldsGraphs(g._1)), cliques(2)),
    Workload("clique5-suite",
      "clique.CliqueEnum.enumerate", k = 5, passSeconds = 3.1, setupReps = 9, warmup = identity,
      () => suite(), cliques(5)),
    Workload("large-h3",
      "clique.CliqueEnum.enumerate", k = 5, passSeconds = 4.2, setupReps = 3,
      // the same shape at a fifth of the size warms the same code in a
      // fifth of the time
      warmup = _ => Seq.fill(3)(SynthGraphs.withCommunities(60000, 5.0, enronCommunities, 37)),
      () => Seq("SYN-LARGE" -> SynthGraphs.withCommunities(300000, 5.0, enronCommunities, 37)),
      cliques(3)),
    Workload("pattern-4d",
      "pattern.PatternEnum.instances4", k = 2, passSeconds = 17, setupReps = 25,
      // one 17 s query per pass: warm up on a 600-vertex quality-suite
      // shape (about 2 s, three exact splits) instead of a second query
      warmup = _ => Seq(SynthGraphs.withCommunities(600, 3.0, qualityHaCommunities, 103)),
      () => Seq("SYN-QPC" -> SynthGraphs.withCommunities(2500, 3.0, qualityPcCommunities, 101)),
      g => PatternEnum.instances4(g, PatternEnum.TailedTriangle4)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))

  /** A uniformly random permutation of `0 until n` drawn from (seed, pass,
    * graph index); the identity for pass 0 of the default seed.
    */
  def permutation(n: Int, seed: Long, pass: Int, graphIndex: Int): Array[Int] = {
    val perm = Array.tabulate(n)(identity)
    if (seed != DefaultSeed || pass != 0) {
      val rnd = new java.util.Random((seed * 1000003L + pass) * 1000003L + graphIndex)
      var i = n - 1
      while (i > 0) {
        val j = rnd.nextInt(i + 1)
        val t = perm(i); perm(i) = perm(j); perm(j) = t
        i -= 1
      }
    }
    perm
  }

  /** `g` with vertex `v` renamed `perm(v)`, built directly in CSR form. */
  def relabel(g: LocalGraph, perm: Array[Int]): LocalGraph = {
    val n = g.n
    val inv = new Array[Int](n)
    var v = 0
    while (v < n) { inv(perm(v)) = v; v += 1 }
    val offsets = new Array[Int](n + 1)
    v = 0
    while (v < n) { offsets(v + 1) = offsets(v) + g.degree(inv(v)); v += 1 }
    val adj = new Array[Int](offsets(n))
    v = 0
    while (v < n) {
      val old = inv(v)
      var i = g.offsets(old)
      var o = offsets(v)
      while (i < g.offsets(old + 1)) { adj(o) = perm(g.adj(i)); i += 1; o += 1 }
      java.util.Arrays.sort(adj, offsets(v), offsets(v + 1))
      v += 1
    }
    new LocalGraph(n, offsets, adj)
  }
}
