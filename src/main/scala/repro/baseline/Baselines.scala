package repro.baseline

import repro.clique.CliqueEnum
import repro.core.{IPPV, InstanceSet, KClistPP, Verify}
import repro.graph.LocalGraph
import scala.collection.mutable

/** Comparator algorithms from the paper's evaluation (Section 6).
  *
  * LDSflow (Qin et al. 2015) and LTDS (Samusevich et al. 2016) are
  * flow-first exact top-k locally-densest algorithms for h = 2 and h = 3.
  * Their defining performance trait versus IPPV — the paper's explicit
  * claim — is *loose bounds* (core-based only, no convex-programming
  * tightening) and whole-graph flow verification, so refinement and
  * verification dominate. We realize exactly that shape by running the
  * IPPV driver with `useCP = false` (exact flow-based refinement only) and
  * `fastVerify = false` (Algorithm-4 whole-graph networks): [[flowTopK]].
  * It remains exact, so results always agree with IPPV — only cost differs.
  *
  * [[greedyTopK]] is the kClist++-based greedy top-k CDS extractor (no
  * locally-densest guarantee): run Frank–Wolfe, take the densest prefix of
  * the r-descending order, report its components, remove, repeat.
  */
object Baselines {

  /** Flow-first exact top-k for any instance set: LDSflow on the h = 2
    * instances (edges), LTDS on the h = 3 instances (triangles).
    */
  def flowTopK(g: LocalGraph, inst: InstanceSet, k: Int): Seq[IPPV.Lhcds] =
    IPPV.topK(g, inst, k, IPPV.Config(useCP = false, fastVerify = false))

  final case class GreedyResult(vertices: Array[Int], num: Long, den: Long) {
    def density: Double = num.toDouble / den
  }

  /** Greedy top-k h-clique densest subgraphs via kClist++ (Sun et al.):
    * approximate r, scan the r-descending prefix for the densest prefix,
    * emit its connected components, delete them, iterate. No
    * locally-densest guarantee — the paper's Figure 14 contrast.
    */
  def greedyTopK(g: LocalGraph, h: Int, k: Int, fwIters: Int = 20): Seq[GreedyResult] = {
    val out = mutable.ArrayBuffer.empty[GreedyResult]
    val alive = Array.fill(g.n)(true)
    while (out.length < k) {
      val vs = (0 until g.n).filter(alive(_)).toArray
      if (vs.isEmpty) return out.toSeq
      val (sub, orig) = g.inducedOn(vs)
      val inst = CliqueEnum.enumerate(sub, h)
      if (inst.size == 0) return out.toSeq
      val state = KClistPP.fresh(inst, fwIters)
      val order = (0 until sub.n).sortBy(v => (-state.r(v), v)).toArray
      // densest prefix of the approximate ordering
      val pos = new Array[Int](sub.n)
      for (i <- order.indices) pos(order(i)) = i
      val cntAt = new Array[Long](sub.n)
      for (mem <- inst.members) cntAt(mem.map(pos).max) += 1
      var bestQ = 0
      var bestNum = 0L
      var run = 0L
      for (q <- 0 until sub.n) {
        run += cntAt(q)
        if (run * (bestQ + 1) > bestNum * (q + 1)) { bestNum = run; bestQ = q }
      }
      val prefix = order.take(bestQ + 1).sorted
      val mask = new Array[Boolean](sub.n)
      prefix.foreach(mask(_) = true)
      for (comp <- sub.componentsWithin(mask) if out.length < k) {
        val cMask = new Array[Boolean](sub.n)
        comp.foreach(cMask(_) = true)
        val cNum = inst.countWithin(cMask)
        if (cNum > 0) out += GreedyResult(comp.map(orig), cNum, comp.length.toLong)
      }
      prefix.foreach(v => alive(orig(v)) = false)
    }
    out.toSeq
  }

  /** Exact top-k h-clique densest subgraphs (components of successive
    * largest densest subgraphs) — used by tests as the Greedy sanity
    * anchor: IPPV's top-1 must equal the exact CDS density.
    */
  def exactCdsTopK(g: LocalGraph, h: Int, k: Int): Seq[GreedyResult] = {
    val out = mutable.ArrayBuffer.empty[GreedyResult]
    val alive = Array.fill(g.n)(true)
    while (out.length < k) {
      val vs = (0 until g.n).filter(alive(_)).toArray
      if (vs.isEmpty) return out.toSeq
      val (sub, orig) = g.inducedOn(vs)
      val inst = CliqueEnum.enumerate(sub, h)
      if (inst.size == 0) return out.toSeq
      val (d, _, _) = Verify.exactDensest(sub.n, inst)
      if (d.isEmpty) return out.toSeq
      val dMask = new Array[Boolean](sub.n)
      d.foreach(dMask(_) = true)
      for (comp <- sub.componentsWithin(dMask) if out.length < k) {
        val cMask = new Array[Boolean](sub.n)
        comp.foreach(cMask(_) = true)
        out += GreedyResult(comp.map(orig), inst.countWithin(cMask), comp.length.toLong)
      }
      d.foreach(v => alive(orig(v)) = false)
    }
    out.toSeq
  }
}
