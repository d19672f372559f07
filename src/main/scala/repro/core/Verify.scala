package repro.core

import repro.flow.Dinic
import repro.graph.LocalGraph

/** LhCDS verification (Section 4.4): flow-network construction
  * (DeriveCompact), the self-densest check (IsDensest), the basic
  * whole-graph verification (Algorithm 4), and the fast verification over
  * the ub ≥ ρ closure of the candidate (Algorithm 5's shape, see
  * [[fastVerify]]).
  *
  * ==Exact arithmetic==
  * The paper perturbs the threshold to `ρ − 1/|V|²` (Theorem 5). We go one
  * step further and compute with an *exact infinitesimal*: capacities are
  * elements of Z[δ] scaled by `M = den`, so every main part is an integer
  * and the perturbation is `deltaSign · h · den · δ`. [[Dinic]] runs on
  * these pairs directly, so min cuts are exact — no floating-point epsilon
  * anywhere in verification.
  *
  * ==Cut semantics==
  * `DeriveCompact(ρ − δ)` with the *largest* optimal source side returns
  * the union of all maximal h-clique ρ-compact subgraphs (Theorem 5);
  * `DeriveCompact(ρ + δ)` returns the largest subgraph of density > ρ (or
  * ∅), giving IsDensest and the exact densest-subgraph extractor used by
  * the refinement fallback and the flow-based baselines.
  */
object Verify {

  /** Solve the flow network of Figure 6 and return the largest optimal
    * source side, as a mask over `0 until nT`.
    *
    * @param nT        number of graph vertices in the network
    * @param h         instance arity
    * @param instances the instances, as member ids in `0 until nT`
    * @param num, den  the threshold ρ = num/den
    * @param deltaSign −1 for ρ−δ (maximal compact subgraphs), +1 for ρ+δ
    *                  (densest-subgraph test), 0 for unperturbed ρ
    * @throws ArithmeticException if a capacity or flow total could
    *                  overflow a `Long`
    */
  def deriveCompact(
      nT: Int,
      h: Int,
      instances: Array[Array[Int]],
      num: Long,
      den: Long,
      deltaSign: Int,
  ): Array[Boolean] = {
    require(den >= 1 && num >= 0)
    // Every capacity and every flow total is at most |Ψ|·h·den (source
    // side) or nT·h·max(num, den) (sink side, both δ coordinates).
    Math.multiplyExact(Math.multiplyExact(instances.length.toLong, h.toLong), den)
    Math.multiplyExact(Math.multiplyExact(nT.toLong, h.toLong), math.max(num, den))
    val nNodes = 2 + nT + instances.length
    val s = nT + instances.length
    val t = s + 1
    // two edges per instance member, at most two per graph vertex; two arcs per edge
    val net = new Dinic(nNodes, Math.toIntExact(4L * (instances.length.toLong * h + nT)))

    // source capacities: instance degree, scaled by den
    val srcCapMain = new Array[Long](nT)
    var i = 0
    while (i < instances.length) {
      val node = nT + i
      val mem = instances(i)
      var j = 0
      while (j < mem.length) {
        val v = mem(j)
        net.addEdge(node, v, (h - 1) * den)
        net.addEdge(v, node, den)
        srcCapMain(v) += den
        j += 1
      }
      i += 1
    }
    var v = 0
    while (v < nT) {
      if (srcCapMain(v) > 0) net.addEdge(s, v, srcCapMain(v))
      // v -> t with capacity ρ̃ · h, scaled by den: main = num·h, inf = deltaSign·h·den
      net.addEdge(v, t, num * h, deltaSign.toLong * h * den)
      v += 1
    }
    net.maxflow(s, t)
    // the first nT network nodes are the graph vertices
    java.util.Arrays.copyOf(net.maxCutSourceSide(), nT)
  }

  /** Exact largest densest subgraph of the instance set over `0 until n`
    * (Dinkelbach-style iteration of perturbed cuts). Returns the vertex
    * set (sorted) and its exact density num/den; empty set if there are no
    * instances.
    */
  def exactDensest(n: Int, inst: InstanceSet): (Array[Int], Long, Long) = {
    if (inst.size == 0) return (Array.empty, 0L, 1L)
    val members = inst.members
    var bestNum = 0L
    var bestDen = 1L
    var best: Array[Int] = Array.empty
    var improved = true
    while (improved) {
      improved = false
      val side = deriveCompact(n, inst.h, members, bestNum, bestDen, +1)
      val vs = trueIndices(side)
      if (vs.nonEmpty) {
        val cnt = inst.countWithin(side)
        // strict improvement guaranteed by the +δ threshold
        require(cnt * bestDen > bestNum * vs.length, "Dinkelbach step must improve density")
        bestNum = cnt; bestDen = vs.length; best = vs
        improved = true
      }
    }
    // largest maximizer at the optimum
    val side = deriveCompact(n, inst.h, members, bestNum, bestDen, -1)
    (trueIndices(side), bestNum, bestDen)
  }

  /** Is G[S] self-densest, i.e. no subgraph of it denser than itself?
    * (Proposition 6 (1); checked with one perturbed cut on G[S].)
    */
  def isDensest(inst: InstanceSet, sSorted: Array[Int]): Boolean = {
    val sub = inst.remapTo(sSorted)
    if (sub.size == 0) return sSorted.length <= 1
    val num = sub.size.toLong
    val den = sSorted.length.toLong
    val side = deriveCompact(sSorted.length, inst.h, sub.members, num, den, +1)
    !side.exists(identity)
  }

  /** Basic verification (Algorithm 4): is G[S] a connected component of
    * the union of all maximal h-clique ρ-compact subgraphs of G, with
    * ρ = d(G[S])? Builds the flow network over the WHOLE graph.
    */
  def basicVerify(g: LocalGraph, inst: InstanceSet, sSorted: Array[Int]): Boolean = {
    val mask = new Array[Boolean](g.n)
    sSorted.foreach(mask(_) = true)
    val num = inst.countWithin(mask)
    val den = sSorted.length.toLong
    if (num == 0) return false
    val side = deriveCompact(g.n, inst.h, inst.members, num, den, -1)
    isComponentOf(g, sSorted, side)
  }

  /** Fast verification (Algorithm 5's shape, with a provably-exact region
    * closure): BFS from S over every vertex whose upper bound admits
    * membership in a ρ-compact subgraph (ub ≥ ρ), then one small perturbed
    * cut over G[T].
    *
    * ==Why this is exact==
    * Any ρ-compact subgraph C of G has φ(v) ≥ ρ, hence ub(v) ≥ ρ, on all
    * its vertices; C is connected, so if C touches T it lies wholly inside
    * the ub ≥ ρ closure T, together with all of its instances. Conversely
    * every ρ-compact subgraph of G[T] is one of G. So the maximal
    * ρ-compact subgraphs of G[T] are exactly those of G that touch T, and
    * "S is a connected component of DeriveCompact(G[T], ρ−δ)" is the same
    * predicate as on the whole graph — no boundary gadget needed. (The
    * literal Algorithm-5 truncation at lb > ρ plus the P correction can
    * miss a witness superset that connects to S only through lb > ρ
    * vertices; the closure above removes that gap.)
    *
    * Two shortcut exits keep the common cases cheap, mirroring the paper:
    *  - early False: a member of S with lb > ρ, or a neighbor of S with
    *    lb > ρ. The neighbor's maximal compact subgraph M₀ is ρ-compact
    *    and S ∪ M₀ is a connected ρ-compact strict superset (removal of X
    *    kills ≥ ρ|X∩S| + ρ|X∩M₀| ≥ ρ|X| instances), so S is not maximal.
    *  - cheap True: the BFS closure never left S (T = S), so no superset
    *    vertex can exist, and a self-densest S is automatically ρ-compact.
    *
    * `ub` and `lb` must be globally valid compact-number bounds
    * (lb(v) ≤ φ_h(v) ≤ ub(v) w.r.t. G); `inOutput` marks vertices of
    * already-output LhCDSes (their bounds are pinned to their exact
    * density by the driver, which makes these exits effective).
    */
  def fastVerify(
      g: LocalGraph,
      inst: InstanceSet,
      sSorted: Array[Int],
      ub: Array[Double],
      lb: Array[Double],
      inOutput: Array[Boolean],
  ): Boolean = {
    val sMask = new Array[Boolean](g.n)
    sSorted.foreach(sMask(_) = true)
    val num = inst.countWithin(sMask)
    val den = sSorted.length.toLong
    if (num == 0) return false
    val rhoMinus = num.toDouble / den - 1e-12 // inclusive ≥ ρ test for ub
    val rhoPlus = num.toDouble / den + 1e-12  // strict > ρ test for lb

    // early False: S member or S neighbor certainly in a denser region
    if (sSorted.exists(u => lb(u) > rhoPlus)) return false
    for (u <- sSorted) {
      var bad = false
      g.foreachNeighbor(u)(w => if (!sMask(w) && lb(w) > rhoPlus) bad = true)
      if (bad) return false
    }

    // closure of S under edges to ub ≥ ρ vertices
    val inT = new Array[Boolean](g.n)
    val queue = new Array[Int](g.n)
    sSorted.foreach(inT(_) = true)
    System.arraycopy(sSorted, 0, queue, 0, sSorted.length)
    var qHead = 0
    var tSize = sSorted.length
    while (qHead < tSize) {
      val v = queue(qHead); qHead += 1
      g.foreachNeighbor(v) { w =>
        if (!inT(w) && ub(w) >= rhoMinus) { inT(w) = true; queue(tSize) = w; tSize += 1 }
      }
    }

    if (tSize == sSorted.length) return true // cheap True: T = S

    val tVerts = trueIndices(inT)
    val sub = inst.remapTo(tVerts)
    val side = deriveCompact(tVerts.length, inst.h, sub.members, num, den, -1)
    val newId = new Array[Int](g.n)
    java.util.Arrays.fill(newId, -1)
    var i = 0
    while (i < tVerts.length) { newId(tVerts(i)) = i; i += 1 }
    val (subG, _) = g.inducedOn(tVerts)
    isComponentOf(subG, sSorted.map(newId).sorted, side)
  }

  /** The indices of the true entries of `mask`, ascending. */
  private def trueIndices(mask: Array[Boolean]): Array[Int] = {
    var count = 0
    var v = 0
    while (v < mask.length) { if (mask(v)) count += 1; v += 1 }
    val out = new Array[Int](count)
    count = 0
    v = 0
    while (v < mask.length) { if (mask(v)) { out(count) = v; count += 1 }; v += 1 }
    out
  }

  /** Is `sSorted` exactly one connected component of the subgraph induced
    * by `mask` in `g`?
    */
  def isComponentOf(g: LocalGraph, sSorted: Array[Int], mask: Array[Boolean]): Boolean = {
    if (sSorted.exists(v => !mask(v))) return false
    val comps = g.componentsWithin(mask)
    comps.exists(c => java.util.Arrays.equals(c, sSorted))
  }
}
