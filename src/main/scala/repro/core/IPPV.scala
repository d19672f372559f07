package repro.core

import repro.clique.CliqueCore
import repro.graph.LocalGraph
import scala.collection.mutable

/** The Iterative Propose–Prune-and-Verify driver (Algorithm 6).
  *
  * Candidates live in a max-priority queue keyed by a proven upper bound on
  * the density of any LhCDS contained in them. One loop iteration pops the
  * top candidate and either:
  *
  *  - emits it (it was already verified and is still the global maximum, so
  *    it is exactly the next-densest LhCDS);
  *  - verifies it (a stable-group component): self-densest + maximal
  *    compact ⇒ requeue with its *exact* density as key; self-densest but
  *    not maximal ⇒ discard (a self-densest subgraph is automatically
  *    ρ-compact, so a strictly larger ρ-compact superset exists and no
  *    LhCDS can live inside — see DESIGN.md §5); not self-densest ⇒ refine;
  *  - refines it: SEQ-kClist++ iterations, TentativeGD, stable groups
  *    (tightening bounds), pruning, then children = connected components of
  *    (group ∩ unpruned). An exact flow-based densest-subgraph split is the
  *    fallback after `maxRefineRounds` CP rounds without progress, which
  *    guarantees termination independently of Frank–Wolfe convergence.
  *
  * Soundness invariants (each checked against brute force in tests):
  * every LhCDS always lies wholly inside exactly one queued candidate
  * (Theorem 4 group bracketing + Proposition 5 pruning), every queue key
  * upper-bounds the densities of the LhCDSes inside, and verification is
  * exact (Theorems 5/6 with infinitesimal-perturbed integer flow). Bounds
  * used by the fast verification (`ubVerify`, `lb`) are only ever updated
  * in globally-valid ways; the tighter per-subproblem upper bounds are
  * kept separately (`ubPrune`) and used for pruning only.
  */
object IPPV {

  final case class Config(
      fwIters: Int = 20,            // T of SEQ-kClist++ per propose round
      fastVerify: Boolean = true,   // Algorithm 5 vs Algorithm 4
      useCP: Boolean = true,        // false = flow-only refinement (baseline shape)
      maxRefineRounds: Int = 3,     // CP rounds per candidate before exact fallback
      // Frank–Wolfe runner: (instances, iterations) => state. Always the
      // sequential SEQ-kClist++; a caller may wrap it, e.g. to time it.
      fwRunner: (InstanceSet, Int) => KClistPP.CPState = KClistPP.fresh,
  )

  final case class Lhcds(vertices: Array[Int], num: Long, den: Long) {
    def density: Double = num.toDouble / den
    override def toString: String = s"Lhcds(n=${vertices.length}, |Ψ|=$num, ρ=$density)"
  }

  final class Stats {
    var proposeRounds = 0L
    var fwIterations = 0L
    var isDensestCalls = 0L
    var verifyCalls = 0L
    var exactFallbacks = 0L
    var pruneRemoved = 0L
    override def toString: String =
      s"Stats(propose=$proposeRounds, fw=$fwIterations, isDensest=$isDensestCalls, " +
        s"verify=$verifyCalls, exactSplits=$exactFallbacks, pruned=$pruneRemoved)"
  }

  private final case class Work(
      vs: Array[Int],      // sorted vertex ids (global)
      key: Double,         // upper bound on densities of LhCDSes inside
      verifiedAs: Option[(Long, Long)], // exact density once verified
      proposed: Boolean,   // true = stable-group component, ripe for verification
      refineRound: Int,
      rootLevel: Boolean,  // true only for full connected components of G
  )

  private val workOrder: Ordering[Work] =
    Ordering.by[Work, (Double, Int)](w => (w.key, -w.vs.head))

  /** Top-k LhCDSes of the instance set over `g`, densest first. */
  def topK(g: LocalGraph, inst: InstanceSet, k: Int, cfg: Config = Config()): Seq[Lhcds] =
    topKWithStats(g, inst, k, cfg)._1

  def topKWithStats(
      g: LocalGraph,
      inst: InstanceSet,
      k: Int,
      cfg: Config = Config(),
  ): (Seq[Lhcds], Stats) = {
    val stats = new Stats
    val n = g.n
    val out = mutable.ArrayBuffer.empty[Lhcds]
    if (k <= 0 || inst.size == 0) return (out.toSeq, stats)

    // InitializeBd (Algorithm 1): core-based bounds, slacked safely.
    val cores = CliqueCore.coreNumbers(inst)
    val ubVerify = cores.map(_.toDouble + 1e-12)            // globally valid, verification-grade
    val ubPrune = ubVerify.clone()                          // may take subproblem updates
    val lb = cores.map(c => c.toDouble / inst.h - 1e-9)     // globally valid lower bound
    val inOutput = new Array[Boolean](n)

    val queue = mutable.PriorityQueue.empty[Work](workOrder)

    // initial work: connected components restricted to instance-touched vertices
    val touched = new Array[Boolean](n)
    inst.members.foreach(_.foreach(touched(_) = true))
    for (comp <- g.componentsWithin(touched)) {
      val key = comp.map(ubVerify(_)).max
      queue.enqueue(Work(comp, key, None, proposed = false, refineRound = 0, rootLevel = true))
    }

    def enqueueChild(vs: Array[Int], key: Double, proposed: Boolean, round: Int): Unit = {
      if (vs.nonEmpty) {
        val mask = new Array[Boolean](n)
        vs.foreach(mask(_) = true)
        if (inst.countWithin(mask) > 0)
          queue.enqueue(Work(vs, key, None, proposed, round, rootLevel = false))
      }
    }

    /** One propose+prune round (Algorithm 2 + Algorithm 3) on G[w.vs]. */
    def refineCP(w: Work): Unit = {
      stats.proposeRounds += 1
      val (subG, orig) = g.inducedOn(w.vs)
      val subInst = inst.remapTo(w.vs)
      val iters = cfg.fwIters * (1 + w.refineRound)
      stats.fwIterations += iters
      val state = cfg.fwRunner(subInst, iters)
      TentativeGD.run(state)
      val sg = StableGroups.derive(state)

      val subUb = orig.map(ubPrune(_))
      val subLb = orig.map(lb(_))
      StableGroups.tightenBounds(sg, subUb, subLb)
      var i = 0
      while (i < orig.length) {
        val v = orig(i)
        if (subUb(i) < ubPrune(v)) ubPrune(v) = subUb(i)
        if (subLb(i) > lb(v)) lb(v) = subLb(i)
        // CP on a full connected component of G bounds φ w.r.t. G itself
        if (w.rootLevel && subUb(i) < ubVerify(v)) ubVerify(v) = subUb(i)
        i += 1
      }

      val alive = Prune.run(subG, subInst, subUb, subLb)
      stats.pruneRemoved += alive.count(!_)

      var children = List.empty[(Array[Int], Double)]
      var gi = 0
      while (gi < sg.groups.length) {
        val gMask = new Array[Boolean](subG.n)
        sg.groups(gi).foreach(v => if (alive(v)) gMask(v) = true)
        for (comp <- subG.componentsWithin(gMask)) {
          val key = math.min(w.key, sg.groupMaxR(gi) + StableGroups.boundSlack)
          children ::= ((comp.map(orig), key))
        }
        gi += 1
      }

      val noProgress = children.size == 1 && children.head._1.length == w.vs.length
      if (noProgress)
        queue.enqueue(w.copy(proposed = true, refineRound = w.refineRound + 1,
                             key = math.min(w.key, children.head._2)))
      else
        children.foreach { case (vs, key) =>
          enqueueChild(vs.sorted, key, proposed = true, round = w.refineRound)
        }
    }

    /** Exact flow split: peel off the largest densest subgraph (progress
      * guaranteed), preserving the one-candidate-per-LhCDS invariant: an
      * LhCDS with maximal density lies inside the densest set D, any other
      * LhCDS is disjoint from D (DESIGN.md §5).
      */
    def refineExact(w: Work): Unit = {
      stats.exactFallbacks += 1
      val subInst = inst.remapTo(w.vs)
      val (dLocal, num, den) = Verify.exactDensest(w.vs.length, subInst)
      val d = dLocal.map(w.vs(_))
      val dDensity = num.toDouble / den + 1e-12
      if (d.length == w.vs.length) {
        // whole candidate is its own densest: ripe for verification
        queue.enqueue(w.copy(proposed = true, refineRound = cfg.maxRefineRounds))
      } else {
        val dMask = new Array[Boolean](n)
        d.foreach(dMask(_) = true)
        val dSet = d.toSet
        for (comp <- g.componentsWithin(dMask))
          enqueueChild(comp, math.min(w.key, dDensity), proposed = true, round = cfg.maxRefineRounds)
        val rest = w.vs.filterNot(dSet)
        val restMask = new Array[Boolean](n)
        rest.foreach(restMask(_) = true)
        for (comp <- g.componentsWithin(restMask))
          enqueueChild(comp, math.min(w.key, dDensity), proposed = false, round = 0)
      }
    }

    def refine(w: Work): Unit =
      if (cfg.useCP && w.refineRound < cfg.maxRefineRounds) refineCP(w) else refineExact(w)

    while (out.length < k && queue.nonEmpty) {
      val w = queue.dequeue()
      w.verifiedAs match {
        case Some((num, den)) =>
          out += Lhcds(w.vs, num, den)
          val d = num.toDouble / den
          w.vs.foreach { v =>
            inOutput(v) = true
            lb(v) = d - 1e-12; ubVerify(v) = d + 1e-12; ubPrune(v) = math.min(ubPrune(v), d + 1e-12)
          }
        case None =>
          if (!w.proposed) refine(w)
          else {
            val (num, den) = inst.densityOf(w.vs)
            if (num == 0) () // no instances: cannot hold a positive-density LhCDS
            else {
              stats.isDensestCalls += 1
              if (!Verify.isDensest(inst, w.vs)) refine(w)
              else {
                stats.verifyCalls += 1
                val ok =
                  if (cfg.fastVerify) Verify.fastVerify(g, inst, w.vs, ubVerify, lb, inOutput)
                  else Verify.basicVerify(g, inst, w.vs)
                if (ok)
                  queue.enqueue(w.copy(verifiedAs = Some((num, den.toLong)),
                                       key = num.toDouble / den))
                // else: self-densest but not maximal ⇒ no LhCDS inside ⇒ drop
              }
            }
          }
      }
    }
    (out.toSeq, stats)
  }
}
