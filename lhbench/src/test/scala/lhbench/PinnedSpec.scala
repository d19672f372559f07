package lhbench

import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.Baselines
import repro.core.Verify

/** Cross-checks the pinned answers at the default seed, independently of
  * the IPPV search that produced them:
  *
  *  - against `Baselines.flowTopK`, the flow-first exact engine (no convex
  *    program, whole-graph verification), where it finishes in the test's
  *    time;
  *  - otherwise by checking every pinned set, ties included, with
  *    `Verify.isDensest` and the whole-graph `Verify.basicVerify`, and its
  *    density against the instance count.
  */
class PinnedSpec extends AnyFunSuite {

  /** Workloads whose queries the flow-first baseline answers in seconds. */
  private val flowChecked = Set("clique5-suite", "pattern-4d")

  for (w <- Workloads.all; q <- w.generate(Workloads.DefaultSeed)) {
    val oracle = if (flowChecked(w.name)) "Baselines.flowTopK" else "basic verification"
    test(s"${w.name} ${q.name}: pinned answer agrees with $oracle") {
      val want = Pinned.load(w.name)(q.name)
      val inst = w.enumerate(q.graph)
      if (flowChecked(w.name))
        assert(Pinned.correct(Pinned.answers(Baselines.flowTopK(q.graph, inst, w.k)), want))
      for (a <- want.top ++ want.ties) {
        assert(inst.densityOf(a.vertices) == ((a.num, a.den.toInt)), s"density of $a")
        assert(Verify.isDensest(inst, a.vertices), s"$a is not self-densest")
        assert(Verify.basicVerify(q.graph, inst, a.vertices), s"$a is not an LhCDS")
      }
      for (t <- want.ties) assert(Pinned.denser(t, want.top.last) == 0, s"tie $t")
      assert(want.ties.isEmpty || want.top.length == w.k)
    }
  }

  test("the default seed reproduces the generator's graphs exactly") {
    for (w <- Workloads.all; (q, (_, g)) <- w.generate(Workloads.DefaultSeed).zip(w.graphs())) {
      assert(q.perm.toSeq == q.perm.indices)
      assert(q.graph.offsets.sameElements(g.offsets) && q.graph.adj.sameElements(g.adj))
    }
  }

  test("another seed relabels each graph isomorphically and repeats") {
    val g = repro.SynthGraphs.withCommunities(500, 4.0, Seq((12, 0.9)), 5)
    val perm = Workloads.permutation(g.n, 7, 0, 0)
    assert(perm.sorted.toSeq == (0 until g.n) && perm.toSeq != (0 until g.n))
    assert(Workloads.permutation(g.n, 7, 0, 0).sameElements(perm))
    assert(!Workloads.permutation(g.n, 7, 1, 0).sameElements(perm))
    assert(Workloads.permutation(g.n, Workloads.DefaultSeed, 1, 0).toSeq != (0 until g.n))
    val r = Workloads.relabel(g, perm)
    assert(r.m == g.m)
    for ((u, v) <- g.edges) assert(r.hasEdge(perm(u), perm(v)))
  }

  test("a relabeled answer with other LhCDSes of the k-th density is correct, others are not") {
    import Pinned.Answer
    val a = Answer(10, 4, Array(1, 2, 3, 4))
    val b = Answer(1, 2, Array(7, 8))
    val c = Answer(1, 2, Array(9, 10))
    val want = Pinned.Expected(Seq(a, b), Seq(c))
    assert(Pinned.correct(Seq(a, b), want))
    assert(Pinned.correct(Seq(a, c), want))
    assert(!Pinned.correct(Seq(a, Answer(1, 2, Array(11, 12))), want))
    assert(!Pinned.correct(Seq(b, a), want))
    assert(!Pinned.correct(Seq(a), want))
    assert(!Pinned.correct(Seq(a, c), Pinned.Expected(Seq(a, b), Seq.empty)))
  }
}
