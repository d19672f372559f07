package repro.flow

import repro.SparkSpec
import scala.util.Random

class DinicSpec extends SparkSpec {

  test("single edge") {
    val d = new Dinic(2)
    d.addEdge(0, 1, 7)
    assert(d.maxflow(0, 1) == ((7L, 0L)))
  }

  test("two disjoint paths") {
    val d = new Dinic(4)
    d.addEdge(0, 1, 3); d.addEdge(1, 3, 3)
    d.addEdge(0, 2, 4); d.addEdge(2, 3, 2)
    assert(d.maxflow(0, 3) == ((5L, 0L)))
  }

  test("classic CLRS example") {
    val d = new Dinic(6)
    d.addEdge(0, 1, 16); d.addEdge(0, 2, 13)
    d.addEdge(1, 3, 12); d.addEdge(2, 1, 4); d.addEdge(2, 4, 14)
    d.addEdge(3, 2, 9); d.addEdge(3, 5, 20); d.addEdge(4, 3, 7); d.addEdge(4, 5, 4)
    assert(d.maxflow(0, 5)._1 == 23L)
  }

  test("bottleneck through the middle") {
    val d = new Dinic(4)
    d.addEdge(0, 1, 100); d.addEdge(1, 2, 1); d.addEdge(2, 3, 100)
    assert(d.maxflow(0, 3) == ((1L, 0L)))
    val cut = d.maxCutSourceSide()
    assert(cut(0) && cut(1) && !cut(2) && !cut(3))
  }

  test("infinitesimal capacities break ties lexicographically") {
    // two parallel edges: (1, 0) and (1, -1): total (2, -1)
    val d = new Dinic(2)
    d.addEdge(0, 1, 1, 0)
    d.addEdge(0, 1, 1, -1)
    assert(d.maxflow(0, 1) == ((2L, -1L)))
  }

  test("a (0, +inf) capacity edge carries only infinitesimal flow") {
    val d = new Dinic(3)
    d.addEdge(0, 1, 5, 0)
    d.addEdge(1, 2, 0, 3)
    assert(d.maxflow(0, 2) == ((0L, 3L)))
  }

  test("negative-capacity edges are rejected") {
    val d = new Dinic(2)
    intercept[IllegalArgumentException](d.addEdge(0, 1, -1))
    intercept[IllegalArgumentException](d.addEdge(0, 1, 0, -5))
  }

  test("the cut side is the largest one on an indifferent region") {
    // 0 -> 1 (cap 2) -> 2 (cap 2): both cuts are optimal; the largest
    // source side is {0, 1}
    val d = new Dinic(3)
    d.addEdge(0, 1, 2); d.addEdge(1, 2, 2)
    d.maxflow(0, 2)
    assert(d.maxCutSourceSide().toSeq == Seq(true, true, false))
  }

  /** Brute-force min cut by enumerating source-side subsets. */
  private def bruteMinCut(n: Int, edges: Seq[(Int, Int, Long)], s: Int, t: Int): Long = {
    var best = Long.MaxValue
    for (mask <- 0 until (1 << n)) {
      if ((mask & (1 << s)) != 0 && (mask & (1 << t)) == 0) {
        val cut = edges.collect {
          case (u, v, c) if (mask & (1 << u)) != 0 && (mask & (1 << v)) == 0 => c
        }.sum
        best = math.min(best, cut)
      }
    }
    best
  }

  for (seed <- 1 to 10) {
    test(s"random network max flow equals brute-force min cut (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 7
      val edges = for {
        u <- 0 until n; v <- 0 until n
        if u != v && rnd.nextDouble() < 0.35
      } yield (u, v, rnd.nextInt(10) + 1L)
      val d = new Dinic(n)
      edges.foreach { case (u, v, c) => d.addEdge(u, v, c) }
      val flow = d.maxflow(0, n - 1)._1
      assert(flow == bruteMinCut(n, edges, 0, n - 1))
      // the cut side must actually be an s-t cut of the computed value
      val side = d.maxCutSourceSide()
      val cutVal = edges.collect { case (u, v, c) if side(u) && !side(v) => c }.sum
      assert(cutVal == flow)
      assert(side(0) && !side(n - 1))
    }
  }
}
