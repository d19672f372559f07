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

  /** Lexicographic brute-force min cut over Z[δ] capacities: its value and
    * the union of every optimal source side.
    */
  private def bruteMinCutZd(
      n: Int,
      edges: Seq[(Int, Int, Long, Long)],
      s: Int,
      t: Int,
  ): ((Long, Long), Set[Int]) = {
    val cuts = for {
      mask <- 0 until (1 << n)
      if (mask & (1 << s)) != 0 && (mask & (1 << t)) == 0
    } yield {
      val crossing = edges.filter { case (u, v, _, _) =>
        (mask & (1 << u)) != 0 && (mask & (1 << v)) == 0
      }
      ((crossing.map(_._3).sum, crossing.map(_._4).sum), mask)
    }
    val best = cuts.map(_._1).min(Ordering.Tuple2[Long, Long])
    val union = cuts.filter(_._1 == best).map(_._2).foldLeft(0)(_ | _)
    (best, (0 until n).filter(v => (union & (1 << v)) != 0).toSet)
  }

  for (seed <- 1 to 20) {
    test(s"Z[δ] network: flow is the lexicographic min cut and the side the union of optimal sides (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 6 + rnd.nextInt(2)
      // (main, 0), (0, +k) and (k, −j) capacities, small enough to tie often
      val edges = for {
        u <- 0 until n; v <- 0 until n
        if u != v && rnd.nextDouble() < 0.4
      } yield rnd.nextInt(3) match {
        case 0 => (u, v, rnd.nextInt(4) + 1L, 0L)
        case 1 => (u, v, 0L, rnd.nextInt(3) + 1L)
        case _ => (u, v, rnd.nextInt(4) + 1L, -(rnd.nextInt(3) + 1L))
      }
      val d = new Dinic(n)
      edges.foreach { case (u, v, m, i) => d.addEdge(u, v, m, i) }
      val (best, union) = bruteMinCutZd(n, edges, 0, n - 1)
      assert(d.maxflow(0, n - 1) == best)
      val side = d.maxCutSourceSide()
      assert((0 until n).filter(side(_)).toSet == union)
    }
  }

  test("a 2·10⁵-vertex chain: one path as long as the network") {
    val n = 200000
    val d = new Dinic(n, 2 * (n - 1))
    var v = 0
    while (v < n - 1) { d.addEdge(v, v + 1, if (v == n / 2) 3L else 5L, 1L); v += 1 }
    assert(d.maxflow(0, n - 1) == ((3L, 1L)))
    val side = d.maxCutSourceSide()
    assert((0 until n).forall(u => side(u) == (u <= n / 2)))
  }

  test("many phases: parallel paths of 60 different lengths") {
    // `width` disjoint s–t paths with l inner vertices for each l in 1..60;
    // each path's last arc is its bottleneck, so the largest source side
    // is every vertex but t
    val width = 20
    val lengths = 1 to 60
    val n = 2 + width * lengths.sum
    val (s, t) = (0, 1)
    val d = new Dinic(n)
    var next = 2
    var expected = 0L
    for (l <- lengths; w <- 0 until width) {
      val c = (l + w) % 7 + 1L
      var prev = s
      for (_ <- 0 until l) { d.addEdge(prev, next, c + 1); prev = next; next += 1 }
      d.addEdge(prev, t, c)
      expected += c
    }
    assert(d.maxflow(s, t) == ((expected, 0L)))
    assert(d.maxCutSourceSide().count(identity) == n - 1)
  }

  test("adding more arcs than the constructor's capacity still gives the right flow") {
    for (arcCapacity <- Seq(0, 2, 5)) {
      val d = new Dinic(6, arcCapacity)
      d.addEdge(0, 1, 16); d.addEdge(0, 2, 13)
      d.addEdge(1, 3, 12); d.addEdge(2, 1, 4); d.addEdge(2, 4, 14)
      d.addEdge(3, 2, 9); d.addEdge(3, 5, 20); d.addEdge(4, 3, 7); d.addEdge(4, 5, 4)
      assert(d.maxflow(0, 5) == ((23L, 0L)))
    }
  }
}
