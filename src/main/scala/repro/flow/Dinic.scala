package repro.flow

import scala.collection.mutable

/** Dinic max-flow over the ordered ring Z[δ] (δ an infinitesimal).
  *
  * Every capacity is `main + inf·δ` with Long components compared
  * lexicographically. The IPPV verification networks (Theorem 5) need the
  * perturbed threshold `ρ − δ` to be *exact*: after scaling all capacities
  * by a common denominator the main parts are integers and the perturbation
  * lives purely in the δ coordinate, so min cuts are computed with no
  * floating-point epsilon anywhere.
  *
  * Besides the flow value, the solver exposes the largest optimal source
  * side of the minimum cut, `maxCutSourceSide` (complement of the vertices
  * that reach t in the residual): Theorem 5 requires the largest maximizer.
  */
final class Dinic(val numVertices: Int) {
  private val head = Array.fill(numVertices)(-1)
  private val nxt = mutable.ArrayBuffer.empty[Int]
  private val dest = mutable.ArrayBuffer.empty[Int]
  private val capMain = mutable.ArrayBuffer.empty[Long]
  private val capInf = mutable.ArrayBuffer.empty[Long]

  /** Add a directed edge u -> v with capacity main + inf·δ (plus the
    * 0-capacity reverse edge). Requires the capacity to be positive or
    * zero in the lexicographic order.
    */
  def addEdge(u: Int, v: Int, main: Long, inf: Long = 0L): Unit = {
    require(main > 0 || (main == 0 && inf >= 0), s"negative capacity ($main, $inf)")
    dest += v; capMain += main; capInf += inf; nxt += head(u); head(u) = dest.size - 1
    dest += u; capMain += 0L; capInf += 0L; nxt += head(v); head(v) = dest.size - 1
  }

  @inline private def positive(main: Long, inf: Long): Boolean =
    main > 0 || (main == 0 && inf > 0)

  @inline private def less(a1: Long, b1: Long, a2: Long, b2: Long): Boolean =
    a1 < a2 || (a1 == a2 && b1 < b2)

  private var level: Array[Int] = _
  private var iter: Array[Int] = _

  private def bfs(s: Int, t: Int): Boolean = {
    level = Array.fill(numVertices)(-1)
    val q = new mutable.ArrayDeque[Int]()
    level(s) = 0; q.append(s)
    while (q.nonEmpty) {
      val v = q.removeHead()
      var e = head(v)
      while (e != -1) {
        if (positive(capMain(e), capInf(e)) && level(dest(e)) < 0) {
          level(dest(e)) = level(v) + 1
          q.append(dest(e))
        }
        e = nxt(e)
      }
    }
    level(t) >= 0
  }

  /** Iterative DFS for one augmenting path in the level graph; returns the
    * bottleneck (main, inf) or (0, 0) if none. Iterative because the
    * verification networks can be large enough that recursion would
    * overflow the stack.
    */
  private def dfs(s: Int, t: Int): (Long, Long) = {
    val pathEdges = new mutable.ArrayBuffer[Int]()
    var v = s
    while (true) {
      if (v == t) {
        // bottleneck over the path
        var bm = Long.MaxValue / 4
        var bi = Long.MaxValue / 4
        for (e <- pathEdges)
          if (less(capMain(e), capInf(e), bm, bi)) { bm = capMain(e); bi = capInf(e) }
        for (e <- pathEdges) {
          capMain(e) -= bm; capInf(e) -= bi
          capMain(e ^ 1) += bm; capInf(e ^ 1) += bi
        }
        return (bm, bi)
      }
      var advanced = false
      while (!advanced && iter(v) != -1) {
        val e = iter(v)
        val u = dest(e)
        if (positive(capMain(e), capInf(e)) && level(u) == level(v) + 1) {
          pathEdges += e
          v = u
          advanced = true
        } else iter(v) = nxt(e)
      }
      if (!advanced) {
        // dead end: mark v unusable in this phase and retreat
        level(v) = -1
        if (pathEdges.isEmpty) return (0L, 0L)
        val e = pathEdges.remove(pathEdges.length - 1)
        v = dest(e ^ 1) // tail of edge e
        iter(v) = nxt(e)
      }
    }
    (0L, 0L) // unreachable
  }

  private var sink = -1 // set by maxflow

  /** Compute the max flow from s to t; returns (main, inf) of the value. */
  def maxflow(s: Int, t: Int): (Long, Long) = {
    require(s != t)
    var totalM = 0L
    var totalI = 0L
    while (bfs(s, t)) {
      iter = head.clone()
      var go = true
      while (go) {
        val (fm, fi) = dfs(s, t)
        if (positive(fm, fi)) { totalM += fm; totalI += fi } else go = false
      }
    }
    sink = t
    (totalM, totalI)
  }

  /** Largest optimal source side: complement of the vertices that can
    * reach t in the residual graph. Call after [[maxflow]].
    */
  def maxCutSourceSide(): Array[Boolean] = {
    require(sink >= 0, "call maxflow first")
    // reverse reachability to t over residual edges
    val reachT = Array.fill(numVertices)(false)
    val q = new mutable.ArrayDeque[Int]()
    reachT(sink) = true; q.append(sink)
    while (q.nonEmpty) {
      val v = q.removeHead()
      // for each arc e = v -> u, the residual capacity of u -> v is at e ^ 1
      var e = head(v)
      while (e != -1) {
        val u = dest(e)
        if (positive(capMain(e ^ 1), capInf(e ^ 1)) && !reachT(u)) {
          reachT(u) = true; q.append(u)
        }
        e = nxt(e)
      }
    }
    reachT.map(!_)
  }
}
