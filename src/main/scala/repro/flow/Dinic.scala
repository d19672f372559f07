package repro.flow

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
  *
  * Arcs live in flat primitive arrays (arc `e` and its reverse `e ^ 1`),
  * each vertex's arcs linked newest-first from `head`. `arcCapacity` sizes
  * them up front; a caller that knows its arc count (two per
  * [[addEdge]]) passes it, and the arrays double if it is exceeded. The
  * level, current-arc, queue and path buffers are allocated once per
  * network and reused by every phase and by [[maxCutSourceSide]].
  */
final class Dinic(val numVertices: Int, arcCapacity: Int = 16) {
  private val head = Array.fill(numVertices)(-1)
  private var nxt = new Array[Int](arcCapacity)
  private var dest = new Array[Int](arcCapacity)
  private var capMain = new Array[Long](arcCapacity)
  private var capInf = new Array[Long](arcCapacity)
  private var numArcs = 0

  private val level = new Array[Int](numVertices)
  private val iter = new Array[Int](numVertices)
  private val queue = new Array[Int](numVertices)
  // arcs of the current DFS path; a level-graph path has < numVertices arcs
  private val path = new Array[Int](numVertices)
  // bottleneck of the last augmenting path found by `augment`
  private var augMain = 0L
  private var augInf = 0L

  /** Add a directed edge u -> v with capacity main + inf·δ (plus the
    * 0-capacity reverse edge). Requires the capacity to be positive or
    * zero in the lexicographic order.
    */
  def addEdge(u: Int, v: Int, main: Long, inf: Long = 0L): Unit = {
    require(main > 0 || (main == 0 && inf >= 0), s"negative capacity ($main, $inf)")
    if (numArcs + 2 > dest.length) grow()
    addArc(u, v, main, inf)
    addArc(v, u, 0L, 0L)
  }

  private def addArc(u: Int, v: Int, main: Long, inf: Long): Unit = {
    val e = numArcs
    dest(e) = v; capMain(e) = main; capInf(e) = inf; nxt(e) = head(u); head(u) = e
    numArcs += 1
  }

  private def grow(): Unit = {
    val cap = math.max(2 * dest.length, numArcs + 2)
    nxt = java.util.Arrays.copyOf(nxt, cap)
    dest = java.util.Arrays.copyOf(dest, cap)
    capMain = java.util.Arrays.copyOf(capMain, cap)
    capInf = java.util.Arrays.copyOf(capInf, cap)
  }

  @inline private def positive(main: Long, inf: Long): Boolean =
    main > 0 || (main == 0 && inf > 0)

  @inline private def less(a1: Long, b1: Long, a2: Long, b2: Long): Boolean =
    a1 < a2 || (a1 == a2 && b1 < b2)

  private def bfs(s: Int, t: Int): Boolean = {
    java.util.Arrays.fill(level, -1)
    level(s) = 0; queue(0) = s
    var qHead = 0
    var qTail = 1
    while (qHead < qTail) {
      val v = queue(qHead); qHead += 1
      var e = head(v)
      while (e != -1) {
        val u = dest(e)
        if (level(u) < 0 && positive(capMain(e), capInf(e))) {
          level(u) = level(v) + 1
          // Every vertex nearer to s than t is labelled by now. The ones left
          // unlabelled are dead ends of this phase either way, so stopping
          // here leaves the augmenting paths unchanged.
          if (u == t) return true
          queue(qTail) = u; qTail += 1
        }
        e = nxt(e)
      }
    }
    level(t) >= 0
  }

  /** Iterative DFS for one augmenting path in the level graph. Pushes its
    * bottleneck along the path, leaves it in (augMain, augInf) and returns
    * true, or returns false if the phase has no path left. Iterative
    * because the verification networks can be large enough that recursion
    * would overflow the stack.
    */
  private def augment(s: Int, t: Int): Boolean = {
    var depth = 0
    var v = s
    while (v != t) {
      var e = iter(v)
      while (e != -1 && !(positive(capMain(e), capInf(e)) && level(dest(e)) == level(v) + 1))
        e = nxt(e)
      iter(v) = e
      if (e != -1) {
        path(depth) = e; depth += 1
        v = dest(e)
      } else {
        // dead end: mark v unusable in this phase and retreat
        level(v) = -1
        if (depth == 0) return false
        depth -= 1
        val back = path(depth)
        v = dest(back ^ 1) // tail of arc `back`
        iter(v) = nxt(back)
      }
    }
    var bm = capMain(path(0))
    var bi = capInf(path(0))
    var i = 1
    while (i < depth) {
      val e = path(i)
      if (less(capMain(e), capInf(e), bm, bi)) { bm = capMain(e); bi = capInf(e) }
      i += 1
    }
    i = 0
    while (i < depth) {
      val e = path(i)
      capMain(e) -= bm; capInf(e) -= bi
      capMain(e ^ 1) += bm; capInf(e ^ 1) += bi
      i += 1
    }
    augMain = bm; augInf = bi
    true
  }

  private var sink = -1 // set by maxflow

  /** Compute the max flow from s to t; returns (main, inf) of the value. */
  def maxflow(s: Int, t: Int): (Long, Long) = {
    require(s != t)
    var totalM = 0L
    var totalI = 0L
    while (bfs(s, t)) {
      System.arraycopy(head, 0, iter, 0, numVertices)
      while (augment(s, t)) { totalM += augMain; totalI += augInf }
    }
    sink = t
    (totalM, totalI)
  }

  /** Largest optimal source side: complement of the vertices that can
    * reach t in the residual graph. Call after [[maxflow]].
    */
  def maxCutSourceSide(): Array[Boolean] = {
    require(sink >= 0, "call maxflow first")
    // reverse reachability to t over residual arcs
    val side = Array.fill(numVertices)(true)
    side(sink) = false; queue(0) = sink
    var qHead = 0
    var qTail = 1
    while (qHead < qTail) {
      val v = queue(qHead); qHead += 1
      // for each arc e = v -> u, the residual capacity of u -> v is at e ^ 1
      var e = head(v)
      while (e != -1) {
        val u = dest(e)
        if (side(u) && positive(capMain(e ^ 1), capInf(e ^ 1))) {
          side(u) = false
          queue(qTail) = u; qTail += 1
        }
        e = nxt(e)
      }
    }
    side
  }
}
