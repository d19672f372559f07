package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.clique.{CliqueCore, CliqueEnum}
import repro.graph.LocalGraph

class VerifySpec extends SparkSpec {

  /** Brute force: the union of all maximal ρ-compact subgraphs. */
  private def bruteMaximalCompact(g: LocalGraph, inst: InstanceSet, num: Long, den: Long): Set[Int] = {
    val cnt = BruteForce.subsetInstanceCounts(g.n, inst)
    var union = Set.empty[Int]
    for (mask <- 1 until (1 << g.n)) {
      if (BruteForce.connectedMask(g, mask)) {
        val (cn, cd) = BruteForce.compactness(cnt, mask)
        if (!BruteForce.ratLt(cn, cd, num, den)) // compactness >= ρ
          union ++= (0 until g.n).filter(v => (mask & (1 << v)) != 0)
      }
    }
    union
  }

  for (seed <- 1 to 8) {
    test(s"DeriveCompact(ρ−δ) returns the union of maximal ρ-compact subgraphs (seed=$seed)") {
      val g = TestGraphs.random(8, 0.5, seed + 200)
      val inst = CliqueEnum.enumerate(g, 3)
      if (inst.size > 0) {
        // test at every density value present among connected subsets
        val (num, den) = inst.densityOf((0 until g.n).filter(v => inst.degrees(v) > 0).toArray)
        for ((tn, td) <- Seq((num, den.toLong), (1L, 2L), (1L, 1L), (3L, 2L))) {
          val side = Verify.deriveCompact(g.n, 3, inst.members, tn, td, -1)
          val got = (0 until g.n).filter(side(_)).toSet
          val want = bruteMaximalCompact(g, inst, tn, td)
          assert(got == want, s"ρ=$tn/$td got=$got want=$want")
        }
      }
    }
  }

  for (seed <- 1 to 8) {
    test(s"exactDensest matches brute force (seed=$seed)") {
      val g = TestGraphs.random(9, 0.5, seed + 300)
      val inst = CliqueEnum.enumerate(g, 3)
      val (vs, num, den) = Verify.exactDensest(g.n, inst)
      // brute force densest density
      val cnt = BruteForce.subsetInstanceCounts(g.n, inst)
      var bn = 0L; var bd = 1L
      for (mask <- 1 until (1 << g.n)) {
        val c = cnt(mask).toLong; val s = Integer.bitCount(mask).toLong
        if (BruteForce.ratLt(bn, bd, c, s)) { bn = c; bd = s }
      }
      if (inst.size == 0) assert(vs.isEmpty)
      else {
        assert(num * bd == bn * den, s"density ${num}/${den} vs brute $bn/$bd")
        // and vs must actually realize it
        val mask = new Array[Boolean](g.n); vs.foreach(mask(_) = true)
        assert(inst.countWithin(mask) * den == num * vs.length)
        // largest: adding any one vertex strictly lowers the density
        for (extra <- 0 until g.n if !mask(extra)) {
          mask(extra) = true
          assert(inst.countWithin(mask) * den < num * (vs.length + 1), s"extra=$extra")
          mask(extra) = false
        }
      }
    }
  }

  test("isDensest: a clique is self-densest; clique+pendant is not") {
    val k = LocalGraph.complete(5)
    val ki = CliqueEnum.enumerate(k, 3)
    assert(Verify.isDensest(ki, (0 until 5).toArray))
    val g = LocalGraph.fromEdges(6, (for (i <- 0 until 5; j <- i + 1 until 5) yield (i, j)) :+ (0, 5))
    val gi = CliqueEnum.enumerate(g, 3)
    assert(!Verify.isDensest(gi, (0 until 6).toArray))
    assert(Verify.isDensest(gi, (0 until 5).toArray))
  }

  for (seed <- 1 to 6) {
    test(s"isDensest matches brute force on random subsets (seed=$seed)") {
      val g = TestGraphs.random(8, 0.55, seed + 400)
      val inst = CliqueEnum.enumerate(g, 3)
      val cnt = BruteForce.subsetInstanceCounts(g.n, inst)
      val rnd = new scala.util.Random(seed)
      for (_ <- 1 to 6) {
        val vs = (0 until g.n).filter(_ => rnd.nextBoolean()).toArray
        if (vs.nonEmpty) {
          val sMask = vs.foldLeft(0)((m, v) => m | (1 << v))
          val sNum = cnt(sMask).toLong
          if (sNum > 0) {
            val sDen = vs.length.toLong
            var denserExists = false
            var sub = (sMask - 1) & sMask
            while (sub != 0 && !denserExists) {
              if (BruteForce.ratLt(sNum, sDen, cnt(sub).toLong, Integer.bitCount(sub).toLong))
                denserExists = true
              sub = (sub - 1) & sMask
            }
            assert(Verify.isDensest(inst, vs) == !denserExists, s"vs=${vs.toSeq}")
          }
        }
      }
    }
  }

  for (seed <- 1 to 10) {
    test(s"basicVerify accepts exactly the brute-force LhCDSes among candidates (seed=$seed)") {
      val g = TestGraphs.random(8, 0.5, seed + 500)
      val inst = CliqueEnum.enumerate(g, 3)
      if (inst.size > 0) {
        val truth = BruteForce.allLhCDS(g, inst).map(_._1.toSeq).toSet
        // candidates: all connected subsets that are self-densest
        for (mask <- 1 until (1 << g.n)) {
          if (BruteForce.connectedMask(g, mask)) {
            val vs = (0 until g.n).filter(v => (mask & (1 << v)) != 0).toArray
            val m2 = new Array[Boolean](g.n); vs.foreach(m2(_) = true)
            if (inst.countWithin(m2) > 0 && Verify.isDensest(inst, vs)) {
              val expected = truth.contains(vs.toSeq)
              assert(Verify.basicVerify(g, inst, vs) == expected, s"vs=${vs.toSeq}")
            }
          }
        }
      }
    }
  }

  for (seed <- 1 to 10) {
    test(s"fastVerify agrees with basicVerify under core bounds (seed=$seed)") {
      val g = TestGraphs.random(8, 0.5, seed + 600)
      val inst = CliqueEnum.enumerate(g, 3)
      if (inst.size > 0) {
        val cores = CliqueCore.coreNumbers(inst)
        val ub = cores.map(_.toDouble + 1e-12)
        val lb = cores.map(_.toDouble / 3 - 1e-9)
        val none = new Array[Boolean](g.n)
        for (mask <- 1 until (1 << g.n)) {
          if (BruteForce.connectedMask(g, mask)) {
            val vs = (0 until g.n).filter(v => (mask & (1 << v)) != 0).toArray
            val m2 = new Array[Boolean](g.n); vs.foreach(m2(_) = true)
            if (inst.countWithin(m2) > 0 && Verify.isDensest(inst, vs)) {
              assert(Verify.fastVerify(g, inst, vs, ub, lb, none) ==
                     Verify.basicVerify(g, inst, vs), s"vs=${vs.toSeq}")
            }
          }
        }
      }
    }
  }

  test("fastVerify with tight bounds still matches (exact φ as bounds)") {
    for (seed <- 1 to 5) {
      val g = TestGraphs.random(8, 0.5, seed + 700)
      val inst = CliqueEnum.enumerate(g, 3)
      if (inst.size > 0) {
        val phi = BruteForce.compactNumbers(g, inst)
        val ub = phi.map(p => p._1.toDouble / p._2 + 1e-12)
        val lb = phi.map(p => p._1.toDouble / p._2 - 1e-12)
        val none = new Array[Boolean](g.n)
        val truth = BruteForce.allLhCDS(g, inst).map(_._1.toSeq).toSet
        for ((vs, _, _) <- BruteForce.allLhCDS(g, inst))
          assert(Verify.fastVerify(g, inst, vs, ub, lb, none), s"true LhCDS ${vs.toSeq} rejected")
        // and some non-LhCDS self-densest candidates must be rejected
        for (mask <- 1 until (1 << g.n)) {
          if (BruteForce.connectedMask(g, mask)) {
            val vs = (0 until g.n).filter(v => (mask & (1 << v)) != 0).toArray
            val m2 = new Array[Boolean](g.n); vs.foreach(m2(_) = true)
            if (inst.countWithin(m2) > 0 && Verify.isDensest(inst, vs) && !truth.contains(vs.toSeq))
              assert(!Verify.fastVerify(g, inst, vs, ub, lb, none), s"false accept ${vs.toSeq}")
          }
        }
      }
    }
  }

  test("deriveCompact rejects capacities that would overflow a Long") {
    // the sink side reaches nT·h·den = 9·(Long.MaxValue / 4)
    intercept[ArithmeticException](
      Verify.deriveCompact(3, 3, Array(Array(0, 1, 2)), 1, Long.MaxValue / 4, -1))
  }

  test("fastVerify equals basicVerify on a K4 with an attached triangle fan") {
    // K4 (0..3) with vertex 4 adjacent to 0,1,2 (forming extra triangles):
    // the K4 alone and the whole graph as candidates.
    val g = LocalGraph.fromEdges(5,
      (for (i <- 0 until 4; j <- i + 1 until 4) yield (i, j)) ++ Seq((4, 0), (4, 1), (4, 2)))
    val inst = CliqueEnum.enumerate(g, 3)
    val cores = CliqueCore.coreNumbers(inst)
    val ub = cores.map(_.toDouble + 1e-12)
    val lb = cores.map(_.toDouble / 3 - 1e-9)
    val none = new Array[Boolean](g.n)
    val whole = (0 until 5).toArray
    val k4 = (0 until 4).toArray
    assert(Verify.fastVerify(g, inst, whole, ub, lb, none) ==
           Verify.basicVerify(g, inst, whole))
    assert(Verify.fastVerify(g, inst, k4, ub, lb, none) ==
           Verify.basicVerify(g, inst, k4))
  }
}
