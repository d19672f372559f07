package repro.baseline

import repro.{SparkSpec, TestGraphs}
import repro.clique.CliqueEnum
import repro.core.{BruteForce, IPPV}

class BaselinesSpec extends SparkSpec {

  for (seed <- 1 to 6) {
    test(s"LDSflow (h=2) is exact vs brute force (seed=$seed)") {
      val g = TestGraphs.random(8, 0.45, seed + 2000)
      val inst = CliqueEnum.enumerate(g, 2)
      val truth = BruteForce.allLhCDS(g, inst)
      val got = Baselines.flowTopK(g, inst, g.n)
      assert(got.map(_.vertices.toSeq) == truth.map(_._1.toSeq), s"seed=$seed")
    }
  }

  for (seed <- 1 to 6) {
    test(s"LTDS (h=3) is exact vs brute force (seed=$seed)") {
      val g = TestGraphs.random(9, 0.5, seed + 2100)
      val inst = CliqueEnum.enumerate(g, 3)
      val truth = BruteForce.allLhCDS(g, inst)
      val got = Baselines.flowTopK(g, inst, g.n)
      assert(got.map(_.vertices.toSeq) == truth.map(_._1.toSeq), s"seed=$seed")
    }
  }

  test("baselines agree with IPPV on a planted graph") {
    val (g, _) = repro.SynthGraphs.plantedCommunities(40, 0.05, Seq((8, 1.0), (6, 1.0)), 77)
    val inst3 = CliqueEnum.enumerate(g, 3)
    val ippv = IPPV.topK(g, inst3, 5)
    val ltds = Baselines.flowTopK(g, inst3, 5)
    assert(ippv.map(_.vertices.toSeq) == ltds.map(_.vertices.toSeq))
    val inst2 = CliqueEnum.enumerate(g, 2)
    val ippv2 = IPPV.topK(g, inst2, 5)
    val lds = Baselines.flowTopK(g, inst2, 5)
    assert(ippv2.map(_.vertices.toSeq) == lds.map(_.vertices.toSeq))
  }

  test("greedy top-1 equals the exact CDS density (self-densest anchor)") {
    val g = TestGraphs.twoCliquesBridged(7, 5)
    val greedy = Baselines.greedyTopK(g, 3, 1, fwIters = 100)
    assert(greedy.nonEmpty)
    // top-1 CDS = K7: C(6,2)... triangles C(7,3)=35, density 5
    assert(greedy.head.vertices.toSeq == (0 until 7))
    assert(greedy.head.num == 35 && greedy.head.den == 7)
  }

  test("exactCdsTopK peels dense regions in order") {
    val g = TestGraphs.twoCliquesBridged(7, 5)
    val res = Baselines.exactCdsTopK(g, 3, 2)
    assert(res.map(_.vertices.toSeq) == Seq((0 until 7).toSeq, (7 until 12).toSeq))
  }

  test("greedy lacks the locally-densest guarantee (paper Fig 14 contrast)") {
    // K6 with a slightly sparser satellite K4 sharing two vertices: the
    // greedy second pick can overlap the first dense region's neighborhood,
    // while IPPV outputs are never adjacent.
    val g = TestGraphs.twoCliquesBridged(6, 4)
    val inst = CliqueEnum.enumerate(g, 3)
    val ippv = IPPV.topK(g, inst, 2)
    for (i <- ippv.indices; j <- ippv.indices if i != j;
         u <- ippv(i).vertices; v <- ippv(j).vertices)
      assert(!g.hasEdge(u, v))
    // greedy still returns k results but only density-sorted removals
    val greedy = Baselines.greedyTopK(g, 3, 2, fwIters = 80)
    assert(greedy.length == 2)
    assert(greedy.head.density >= greedy(1).density)
  }

  test("flowTopK on pattern instances is exact too") {
    val g = TestGraphs.random(9, 0.5, 4242)
    val inst = repro.pattern.PatternEnum.instances4(g, repro.pattern.PatternEnum.Diamond4)
    if (inst.size > 0) {
      val truth = BruteForce.allLhCDS(g, inst)
      val got = Baselines.flowTopK(g, inst, g.n)
      assert(got.map(_.vertices.toSeq) == truth.map(_._1.toSeq))
    }
  }
}
