package repro.core

import repro.{SparkSpec, SynthGraphs, TestGraphs}
import repro.clique.{CliqueEnum, SparkCliqueEnum}

/** The Spark pipeline: IPPV over DataFrame-enumerated cliques. */
class SparkCoreSpec extends SparkSpec {

  test("SparkIPPV returns exactly the local IPPV results") {
    val graphs = (1 to 3).map(seed => (TestGraphs.random(12, 0.5, seed + 6100), 10)) :+
      ((SynthGraphs.plantedCommunities(30, 0.06, Seq((7, 1.0), (5, 1.0)), 55)._1, 5))
    for ((g, k) <- graphs) {
      val local = IPPV.topK(g, CliqueEnum.enumerate(g, 3), k)
      val viaSpark = IPPV.topK(g, SparkCliqueEnum.fromLocal(spark, g, 3), k)
      assert(viaSpark.map(_.vertices.toSeq) == local.map(_.vertices.toSeq))
    }
  }
}
