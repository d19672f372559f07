package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Experiments

/** spark-submit entrypoints, one per evaluation table/figure, e.g.:
  *
  * {{{
  * spark-submit --class repro.jobs.Table3Efficiency target/scala-2.13/repro_2.13-0.1.0-SNAPSHOT.jar
  * }}}
  */
object JobSession {
  def build(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}

/** Table 2: dataset statistics (|V|, |E|, |Ψ₃|, |Ψ₅|). */
object Table2DatasetStats {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("table2")
    try println(Experiments.table2(Some(spark)))
    finally spark.stop()
  }
}

/** Table 3: IPPV (h=3, k=5) vs the LTDS baseline. */
object Table3Efficiency {
  def main(args: Array[String]): Unit = {
    println(Experiments.table3())
  }
}

/** Tables 4 and 5: edge density, diameter, and clustering coefficient of
  * the top-5 LhCDSes for h in {2,3,5,7,9}.
  */
object Table4And5Quality {
  def main(args: Array[String]): Unit = {
    val m = Experiments.qualityMeasures()
    println("Table 4 (avg edge density / diameter)")
    println(Experiments.table4(m))
    println()
    println("Table 5 (avg clustering coefficient)")
    println(Experiments.table5(m))
  }
}

/** Figures 9/10: fast vs basic verification. */
object Fig9Verification {
  def main(args: Array[String]): Unit = println(Experiments.fig9())
}

/** Figure 11: runtime vs edge density (random edge subsampling). */
object Fig11Density {
  def main(args: Array[String]): Unit = println(Experiments.fig11())
}

/** Figure 15: coarse memory accounting of IPPV vs LTDS. */
object Fig15Memory {
  def main(args: Array[String]): Unit = println(Experiments.fig15())
}

/** Figure 12: IPPV (h=2) vs LDSflow. */
object Fig12Ldsflow {
  def main(args: Array[String]): Unit = println(Experiments.fig12())
}

/** Figure 14: IPPV vs Greedy subgraph statistics. */
object Fig14Greedy {
  def main(args: Array[String]): Unit = {
    println(Experiments.fig14(h = 3))
    println()
    println(Experiments.fig14(h = 5))
  }
}

/** Figure 16: runtime under varying Frank–Wolfe iteration counts T. */
object Fig16Iterations {
  def main(args: Array[String]): Unit = println(Experiments.fig16())
}

/** Figure 17 / Section 5: L4xPDS case study over all 4-vertex patterns. */
object Fig17Patterns {
  def main(args: Array[String]): Unit = println(Experiments.patternsCaseStudy())
}

/** Distributed pipeline end-to-end: IPPV over Spark clique enumeration vs
  * the local engine.
  */
object SparkPipelineDemo {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("spark-ippv")
    try println(Experiments.sparkPipeline(spark, repro.SynthGraphs.benchmarkSuite().head))
    finally spark.stop()
  }
}
