package lhbench

import java.nio.file.{Files, Path}
import java.time.Duration
import jdk.jfr.Recording
import jdk.jfr.consumer.{RecordedFrame, RecordingFile}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Spans recorded from outside the engine, around the public calls the
  * benchmark makes. A span has a name, a start, an end, the span that was
  * open when it started, and the query it belongs to. Spans stay in memory
  * and are written out when the run ends.
  */
final class Spans {
  private val names = mutable.ArrayBuffer.empty[String]
  private val parents = mutable.ArrayBuffer.empty[Int]
  private val queries = mutable.ArrayBuffer.empty[Int]
  private val starts = mutable.ArrayBuffer.empty[Long]
  private val ends = mutable.ArrayBuffer.empty[Long]
  private var open = -1
  var query: Int = -1

  def size: Int = names.length

  def time[T](name: String)(f: => T): T = {
    val id = names.length
    names += name; parents += open; queries += query; starts += System.nanoTime(); ends += -1L
    val outer = open
    open = id
    try f
    finally { ends(id) = System.nanoTime(); open = outer }
  }

  /** Total seconds per span name over the spans with id >= `from`. */
  def secondsByName(from: Int): Map[String, Double] =
    (from until names.length).groupMapReduce(names(_))(i => (ends(i) - starts(i)) / 1e9)(_ + _)

  def write(file: Path): Unit = {
    val sb = new StringBuilder("id\tparent\tquery\tname\tstart_ns\tend_ns\n")
    for (i <- names.indices)
      sb ++= s"$i\t${parents(i)}\t${queries(i)}\t${names(i)}\t${starts(i)}\t${ends(i)}\n"
    Files.writeString(file, sb.result())
  }
}

/** JDK Flight Recorder execution samples of the running JVM, for the
  * stages IPPV calls internally, where no public hook exists.
  */
final class Sampler {
  private val rec = new Recording()
  rec.enable("jdk.ExecutionSample").withPeriod(Duration.ofMillis(Sampler.PeriodMs)).withStackTrace()

  def start(): Unit = rec.start()

  /** Stops the recording and attributes the samples of `threadId`. */
  def stop(file: Path, threadId: Long): Attribution.Counts = {
    rec.stop()
    rec.dump(file)
    rec.close()
    try Attribution.count(file, threadId) finally Files.deleteIfExists(file)
  }
}

object Sampler {
  val PeriodMs = 10L
}

/** Attribution of execution samples taken inside `IPPV.topKWithStats`,
  * i.e. samples whose stack holds a frame of `repro.core.IPPV`:
  *
  *  - stage: the first `repro` method above the innermost IPPV frame, i.e.
  *    the repro method IPPV's frame called (`Verify.fastVerify`,
  *    `Prune.run`, ...). A sample whose innermost repro frame is IPPV's
  *    own counts as `other`.
  *  - kernel: the class of the innermost `repro` frame (`flow.Dinic`,
  *    `clique.CliqueCore`, ...), library frames above it included.
  */
object Attribution {

  val stages: Seq[String] = Seq(
    "Verify.fastVerify", "Verify.isDensest", "Verify.exactDensest", "Prune.run",
    "CliqueCore.coreNumbers", "TentativeGD.run", "StableGroups", "KClistPP.fresh", "other")

  val kernels: Seq[String] = Seq(
    "flow.Dinic", "clique.CliqueCore", "graph.LocalGraph", "core.InstanceSet", "other")

  final case class Counts(samples: Int, stage: Map[String, Int], kernel: Map[String, Int])

  private def isRepro(f: RecordedFrame): Boolean = f.getMethod.getType.getName.startsWith("repro.")

  /** `repro.core.Verify$` -> `core.Verify`; nested and companion suffixes dropped. */
  private def className(f: RecordedFrame): String =
    f.getMethod.getType.getName.stripPrefix("repro.").takeWhile(_ != '$')

  def stageOf(frames: Seq[RecordedFrame]): Option[String] = {
    val ippv = frames.indexWhere(className(_) == "core.IPPV")
    if (ippv < 0) None
    else {
      val callee = frames.take(ippv).lastIndexWhere(isRepro)
      if (callee < 0) Some("other")
      else {
        val cls = className(frames(callee)).split('.').last
        val key = if (cls == "StableGroups") cls else s"$cls.${frames(callee).getMethod.getName}"
        Some(if (stages.contains(key)) key else "other")
      }
    }
  }

  def kernelOf(frames: Seq[RecordedFrame]): String =
    frames.find(isRepro).map(className).filter(kernels.contains).getOrElse("other")

  def count(file: Path, threadId: Long): Counts = {
    val stage = mutable.Map.empty[String, Int].withDefaultValue(0)
    val kernel = mutable.Map.empty[String, Int].withDefaultValue(0)
    var samples = 0
    for (e <- RecordingFile.readAllEvents(file).asScala
         if e.getEventType.getName == "jdk.ExecutionSample"
         && e.getThread("sampledThread").getJavaThreadId == threadId) {
      val frames = Option(e.getStackTrace).map(_.getFrames.asScala.toSeq).getOrElse(Seq.empty)
      for (s <- stageOf(frames)) {
        samples += 1
        stage(s) += 1
        kernel(kernelOf(frames)) += 1
      }
    }
    Counts(samples, stage.toMap, kernel.toMap)
  }
}
