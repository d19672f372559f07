package lhbench

import java.nio.file.{Files, Paths}
import repro.core.IPPV

/** Writes the pinned answers of the named workloads (all by default) at the
  * default seed into a directory, as `<workload>.txt`:
  *
  * {{{
  * Pin src/main/resources/expected [workload ...]
  * }}}
  *
  * When a query's answer holds k results, the query is rerun with a doubled
  * k until the LhCDSes of the k-th density are exhausted, and those beyond
  * the k-th are pinned as ties. Re-pin only when the engine's answer is
  * meant to change, and cross-check the new answers with `PinnedSpec`.
  */
object Pin {

  def expected(w: Workload, q: Query): Pinned.Expected = {
    val inst = w.enumerate(q.graph)
    val top = Pinned.answers(IPPV.topK(q.graph, inst, w.k))
    if (top.length < w.k) Pinned.Expected(top, Seq.empty)
    else {
      var kk = 2 * w.k
      var more = Pinned.answers(IPPV.topK(q.graph, inst, kk))
      while (more.length == kk && Pinned.denser(more.last, top.last) == 0) {
        kk *= 2
        more = Pinned.answers(IPPV.topK(q.graph, inst, kk))
      }
      require(more.take(w.k).map(_.toString) == top.map(_.toString), s"top-$kk does not extend top-${w.k}")
      Pinned.Expected(top, more.drop(w.k).takeWhile(Pinned.denser(_, top.last) == 0))
    }
  }

  def main(args: Array[String]): Unit = {
    val dir = Paths.get(args.head)
    val names = if (args.length > 1) args.toSeq.tail else Workloads.all.map(_.name)
    for (w <- names.map(Workloads.byName)) {
      val answers = w.generate(Workloads.DefaultSeed).map(q => q.name -> expected(w, q))
      Files.writeString(dir.resolve(s"${w.name}.txt"), Pinned.format(answers))
      println(s"${w.name}: " + answers.map { case (q, e) => s"$q=${e.top.length}+${e.ties.length}" }.mkString(" "))
    }
  }
}
