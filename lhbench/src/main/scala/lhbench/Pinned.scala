package lhbench

import repro.core.IPPV.Lhcds
import scala.io.Source

/** Pinned expected outputs: for each workload, the exact top-k answer of
  * every query at the default seed, stored as the classpath resource
  * `expected/<workload>.txt`:
  *
  * {{{
  * query SYN-HA
  * 1234/20 3 17 18 ...      <- num/den, then the sorted vertex ids
  * tie 1/2 636 1079         <- another LhCDS of the k-th density
  * }}}
  *
  * A result lists the engine's `num` (instances inside) and `den` (|S|)
  * unreduced. When the answer holds k results, the `tie` lines list every
  * other LhCDS whose density equals the k-th: ids decide ties in the
  * engine's queue, so a relabeled graph may return any of them. At another
  * seed the expected answer is the pinned one with every vertex mapped
  * through the query's relabeling.
  */
object Pinned {

  final case class Answer(num: Long, den: Long, vertices: Array[Int]) {
    override def toString: String = s"$num/$den ${vertices.mkString(" ")}"
  }

  /** The top-k answer of one query, and the other LhCDSes of its k-th density. */
  final case class Expected(top: Seq[Answer], ties: Seq[Answer]) {
    def relabeled(perm: Array[Int]): Expected = {
      def map(a: Answer) = a.copy(vertices = a.vertices.map(perm).sorted)
      Expected(top.map(map), ties.map(map))
    }
  }

  def answers(res: Seq[Lhcds]): Seq[Answer] = res.map(r => Answer(r.num, r.den, r.vertices))

  def format(byQuery: Seq[(String, Expected)]): String =
    byQuery.map { case (q, e) =>
      (s"query $q" +: (e.top.map(_.toString) ++ e.ties.map("tie " + _))).mkString("\n")
    }.mkString("", "\n", "\n")

  def parse(text: String): Map[String, Expected] = {
    val out = scala.collection.mutable.LinkedHashMap.empty[String, Expected]
    var cur: String = null
    def answer(line: String): Answer = {
      val parts = line.split("\\s+")
      val Array(num, den) = parts.head.split("/").map(_.toLong)
      Answer(num, den, parts.tail.map(_.toInt))
    }
    for (line <- text.linesIterator.map(_.trim) if line.nonEmpty) {
      if (line.startsWith("query ")) { cur = line.drop(6); out(cur) = Expected(Vector.empty, Vector.empty) }
      else {
        require(cur != null, s"result line before any query: $line")
        val e = out(cur)
        out(cur) =
          if (line.startsWith("tie ")) e.copy(ties = e.ties :+ answer(line.drop(4)))
          else e.copy(top = e.top :+ answer(line))
      }
    }
    out.toMap
  }

  def load(workload: String): Map[String, Expected] = {
    val in = getClass.getResourceAsStream(s"/expected/$workload.txt")
    require(in != null, s"no pinned answers for workload $workload")
    try parse(Source.fromInputStream(in, "UTF-8").mkString) finally in.close()
  }

  /** The pinned answer of `q`, relabeled into the query's vertex ids. */
  def expectedFor(pinned: Map[String, Expected], q: Query): Expected =
    pinned.getOrElse(q.name, throw new IllegalStateException(s"no pinned answer for ${q.name}"))
      .relabeled(q.perm)

  def denser(a: Answer, b: Answer): Int =
    (BigInt(a.num) * b.den).compare(BigInt(b.num) * a.den)

  private def canon(as: Seq[Answer]) = as.map(a => (a.num, a.den, a.vertices.mkString(","))).sorted

  /** Is `got` the expected answer? Results come densest first; results of
    * equal density may come in any order, and the results of the k-th
    * density may be any of the pinned LhCDSes of that density.
    */
  def correct(got: Seq[Answer], want: Expected): Boolean = {
    val densestFirst = got.zip(got.drop(1)).forall { case (a, b) => denser(a, b) >= 0 }
    if (!densestFirst || got.length != want.top.length) false
    else if (canon(got) == canon(want.top)) true
    else {
      val last = want.top.last
      val (wantAbove, wantTie) = want.top.partition(denser(_, last) > 0)
      val (gotAbove, gotTie) = got.partition(denser(_, last) > 0)
      val allowed = canon(wantTie ++ want.ties).toSet
      canon(gotAbove) == canon(wantAbove) && gotTie.length == wantTie.length &&
        canon(gotTie).distinct.length == gotTie.length && canon(gotTie).forall(allowed)
    }
  }
}
