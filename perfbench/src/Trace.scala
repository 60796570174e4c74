package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One timed call into a layer. `parent` is the enclosing span's id (-1
  * at the root); `query` groups the spans of one query (-1 outside
  * queries). `allocBytes` is what the calling thread allocated inside.
  */
final case class Span(id: Int, parent: Int, name: String, query: Int,
                      startNs: Long, endNs: Long, allocBytes: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Span recorder wrapped around the benchmark's calls into the program.
  * Spans stay in memory and are written out once, at the end. While
  * `on` is false a span is just the call.
  */
final class Tracer {
  var on = false
  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil

  def apply[T](name: String, query: Int = -1)(f: => T): T =
    if (!on) f
    else {
      val id = spans.length
      val parent = open.headOption.getOrElse(-1)
      spans += null
      open = id :: open
      val a0 = Probe.allocatedBytes()
      val t0 = System.nanoTime()
      try f
      finally {
        val t1 = System.nanoTime()
        val a1 = Probe.allocatedBytes()
        open = open.tail
        spans(id) = Span(id, parent, name, query, t0, t1, a1 - a0)
      }
    }

  def named(name: String): Seq[Span] = spans.iterator.filter(_.name == name).toSeq

  /** Per span name, total duration minus the time its child spans cover. */
  def selfMs: Map[String, Double] = {
    val childNs = new Array[Long](spans.length)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.endNs - s.startNs)
    spans.groupBy(_.name).map { case (name, ss) =>
      name -> ss.map(s => s.endNs - s.startNs - childNs(s.id)).sum / 1e6
    }
  }

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val sb = new StringBuilder("[\n")
    spans.iterator.zipWithIndex.foreach { case (s, i) =>
      if (i > 0) sb.append(",\n")
      sb.append(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","query":${s.query},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"alloc_bytes":${s.allocBytes}}""")
    }
    sb.append("\n]\n")
    Files.write(path, sb.toString.getBytes(StandardCharsets.UTF_8))
  }
}

/** JVM counters read from outside the program. */
object Probe {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getThreadAllocatedBytes(Thread.currentThread.getId)

  /** Total collection time of all collectors, ms. */
  def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  private val unsafe: sun.misc.Unsafe = {
    val f = classOf[sun.misc.Unsafe].getDeclaredField("theUnsafe")
    f.setAccessible(true)
    f.get(null).asInstanceOf[sun.misc.Unsafe]
  }

  private def align(b: Long): Long = (b + 7) & ~7L

  /** Heap bytes reachable from `root` (shallow sizes from the VM's own
    * field offsets and array layout, summed over the object graph).
    */
  def deepSize(root: AnyRef): Long = {
    val seen = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[AnyRef, java.lang.Boolean])
    var todo = List(root)
    var total = 0L
    while (todo.nonEmpty) {
      val o = todo.head
      todo = todo.tail
      if (o != null && !o.isInstanceOf[Class[_]] && seen.add(o)) {
        val cls = o.getClass
        if (cls.isArray) {
          val len = java.lang.reflect.Array.getLength(o)
          total += align(unsafe.arrayBaseOffset(cls) + len.toLong * unsafe.arrayIndexScale(cls))
          if (!cls.getComponentType.isPrimitive)
            o.asInstanceOf[Array[AnyRef]].foreach(x => todo = x :: todo)
        } else {
          var end = 12L
          var c: Class[_] = cls
          while (c != null) {
            c.getDeclaredFields.foreach { f =>
              if (!java.lang.reflect.Modifier.isStatic(f.getModifiers)) {
                val t = f.getType
                val size = if (!t.isPrimitive) 4L
                  else if (t == java.lang.Long.TYPE || t == java.lang.Double.TYPE) 8L
                  else if (t == java.lang.Integer.TYPE || t == java.lang.Float.TYPE) 4L
                  else if (t == java.lang.Short.TYPE || t == java.lang.Character.TYPE) 2L
                  else 1L
                end = end.max(unsafe.objectFieldOffset(f) + size)
                if (!t.isPrimitive) {
                  f.setAccessible(true)
                  todo = f.get(o) :: todo
                }
              }
            }
            c = c.getSuperclass
          }
          total += align(end)
        }
      }
    }
    total
  }
}

/** Order statistics over one sample. */
object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    val k = s.length / 2
    if (s.length % 2 == 1) s(k) else (s(k - 1) + s(k)) / 2
  }

  /** Nearest-rank percentile, `q` in (0, 1]. */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val s = xs.sorted
    s((math.ceil(q * s.length).toInt - 1).max(0))
  }

  def mean(xs: Seq[Double]): Double = xs.sum / xs.length
}
