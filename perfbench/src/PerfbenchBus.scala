package org.apache.spark

/** Access to the listener bus for the benchmark's counters: the bus is
  * package-private, and counts read before it drains miss the last events.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
