package org.apache.spark

/** Waits until Spark's listener bus has delivered every queued event, so a
  * listener's counts for a finished job are complete. The bus is package
  * private, hence this one-line bridge in Spark's package.
  */
object BusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
