package org.apache.spark

/** Blocks until the listener bus has delivered every posted event. The bus is
  * package-private in Spark, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
