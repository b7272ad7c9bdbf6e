package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Stage and task accounting for Spark jobs run under a job group.
  *
  * Registered by the benchmark itself (the program has no hooks): every
  * finished stage and task is attributed to the job group active when its
  * job started, so one build's stages, shuffle and task time can be read back
  * after it ends.
  */
final class SparkStats extends SparkListener {
  import SparkStats._

  private val groups = mutable.HashMap.empty[String, Group]
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private val jobStart = mutable.HashMap.empty[Int, Long]
  private val jobGroup = mutable.HashMap.empty[Int, String]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    g.foreach { name =>
      groups.getOrElseUpdate(name, new Group)
      jobStart(e.jobId) = e.time
      jobGroup(e.jobId) = name
      e.stageIds.foreach(stageGroup(_) = name)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobGroup.get(e.jobId).foreach { name =>
      val g = groups(name)
      g.jobWallS += (e.time - jobStart(e.jobId)) / 1e3
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    stageGroup.get(info.stageId).foreach { name =>
      val wall = (for (s <- info.submissionTime; c <- info.completionTime) yield (c - s) / 1e3)
        .getOrElse(0.0)
      val tm = info.taskMetrics
      groups(name).stages += Stage(wall,
        tm.shuffleWriteMetrics.bytesWritten, tm.shuffleWriteMetrics.recordsWritten)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageGroup.get(e.stageId).foreach { name =>
      val g = groups(name)
      Option(e.taskMetrics).foreach { tm =>
        g.runTimeMs += tm.executorRunTime
        g.cpuNs += tm.executorCpuTime
        g.gcMs += tm.jvmGCTime
        g.resultBytes += tm.resultSize
      }
    }
  }

  /** Run `body` with every job it starts tagged `group`; returns once the
    * listener has seen every event those jobs posted.
    */
  def tagged[T](sc: SparkContext, group: String)(body: => T): T = {
    sc.setJobGroup(group, group)
    try body finally {
      sc.clearJobGroup()
      org.apache.spark.BusDrain(sc)
    }
  }

  def group(name: String): Group = synchronized(groups.getOrElse(name, new Group))
}

object SparkStats {
  final case class Stage(wallS: Double, shuffleWriteBytes: Long, shuffleRecords: Long)


  /** Everything the listener saw for one job group. */
  final class Group {
    var jobWallS = 0.0
    val stages = mutable.ArrayBuffer.empty[Stage]
    var runTimeMs = 0L
    var cpuNs = 0L
    var gcMs = 0L
    var resultBytes = 0L
  }
}
