package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for suites that need the one local SparkSession of the test JVM. */
trait SparkSuite extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSuite.shared
}

object SparkSuite {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder.master("local[2]").appName("perfbench-test")
      .config("spark.ui.enabled", false).getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
