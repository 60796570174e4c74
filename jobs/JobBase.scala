package repro.jobs

/** Shared main-method plumbing for the spark-submit entrypoints: run one
  * experiment, print its table under its title.
  */
trait JobBase {
  /** Title printed above the table. */
  def title: String
  /** Produce the experiment's markdown table. */
  def run(): String

  def main(args: Array[String]): Unit = {
    println(s"== $title ==")
    println(run())
  }
}
