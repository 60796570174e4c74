package repro.experiments

/** Experiment parameters (Section IV-A) and feasibility gates.
  *
  * Gates stand in for the paper's "3 hours or 10⁴× TPA" time cap at our
  * scaled-down sizes (DESIGN.md §5): a dense O(n³) method is allowed to
  * run only on analogs corresponding to the datasets it finished on in
  * the paper, and is reported as OOT elsewhere — matching the omitted
  * bars of Figs 1 and 3. Every value is a constant.
  */
object ExpConfig {
  /** Restart probability (paper: 0.15). */
  val c: Double = 0.15

  /** CPI convergence tolerance (paper: 1e-9). */
  val eps: Double = 1e-9

  /** Seeds averaged per dataset (paper: 30; 10 here to bound bench time). */
  val numSeeds: Int = 10

  /** RPPR expansion tolerance (paper: 1e-4). */
  val rpprTheta: Double = 1e-4

  /** BRPPR frontier-residual threshold. */
  val brpprKappa: Double = 1e-3

  /** NB-LIN target rank (drop tolerance is 0, per the paper). */
  val nbLinRank: Int = 100

  /** NB-LIN runs only where n ≤ this (paper: fails from Pokec onward). */
  val nbLinMaxN: Int = 3000

  /** BEAR-APPROX hub fraction for the hubs-last ordering. */
  val bearHubFrac: Double = 0.2

  /** BEAR-APPROX runs only where n ≤ this (paper: fails from Google onward). */
  val bearMaxN: Int = 1500

  /** HubPPR backward-push residual bound. */
  val hubPprRmax: Double = 1e-3

  /** HubPPR forward-walk count per query. */
  val hubPprWalks: Int = 10000

  /** HubPPR hub-index size (precomputed backward pushes). */
  val hubPprHubs: Int = 64

  /** HubPPR full-vector queries run only where n ≤ this (paper: omitted
    * from Google onward — 10⁴× TPA online time).
    */
  val hubPprOnlineMaxN: Int = 1500

  /** HubPPR seeds for online measurement (full-vector loop is slow by design). */
  val hubPprSeeds: Int = 3
}
