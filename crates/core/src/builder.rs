//! The run-configuration front door: `Pts::builder()`.
//!
//! A [`RunBuilder`] collects the paper's parameters through fluent
//! setters; [`RunBuilder::build`] validates the whole configuration and
//! returns a [`PtsRun`] — a proof-of-validity token whose execute methods
//! never panic on bad parameters (invalid configs fail at *build* time
//! with a typed [`ConfigError`]).
//!
//! ```
//! use pts_core::{Pts, VirtualEngine};
//! use pts_core::qap_domain::QapDomain;
//!
//! let run = Pts::builder()
//!     .tsw_workers(2)
//!     .clw_workers(2)
//!     .global_iters(2)
//!     .local_iters(4)
//!     .seed(7)
//!     .build()
//!     .expect("valid configuration");
//! let out = run.execute(&QapDomain::random(16, 1), &VirtualEngine::paper());
//! assert!(out.outcome.best_cost <= out.outcome.initial_cost);
//! ```

use crate::config::{CostKind, PtsConfig, SearchStrategy, SnapshotMode, SyncPolicy, WorkModel};
use crate::domain::{PtsDomain, SnapshotOf};
use crate::engine::{EngineOutput, ExecutionEngine};
use crate::placement_problem::{MasterOutcome, PlacementDomain};
use crate::report::RunReport;
use pts_netlist::Netlist;
use pts_place::placement::Placement;
use pts_tabu::aspiration::Aspiration;
use std::sync::Arc;

/// Why a configuration failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `n_tsw` must be ≥ 1.
    NoTabuSearchWorkers,
    /// `n_clw` must be ≥ 1.
    NoCandidateListWorkers,
    /// `global_iters` / `local_iters` must be ≥ 1.
    ZeroIterations,
    /// `candidates` / `depth` must be ≥ 1.
    ZeroMoveBudget,
    /// `report_fraction` must lie in `(0, 1]`.
    ReportFractionOutOfRange(f64),
    /// `diversify_width` must be ≥ 1 when diversification is enabled.
    ZeroDiversifyWidth,
    /// `shard_fanout` of 1 can never contract the collection tree; use 0
    /// (flat) or a fan-out ≥ 2.
    ShardFanoutTooSmall,
    /// `liveness_timeout` must be finite and ≥ 0 (0 = disabled).
    LivenessTimeoutInvalid(f64),
    /// The strategy portfolio holds at most 255 entries (ids ride one
    /// wire byte).
    PortfolioTooLarge(usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoTabuSearchWorkers => write!(f, "need at least one TSW"),
            ConfigError::NoCandidateListWorkers => {
                write!(f, "need at least one CLW per TSW")
            }
            ConfigError::ZeroIterations => write!(f, "iteration counts must be positive"),
            ConfigError::ZeroMoveBudget => {
                write!(f, "candidates and depth must be positive")
            }
            ConfigError::ReportFractionOutOfRange(v) => {
                write!(f, "report_fraction must lie in (0, 1], got {v}")
            }
            ConfigError::ZeroDiversifyWidth => {
                write!(f, "diversify_width must be >= 1 when diversification is on")
            }
            ConfigError::ShardFanoutTooSmall => {
                write!(f, "shard_fanout must be 0 (flat) or >= 2, got 1")
            }
            ConfigError::LivenessTimeoutInvalid(v) => {
                write!(f, "liveness_timeout must be finite and >= 0, got {v}")
            }
            ConfigError::PortfolioTooLarge(n) => {
                write!(f, "portfolio holds at most 255 strategies, got {n}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Namespace for the run API: `Pts::builder()` is the entry point.
pub struct Pts;

impl Pts {
    /// Start from the paper's defaults ([`PtsConfig::default`]).
    ///
    /// Invalid combinations are rejected at [`RunBuilder::build`] time
    /// with a typed [`ConfigError`], and the resulting [`PtsRun`] executes
    /// on any engine:
    ///
    /// ```
    /// use pts_core::{AsyncEngine, ConfigError, Pts, QapDomain};
    ///
    /// assert!(matches!(
    ///     Pts::builder().tsw_workers(0).build(),
    ///     Err(ConfigError::NoTabuSearchWorkers)
    /// ));
    ///
    /// let run = Pts::builder()
    ///     .tsw_workers(3)
    ///     .global_iters(2)
    ///     .local_iters(3)
    ///     .build()?;
    /// let out = run.execute(&QapDomain::random(16, 1), &AsyncEngine::new());
    /// assert!(out.outcome.best_cost <= out.outcome.initial_cost);
    /// # Ok::<(), ConfigError>(())
    /// ```
    pub fn builder() -> RunBuilder {
        RunBuilder {
            cfg: PtsConfig::default(),
            auto_fanout: false,
        }
    }

    /// Start from an existing configuration (e.g. a CLI-parsed one).
    pub fn from_config(cfg: PtsConfig) -> RunBuilder {
        RunBuilder {
            cfg,
            auto_fanout: false,
        }
    }
}

/// Fluent, validated construction of a [`PtsRun`].
#[derive(Clone, Debug)]
pub struct RunBuilder {
    cfg: PtsConfig,
    /// Resolve `shard_fanout` to `PtsConfig::auto_shard_fanout(n_tsw)` at
    /// build time (deferred so it sees the final worker count regardless
    /// of setter order).
    auto_fanout: bool,
}

impl RunBuilder {
    /// Number of tabu search workers (high-level parallelization).
    pub fn tsw_workers(mut self, n: usize) -> Self {
        self.cfg.n_tsw = n;
        self
    }

    /// Candidate-list workers per TSW (low-level parallelization).
    pub fn clw_workers(mut self, n: usize) -> Self {
        self.cfg.n_clw = n;
        self
    }

    /// Global iterations (master broadcast rounds).
    pub fn global_iters(mut self, n: u32) -> Self {
        self.cfg.global_iters = n;
        self
    }

    /// Local iterations per TSW per global iteration.
    pub fn local_iters(mut self, n: u32) -> Self {
        self.cfg.local_iters = n;
        self
    }

    /// Candidate pairs sampled per elementary move (`m`) of the uniform
    /// strategy.
    pub fn candidates(mut self, m: usize) -> Self {
        self.cfg.search.candidates = m;
        self
    }

    /// Compound move depth (`d`) of the uniform strategy.
    pub fn depth(mut self, d: usize) -> Self {
        self.cfg.search.depth = d;
        self
    }

    /// Tabu tenure in local iterations of the uniform strategy.
    pub fn tenure(mut self, tenure: u64) -> Self {
        self.cfg.search.tenure = tenure;
        self
    }

    /// Enable/disable the Kelly-style diversification step.
    pub fn diversify(mut self, on: bool) -> Self {
        self.cfg.diversify = on;
        self
    }

    /// Diversification moves per global iteration (`0` = auto-scale) of
    /// the uniform strategy.
    pub fn diversify_depth(mut self, depth: usize) -> Self {
        self.cfg.search.diversify_depth = depth;
        self
    }

    /// Moves sampled per diversification step of the uniform strategy.
    pub fn diversify_width(mut self, width: usize) -> Self {
        self.cfg.search.diversify_width = width;
        self
    }

    /// Aspiration policy of the uniform strategy.
    pub fn aspiration(mut self, asp: Aspiration) -> Self {
        self.cfg.search.aspiration = asp;
        self
    }

    /// Replace the whole uniform strategy at once.
    pub fn search_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.cfg.search = strategy;
        self
    }

    /// Heterogeneous strategy portfolio (empty = uniform run). TSW group
    /// `g` starts on `portfolio[g % len]`; the root's epsilon-greedy
    /// reallocator may reassign groups between rounds. See
    /// [`PtsConfig::portfolio`].
    pub fn portfolio<I: IntoIterator<Item = SearchStrategy>>(mut self, strategies: I) -> Self {
        self.cfg.portfolio = strategies.into_iter().collect();
        self
    }

    /// The synchronization policy at both levels (the paper compares
    /// homogeneous WaitAll against heterogeneous HalfReport at both
    /// levels).
    pub fn sync(mut self, policy: SyncPolicy) -> Self {
        self.cfg.sync = policy;
        self
    }

    /// Fraction of children that must report before the rest are forced
    /// (the paper uses 0.5). Must lie in `(0, 1]`.
    pub fn report_fraction(mut self, fraction: f64) -> Self {
        self.cfg.report_fraction = fraction;
        self
    }

    /// Cost scheme (fuzzy goal-based or normalized weighted sum).
    pub fn cost(mut self, cost: CostKind) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// Master seed; all worker streams fork from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Master sharding fan-out: maximum children per collection node.
    /// `0` (default) keeps the flat single-master topology; `2..n_tsw`
    /// inserts a tree of sub-masters so report collection costs
    /// O(fan-out) per process instead of O(`n_tsw`) at the root. See
    /// [`PtsConfig::shard_fanout`].
    pub fn shard_fanout(mut self, fanout: usize) -> Self {
        self.cfg.shard_fanout = fanout;
        self.auto_fanout = false;
        self
    }

    /// Pick the sharding fan-out automatically at build time:
    /// `f ≈ sqrt(n_tsw)`, the balanced tree where the root and each leaf
    /// collector own about the same number of children (flat when the
    /// tree would not contract). See [`PtsConfig::auto_shard_fanout`].
    pub fn shard_fanout_auto(mut self) -> Self {
        self.auto_fanout = true;
        self
    }

    /// Snapshot wire encoding: [`SnapshotMode::Delta`] (default — diff
    /// against the last shared broadcast, bit-identical search
    /// trajectory) or [`SnapshotMode::Full`] (the paper's always-full
    /// format).
    pub fn snapshot_mode(mut self, mode: SnapshotMode) -> Self {
        self.cfg.snapshot_mode = mode;
        self
    }

    /// `true`: every worker gets an independent RNG stream (SPDS-style
    /// extension); `false` (default): the paper's MPSS design.
    pub fn differentiate_streams(mut self, on: bool) -> Self {
        self.cfg.differentiate_streams = on;
        self
    }

    /// Virtual work accounting (the vt engine's clock).
    pub fn work_model(mut self, work: WorkModel) -> Self {
        self.cfg.work = work;
        self
    }

    /// Round-liveness timeout in virtual seconds (0 = disabled). See
    /// [`PtsConfig::liveness_timeout`].
    pub fn liveness_timeout(mut self, timeout: f64) -> Self {
        self.cfg.liveness_timeout = timeout;
        self
    }

    /// Proc-engine worker heartbeat interval in milliseconds
    /// (0 = disabled). See [`PtsConfig::heartbeat_ms`].
    pub fn heartbeat_ms(mut self, ms: u64) -> Self {
        self.cfg.heartbeat_ms = ms;
        self
    }

    /// Proc-engine reap grace window in milliseconds. See
    /// [`PtsConfig::reap_grace_ms`].
    pub fn reap_grace_ms(mut self, ms: u64) -> Self {
        self.cfg.reap_grace_ms = ms;
        self
    }

    /// Validate everything; a returned [`PtsRun`] is guaranteed runnable.
    pub fn build(mut self) -> Result<PtsRun, ConfigError> {
        if self.auto_fanout {
            self.cfg.shard_fanout = PtsConfig::auto_shard_fanout(self.cfg.n_tsw);
        }
        self.cfg.validate()?;
        Ok(PtsRun { cfg: self.cfg })
    }
}

/// A validated, ready-to-execute run configuration.
#[derive(Clone, Debug)]
pub struct PtsRun {
    cfg: PtsConfig,
}

impl PtsRun {
    /// The validated configuration this run will execute.
    pub fn config(&self) -> &PtsConfig {
        &self.cfg
    }

    /// Run the full master/TSW/CLW pipeline for any domain on any engine,
    /// from the domain's seeded initial solution.
    pub fn execute<D: PtsDomain>(
        &self,
        domain: &D,
        engine: &dyn ExecutionEngine<D>,
    ) -> EngineOutput<D> {
        let initial = domain.initial(self.cfg.seed);
        self.execute_from(domain, engine, initial)
    }

    /// Run from an explicit initial solution (e.g. a constructive
    /// placement).
    pub fn execute_from<D: PtsDomain>(
        &self,
        domain: &D,
        engine: &dyn ExecutionEngine<D>,
        initial: SnapshotOf<D>,
    ) -> EngineOutput<D> {
        let frozen = domain.freeze(&initial);
        engine.execute(&self.cfg, &frozen, initial)
    }

    /// Placement convenience: run a circuit, returning the outcome
    /// enriched with exact raw objectives.
    pub fn run_placement(
        &self,
        netlist: Arc<Netlist>,
        engine: &dyn ExecutionEngine<PlacementDomain>,
    ) -> PlacementRunOutput {
        let domain = PlacementDomain::new(netlist, &self.cfg);
        let initial = domain.initial(self.cfg.seed);
        self.run_placement_in(domain, engine, initial)
    }

    /// Placement convenience with an explicit initial placement.
    pub fn run_placement_from(
        &self,
        netlist: Arc<Netlist>,
        engine: &dyn ExecutionEngine<PlacementDomain>,
        initial: Placement,
    ) -> PlacementRunOutput {
        let domain = PlacementDomain::new(netlist, &self.cfg);
        self.run_placement_in(domain, engine, initial)
    }

    fn run_placement_in(
        &self,
        domain: PlacementDomain,
        engine: &dyn ExecutionEngine<PlacementDomain>,
        initial: Placement,
    ) -> PlacementRunOutput {
        let frozen = domain.freeze(&initial);
        let out = engine.execute(&self.cfg, &frozen, initial);
        PlacementRunOutput {
            outcome: MasterOutcome::from_search(out.outcome, &frozen),
            report: out.report,
        }
    }
}

/// Result of a placement run: outcome with exact objectives + unified
/// engine metrics (no engine-optional fields).
#[derive(Clone, Debug)]
pub struct PlacementRunOutput {
    /// Search outcome enriched with exact raw placement objectives.
    pub outcome: MasterOutcome,
    /// Unified engine metrics for the run.
    pub report: RunReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_equal_config_default() {
        let run = Pts::builder().build().unwrap();
        assert_eq!(*run.config(), PtsConfig::default());
    }

    #[test]
    fn builder_rejects_zero_workers() {
        assert_eq!(
            Pts::builder().tsw_workers(0).build().unwrap_err(),
            ConfigError::NoTabuSearchWorkers
        );
        assert_eq!(
            Pts::builder().clw_workers(0).build().unwrap_err(),
            ConfigError::NoCandidateListWorkers
        );
    }

    #[test]
    fn builder_rejects_bad_report_fraction() {
        for bad in [0.0, -0.5, 1.5] {
            assert_eq!(
                Pts::builder().report_fraction(bad).build().unwrap_err(),
                ConfigError::ReportFractionOutOfRange(bad)
            );
        }
        assert!(Pts::builder().report_fraction(1.0).build().is_ok());
        assert!(Pts::builder().report_fraction(0.01).build().is_ok());
    }

    #[test]
    fn builder_rejects_zero_iterations_and_budgets() {
        assert_eq!(
            Pts::builder().global_iters(0).build().unwrap_err(),
            ConfigError::ZeroIterations
        );
        assert_eq!(
            Pts::builder().local_iters(0).build().unwrap_err(),
            ConfigError::ZeroIterations
        );
        assert_eq!(
            Pts::builder().candidates(0).build().unwrap_err(),
            ConfigError::ZeroMoveBudget
        );
        assert_eq!(
            Pts::builder().depth(0).build().unwrap_err(),
            ConfigError::ZeroMoveBudget
        );
    }

    #[test]
    fn builder_rejects_bad_beta_and_width() {
        assert_eq!(
            Pts::builder().diversify_width(0).build().unwrap_err(),
            ConfigError::ZeroDiversifyWidth
        );
        // Width 0 is fine when diversification is off.
        assert!(Pts::builder()
            .diversify(false)
            .diversify_width(0)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_fanout_of_one() {
        assert_eq!(
            Pts::builder()
                .tsw_workers(4)
                .shard_fanout(1)
                .build()
                .unwrap_err(),
            ConfigError::ShardFanoutTooSmall
        );
        assert!(Pts::builder()
            .tsw_workers(4)
            .shard_fanout(2)
            .build()
            .is_ok());
        assert!(Pts::builder()
            .tsw_workers(4)
            .shard_fanout(0)
            .build()
            .is_ok());
    }

    #[test]
    fn auto_fanout_resolves_at_build_regardless_of_setter_order() {
        // Setter before the worker count: still sees the final n_tsw.
        let run = Pts::builder()
            .shard_fanout_auto()
            .tsw_workers(64)
            .build()
            .unwrap();
        assert_eq!(run.config().shard_fanout, 8);
        // Degenerates to flat where a tree cannot contract.
        let run = Pts::builder()
            .tsw_workers(2)
            .shard_fanout_auto()
            .build()
            .unwrap();
        assert_eq!(run.config().shard_fanout, 0);
        assert!(run.config().is_flat());
        // An explicit fan-out set later wins over auto.
        let run = Pts::builder()
            .tsw_workers(64)
            .shard_fanout_auto()
            .shard_fanout(4)
            .build()
            .unwrap();
        assert_eq!(run.config().shard_fanout, 4);
    }

    #[test]
    fn snapshot_mode_defaults_to_delta_and_is_settable() {
        assert_eq!(
            *Pts::builder().build().unwrap().config(),
            PtsConfig::default()
        );
        assert_eq!(
            PtsConfig::default().snapshot_mode,
            crate::config::SnapshotMode::Delta
        );
        let run = Pts::builder()
            .snapshot_mode(SnapshotMode::Full)
            .build()
            .unwrap();
        assert_eq!(run.config().snapshot_mode, SnapshotMode::Full);
    }

    #[test]
    fn builder_portfolio_is_validated_per_entry() {
        assert_eq!(
            Pts::builder()
                .portfolio([SearchStrategy {
                    depth: 0,
                    ..SearchStrategy::default()
                }])
                .build()
                .unwrap_err(),
            ConfigError::ZeroMoveBudget
        );
        assert_eq!(
            Pts::builder()
                .portfolio(vec![SearchStrategy::default(); 300])
                .build()
                .unwrap_err(),
            ConfigError::PortfolioTooLarge(300)
        );
        let run = Pts::builder()
            .portfolio([
                SearchStrategy::default(),
                SearchStrategy {
                    tenure: 15,
                    aspiration: Aspiration::None,
                    ..SearchStrategy::default()
                },
            ])
            .build()
            .unwrap();
        assert_eq!(run.config().portfolio.len(), 2);
        // The uniform knob setters keep targeting the uniform strategy.
        let run = Pts::builder().tenure(11).candidates(5).build().unwrap();
        assert_eq!(run.config().search.tenure, 11);
        assert_eq!(run.config().search.candidates, 5);
    }

    #[test]
    fn config_errors_display_helpfully() {
        let msg = ConfigError::ReportFractionOutOfRange(0.0).to_string();
        assert!(msg.contains("(0, 1]"), "got: {msg}");
    }

    #[test]
    fn from_config_roundtrips() {
        let cfg = PtsConfig {
            n_tsw: 7,
            seed: 99,
            ..PtsConfig::default()
        };
        let run = Pts::from_config(cfg).build().unwrap();
        assert_eq!(run.config().n_tsw, 7);
        assert_eq!(run.config().seed, 99);
    }
}
