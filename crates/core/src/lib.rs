//! # BLEND — a unified data discovery system
//!
//! Reproduction of *"BLEND: A Unified Data Discovery System"* (ICDE 2025).
//! BLEND lets a user compose a **discovery plan** from low-level operators
//! and executes it, optimized, against a single unified index:
//!
//! * **Seekers** ([`plan::Seeker`]) — atomic search operators returning
//!   top-k tables: single-column join (`SC`), keyword (`KW`), multi-column
//!   join (`MC`), and correlation (`C`), each defined by its SQL over the
//!   `AllTables` fact table (paper Listings 1–3). Each runs as one
//!   operator over the index that returns what its SQL returns; no SQL
//!   engine runs inside BLEND. The SQL text is rendered only for an
//!   [`ExecutionReport`], and runs as text on the served path
//!   ([`seekers`] module docs).
//! * **Combiners** ([`plan::Combiner`]) — set operators over seeker
//!   results: intersection, union, difference, counter.
//! * **The optimizer** ([`optimizer`]) — identifies reorderable execution
//!   groups, ranks seekers with complexity rules plus a learned per-type
//!   cost model, and **rewrites** later seekers' SQL with the table ids
//!   produced by earlier ones (`TableId [NOT] IN (...)`), letting each
//!   operator cut what it reads to the shrunken search space.
//!
//! ```
//! use blend::{Blend, Plan, Seeker, Combiner};
//! use blend_storage::EngineKind;
//! # use blend_lake::web::{generate, WebLakeConfig};
//! # let lake = generate(&WebLakeConfig{ name: "doc".into(), n_tables: 20,
//! #     rows: (5, 10), cols: (2, 3), vocab: 50, zipf_s: 1.0,
//! #     numeric_col_ratio: 0.3, null_ratio: 0.0, seed: 1 });
//! let system = Blend::from_lake(&lake, EngineKind::Column);
//!
//! let mut plan = Plan::new();
//! plan.add_seeker("pos", Seeker::mc(vec![
//!     vec!["v1".into(), "v2".into()],
//! ]), 10).unwrap();
//! plan.add_seeker("dep", Seeker::sc(vec!["v1".into(), "v3".into()]), 10).unwrap();
//! plan.add_combiner("both", Combiner::Intersect, 10, &["pos", "dep"]).unwrap();
//!
//! let hits = system.execute(&plan).unwrap();
//! # let _ = hits;
//! ```

#![forbid(unsafe_code)]

mod c;
pub mod combiners;
pub mod exec;
mod mc;
pub mod optimizer;
pub mod plan;
mod postings;
mod sc;
pub mod seekers;
pub mod tasks;

use std::sync::Arc;

use blend_common::Result;
use blend_lake::DataLake;
use blend_storage::{EngineKind, FactTable};

pub use combiners::TableHit;
pub use exec::{ExecutionReport, OpExecution};
pub use optimizer::costmodel::{CostModelSet, SeekerFeatures};
pub use plan::{Combiner, Plan, Seeker};

pub use blend_parallel::{CancellationToken, Deadline, Interrupt, ParallelCtx};

/// How seekers inside an execution group are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingMode {
    /// Rule + cost-model ranking (the full optimizer).
    Ranked,
    /// Keep the plan's input order (with rewriting still active). This is
    /// the "Rand" configuration of paper Table IV when the caller shuffles
    /// the plan's inputs.
    PlanOrder,
}

/// System-wide options.
#[derive(Debug, Clone)]
pub struct BlendOptions {
    /// Enable the plan optimizer (ordering + SQL rewriting).
    /// `false` reproduces the paper's "B-NO" configuration.
    pub optimize: bool,
    /// Seeker ordering policy when the optimizer is on.
    pub ordering: OrderingMode,
    /// Correlation sampling size `h` (paper default 256). Chosen at query
    /// time — the flexibility the paper highlights over the QCR baseline.
    pub h: usize,
    /// Minimum candidate matches for a correlation score to count.
    pub corr_min_matches: usize,
}

impl Default for BlendOptions {
    fn default() -> Self {
        BlendOptions {
            optimize: true,
            ordering: OrderingMode::Ranked,
            h: 256,
            corr_min_matches: 3,
        }
    }
}

/// The BLEND system: the `AllTables` index, the execution context its
/// operators run with, and the optimizer's state.
pub struct Blend {
    fact: Arc<dyn FactTable>,
    options: BlendOptions,
    cost_models: parking_lot::RwLock<CostModelSet>,
    /// Shared execution context. One `Arc` serves the whole system: every
    /// seeker of a plan reserves against its governor, so all seekers of a
    /// plan draw from a single budget.
    parallel: Arc<ParallelCtx>,
}

impl Blend {
    /// Attach BLEND to an already-built fact table.
    pub fn new(fact: Arc<dyn FactTable>) -> Self {
        Blend::with_options(fact, BlendOptions::default())
    }

    /// Attach with explicit options.
    pub fn with_options(fact: Arc<dyn FactTable>, options: BlendOptions) -> Self {
        Blend {
            fact,
            options,
            cost_models: parking_lot::RwLock::new(CostModelSet::default()),
            // The process-shared context, with its one admission budget.
            parallel: ParallelCtx::shared_from_env(),
        }
    }

    /// The shared execution context every seeker reserves against.
    pub fn parallel_ctx(&self) -> Arc<ParallelCtx> {
        self.parallel.clone()
    }

    /// Install a different execution context (e.g. a private memory
    /// governor for tests, or [`ParallelCtx::sequential`]).
    pub fn set_parallel(&mut self, ctx: Arc<ParallelCtx>) {
        self.parallel = ctx;
    }

    /// Index a lake (offline phase, Fig. 2e) and attach to it.
    pub fn from_lake(lake: &DataLake, kind: EngineKind) -> Self {
        let fact = blend_index::IndexBuilder::new().build(&lake.tables, kind);
        Blend::new(fact)
    }

    /// Index a lake with pre-shuffled rows — the "BLEND (rand)" variant.
    pub fn from_lake_shuffled(lake: &DataLake, kind: EngineKind, seed: u64) -> Self {
        let builder = blend_index::IndexBuilder::with_options(blend_index::IndexOptions {
            shuffle_rows: true,
            seed,
        });
        Blend::new(builder.build(&lake.tables, kind))
    }

    /// The `AllTables` handle.
    pub fn fact_table(&self) -> Arc<dyn FactTable> {
        self.fact.clone()
    }

    /// Current options.
    pub fn options(&self) -> &BlendOptions {
        &self.options
    }

    /// Mutate options (used by experiments to toggle the optimizer).
    pub fn set_optimize(&mut self, on: bool) {
        self.options.optimize = on;
    }

    /// Switch the seeker ordering policy (Table IV's Rand/BLEND split).
    pub fn set_ordering(&mut self, mode: OrderingMode) {
        self.options.ordering = mode;
    }

    /// Install a trained cost model set.
    pub fn set_cost_models(&self, models: CostModelSet) {
        *self.cost_models.write() = models;
    }

    /// Snapshot of the current cost models.
    pub fn cost_models(&self) -> CostModelSet {
        self.cost_models.read().clone()
    }

    /// Train the per-seeker-type cost models on queries sampled from the
    /// given lake (offline, paper §VII-B "learning-based cost estimation").
    pub fn train_cost_models(&self, lake: &DataLake, samples_per_type: usize, seed: u64) {
        let models = optimizer::costmodel::train(self, lake, samples_per_type, seed);
        self.set_cost_models(models);
    }

    /// Execute a plan, returning the sink node's top-k tables. Builds no
    /// [`ExecutionReport`] and renders no SQL text.
    pub fn execute(&self, plan: &Plan) -> Result<Vec<TableHit>> {
        exec::run(self, plan, Interrupt::never(), false).map(|(hits, _)| hits)
    }

    /// Execute a plan with per-operator telemetry.
    pub fn execute_with_report(&self, plan: &Plan) -> Result<(Vec<TableHit>, ExecutionReport)> {
        self.execute_interruptible(plan, Interrupt::never())
    }

    /// Execute a plan under a cancellation/deadline [`Interrupt`]. Checked
    /// at every seeker boundary and inside every seeker's operator; an
    /// interrupted plan returns `BlendError::{Cancelled, Timeout}` with no
    /// partial hits.
    pub fn execute_interruptible(
        &self,
        plan: &Plan,
        interrupt: Interrupt,
    ) -> Result<(Vec<TableHit>, ExecutionReport)> {
        let (hits, report) = exec::run(self, plan, interrupt, true)?;
        Ok((hits, report.unwrap_or_default()))
    }
}
