//! # dmt-runner: parallel experiment orchestration
//!
//! The paper's evaluation (§5.2) is a cross-product of benchmarks ×
//! architectures × configurations × seeds. This crate turns that grid
//! into an explicit job list and executes it on a shared-nothing worker
//! pool with **deterministic aggregation**: results are collected by job
//! index, never by completion order, so the aggregated output of a
//! parallel run is byte-identical to the serial run.
//!
//! The crate is orchestration-only — it does not know how to simulate
//! anything. The leaf executor is injected by the caller (`dmt-bench`
//! passes its `execute_job`, which keeps `run_one`/`try_run_one` as the
//! single simulation entry point in the workspace).
//!
//! | Module | Role |
//! |---|---|
//! | [`job`] | `JobSpec` descriptors, outcomes, stable job hashes |
//! | [`plan`] | [`ExecPlan`]: the one builder every job grid runs through |
//! | [`pool`] | `std::thread::scope` worker pool, index-ordered results |
//! | [`hash`] | order-independent FNV/splitmix stable hashing |
//! | [`artifact`] | versioned JSON artifacts (`schema_version: 2`, per-phase stats) + parser |
//! | [`cache`] | content-addressed result cache, resume, cost-sorted scheduling |
//! | [`progress`] | completion-ordered stderr ticker |
//! | [`cli`] | declarative flag registry + the shared `--threads/--json/--cache/...` surface |
//!
//! # Example
//!
//! Orchestrate a tiny grid with a custom executor (the real executor
//! lives in `dmt-bench`):
//!
//! ```
//! use dmt_runner::{Artifact, ExecPlan, JobOutcome, JobSpec, JobMetrics};
//! use dmt_core::{Arch, SystemConfig};
//!
//! // Two architectures × two seeds.
//! let jobs: Vec<JobSpec> = [1u64, 2]
//!     .iter()
//!     .flat_map(|&seed| {
//!         [Arch::FermiSm, Arch::DmtCgra]
//!             .map(|arch| JobSpec::new("toy", arch, SystemConfig::default(), seed))
//!     })
//!     .collect();
//!
//! // A stand-in executor: pretend every run takes `seed * 100` cycles.
//! let exec = |spec: &JobSpec| {
//!     let mut stats = dmt_core::common::stats::RunStats::default();
//!     stats.cycles = spec.seed * 100;
//!     JobOutcome::completed(JobMetrics {
//!         kernel: spec.bench.clone(),
//!         stats,
//!         energy: dmt_core::EnergyReport::default(),
//!     })
//! };
//!
//! // Aggregation is by job index: 4 workers or 1, same vector.
//! let parallel = ExecPlan::new(&jobs).threads(4).run(exec);
//! let serial = ExecPlan::new(&jobs).run(exec);
//! assert_eq!(parallel, serial);
//!
//! // And the artifact's jobs array is fully deterministic.
//! let art = Artifact::new("example", 4, 0, 1, jobs, parallel);
//! assert!(art.jobs_json().render().contains("\"cycles\": 100"));
//! ```

pub mod artifact;
pub mod cache;
pub mod cli;
pub mod hash;
pub mod job;
pub mod plan;
pub mod pool;
pub mod progress;

pub use artifact::{write_json, write_json_logged, Artifact, Json, SCHEMA_VERSION};
pub use cache::{Cache, CacheStats, CostIndex};
pub use cli::{resolve_threads, Flag, RunnerArgs};
pub use hash::{config_hash, StableHasher};
pub use job::{JobMetrics, JobOutcome, JobSpec};
pub use plan::{panic_message, ExecPlan};
pub use pool::run_indexed;
pub use progress::Progress;

/// Holds the process-global fault registry empty for a test's lifetime.
/// Tests whose code crosses a failpoint seam (cache I/O, plan execution)
/// take this guard: it serializes them with the fault-injection tests,
/// which would otherwise lose their `nth=` hits to a concurrent test.
#[cfg(test)]
pub(crate) fn fault_free() -> dmt_common::faults::FaultGuard {
    dmt_common::faults::install_guarded(dmt_common::faults::FaultPlan::empty())
}
