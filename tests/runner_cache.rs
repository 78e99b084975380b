//! The result cache's central contracts, exercised over the CI smoke
//! grid (first three Table 3 benchmarks × all three machines — exactly
//! what `fig11_speedup --smoke --json` runs):
//!
//! 1. a warm-cache rerun performs **zero simulations** yet produces
//!    byte-identical stdout (the Fig 11 report) and artifact JSON;
//! 2. corrupted or truncated cache entries are ignored and recomputed,
//!    never trusted and never fatal;
//! 3. an interrupted run resumes: only the jobs missing from the cache
//!    are re-executed;
//! 4. a schema bump invalidates a warm directory as counted misses (no
//!    parse errors), and the rerun rewrites it at the current version —
//!    the designed v1 → v2 migration path;
//! 5. degraded operation: an unusable cache directory, an ENOSPC-style
//!    write fault and a rename fault each produce counted misses or
//!    store failures — never an abort — and the run's artifacts stay
//!    byte-identical to an undisturbed run.
//!
//! Simulations are counted by instrumenting the executor around
//! `dmt_bench::execute_job` — the same leaf the binaries use — so "zero
//! simulations" is asserted directly, not inferred from timing.

use dmt_bench::{execute_job, fig11_report, run_suite_pooled, suite_jobs, RowOutcome, SEED};
use dmt_core::SystemConfig;
use dmt_runner::{Artifact, Cache, ExecPlan, JobOutcome, JobSpec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique, empty scratch directory per test (tests share one process).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmt_runner_cache_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Holds the process-global fault registry empty for a test's lifetime.
/// Every test here crosses the cache's failpoint seams, so without this
/// guard a concurrent test could consume the fault test's `nth=` hits.
fn fault_free() -> dmt_common::faults::FaultGuard {
    dmt_common::faults::install_guarded(dmt_common::faults::FaultPlan::empty())
}

/// Runs the smoke grid through the cache with an instrumented executor,
/// returning the outcomes and the number of real simulations performed.
fn smoke_run(jobs: &[JobSpec], cache: &Cache) -> (Vec<JobOutcome>, usize) {
    let sims = AtomicUsize::new(0);
    let outcomes = ExecPlan::new(jobs)
        .threads(2)
        .cache(Some(cache))
        .run(|spec| {
            sims.fetch_add(1, Ordering::Relaxed);
            execute_job(spec)
        });
    (outcomes, sims.load(Ordering::Relaxed))
}

/// Renders exactly what `fig11_speedup --smoke` prints to stdout and
/// what `--json` writes, with the volatile wall-clock pinned so the
/// comparison covers every byte.
fn fig11_outputs(jobs: &[JobSpec], outcomes: &[JobOutcome]) -> (String, String) {
    let rows = RowOutcome::from_jobs(jobs, outcomes);
    let stdout = fig11_report(&rows);
    let artifact = Artifact::new(
        "fig11_speedup",
        2,
        0,
        SEED,
        jobs.to_vec(),
        outcomes.to_vec(),
    );
    (stdout, artifact.to_json().render())
}

#[test]
fn warm_rerun_simulates_nothing_and_matches_the_cold_run_byte_for_byte() {
    let _faults = fault_free();
    let dir = scratch("warm");
    let jobs = suite_jobs(SystemConfig::default(), SEED, 3);

    let cold_cache = Cache::open(&dir).unwrap();
    let (cold, cold_sims) = smoke_run(&jobs, &cold_cache);
    assert_eq!(cold_sims, jobs.len(), "cold cache must simulate every job");
    assert_eq!(cold_cache.stats().hits, 0);
    assert_eq!(cold_cache.stats().stores, jobs.len() as u64);

    let warm_cache = Cache::open(&dir).unwrap();
    let (warm, warm_sims) = smoke_run(&jobs, &warm_cache);
    assert_eq!(warm_sims, 0, "warm cache must perform zero simulations");
    assert_eq!(warm_cache.stats().hits, jobs.len() as u64);
    assert_eq!(warm_cache.stats().misses, 0);

    let (cold_stdout, cold_artifact) = fig11_outputs(&jobs, &cold);
    let (warm_stdout, warm_artifact) = fig11_outputs(&jobs, &warm);
    assert_eq!(cold_stdout, warm_stdout, "stdout must be byte-identical");
    assert_eq!(
        cold_artifact, warm_artifact,
        "artifact JSON must be byte-identical"
    );

    // The same contract through the binaries' actual entry point.
    let pooled = run_suite_pooled(
        SystemConfig::default(),
        SEED,
        3,
        4,
        None,
        Some(&Cache::open(&dir).unwrap()),
    );
    assert_eq!(pooled.outcomes, cold);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_truncated_entries_are_ignored_and_recomputed() {
    let _faults = fault_free();
    let dir = scratch("corrupt");
    let jobs = suite_jobs(SystemConfig::default(), SEED, 3);

    let cache = Cache::open(&dir).unwrap();
    let (cold, _) = smoke_run(&jobs, &cache);

    // Truncate one entry mid-document, corrupt another into non-JSON,
    // and retarget a third at the wrong schema version.
    let e0 = cache.entry_path(&jobs[0]);
    let text = std::fs::read_to_string(&e0).unwrap();
    std::fs::write(&e0, &text[..text.len() / 2]).unwrap();
    std::fs::write(cache.entry_path(&jobs[4]), "not json at all").unwrap();
    let e8 = cache.entry_path(&jobs[8]);
    let text = std::fs::read_to_string(&e8).unwrap();
    let current = format!(
        "\"schema_version\": {}",
        dmt_runner::artifact::SCHEMA_VERSION
    );
    assert!(text.contains(&current), "entry must carry the version");
    std::fs::write(&e8, text.replace(&current, "\"schema_version\": 999")).unwrap();

    let warm = Cache::open(&dir).unwrap();
    let (repaired, sims) = smoke_run(&jobs, &warm);
    assert_eq!(sims, 3, "exactly the three defective entries re-simulate");
    assert_eq!(warm.stats().misses, 3);
    assert_eq!(warm.stats().hits, jobs.len() as u64 - 3);
    assert_eq!(repaired, cold, "recomputed outcomes match the originals");

    // The defective entries were rewritten: a third pass is all hits.
    let (again, sims) = smoke_run(&jobs, &Cache::open(&dir).unwrap());
    assert_eq!(sims, 0);
    assert_eq!(again, cold);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_cache_entries_are_invalidated_as_miss_and_rewritten_as_v2() {
    let _faults = fault_free();
    use dmt_runner::artifact::{Json, SCHEMA_VERSION};

    let dir = scratch("v1_migration");
    let jobs = suite_jobs(SystemConfig::default(), SEED, 3);
    let cache = Cache::open(&dir).unwrap();
    let (cold, _) = smoke_run(&jobs, &cache);

    // Downgrade every entry to schema v1: version field rewritten, the
    // per-job "phases" array dropped — exactly the shape the v1 writer
    // produced (v2 added "phases" and changed nothing else per job).
    for job in &jobs {
        let path = cache.entry_path(job);
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Json::Obj(entries) = doc else {
            panic!("entry is not an object")
        };
        let v1 = Json::Obj(
            entries
                .into_iter()
                .filter(|(k, _)| k != "phases")
                .map(|(k, v)| {
                    if k == "schema_version" {
                        (k, Json::U64(1))
                    } else {
                        (k, v)
                    }
                })
                .collect(),
        );
        std::fs::write(&path, v1.render()).unwrap();
    }

    // A warm v1 directory under the v2 binary: no parse error aborts the
    // run — every entry is a counted schema-invalidated miss, every job
    // recomputes, and the outcomes match the original cold run.
    let warm = Cache::open(&dir).unwrap();
    let (migrated, sims) = smoke_run(&jobs, &warm);
    assert_eq!(sims, jobs.len(), "every v1 entry must re-simulate");
    assert_eq!(warm.stats().hits, 0);
    assert_eq!(warm.stats().misses, jobs.len() as u64);
    assert_eq!(
        warm.stats().schema_invalidated,
        jobs.len() as u64,
        "v1 entries are specifically schema-invalidated, not generic misses"
    );
    assert_eq!(warm.stats().stores, jobs.len() as u64);
    assert_eq!(migrated, cold);

    // The directory is now v2-populated: a third pass is all hits with
    // zero schema invalidations, and every entry carries the current
    // version plus a non-empty phases array that sums to its totals.
    let third = Cache::open(&dir).unwrap();
    let (again, sims) = smoke_run(&jobs, &third);
    assert_eq!(sims, 0, "migrated cache must be fully warm");
    assert_eq!(third.stats().schema_invalidated, 0);
    assert_eq!(again, cold);
    for job in &jobs {
        let doc = Json::parse(&std::fs::read_to_string(cache.entry_path(job)).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        let phases = doc.get("phases").unwrap().as_arr().unwrap();
        assert!(!phases.is_empty(), "rewritten entries carry phases");
        let totals = doc.get("stats").unwrap().get("cycles").unwrap().as_u64();
        let sum: u64 = phases
            .iter()
            .map(|p| p.get("cycles").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(Some(sum), totals, "phase cycles sum to the job's cycles");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic stub executor for the degradation tests: a pure
/// function of the spec, so artifact byte-identity is checkable without
/// paying for real simulations inside fault windows.
fn stub(spec: &JobSpec) -> JobOutcome {
    JobOutcome::completed(dmt_runner::JobMetrics {
        kernel: spec.bench.clone(),
        stats: dmt_common::stats::RunStats {
            cycles: spec.job_hash() % 10_000 + 1,
            ..Default::default()
        },
        energy: dmt_core::energy::EnergyReport::default(),
    })
}

/// The deterministic artifact bytes of a (jobs, outcomes) pair.
fn artifact_bytes(jobs: &[JobSpec], outcomes: &[JobOutcome]) -> String {
    Artifact::new("degraded", 1, 0, SEED, jobs.to_vec(), outcomes.to_vec())
        .jobs_json()
        .render()
}

#[test]
fn unusable_cache_dir_degrades_to_counted_no_cache_operation() {
    let _faults = fault_free();
    // A *file* where the cache directory should go: `open` would error,
    // `open_or_degraded` hands back a no-I/O handle instead. (Permission
    // bits can't model this under root, which ignores them.)
    let parent = scratch("degraded");
    std::fs::create_dir_all(&parent).unwrap();
    let blocker = parent.join("cache");
    std::fs::write(&blocker, "a file, not a directory").unwrap();

    let jobs = suite_jobs(SystemConfig::default(), SEED, 3);
    let baseline: Vec<JobOutcome> = ExecPlan::new(&jobs).run(stub);

    let cache = Cache::open_or_degraded(&blocker);
    assert!(cache.is_degraded());
    for pass in 0..2 {
        let outcomes = ExecPlan::new(&jobs).cache(Some(&cache)).run(stub);
        assert_eq!(
            artifact_bytes(&jobs, &outcomes),
            artifact_bytes(&jobs, &baseline),
            "pass {pass}: degraded artifacts must match the uncached run"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.hits, 0, "a degraded handle never hits");
    assert_eq!(stats.misses, 2 * jobs.len() as u64, "every lookup counted");
    assert_eq!(stats.stores, 0, "nothing may reach the disk");
    assert_eq!(stats.store_failures, 2 * jobs.len() as u64);
    let _ = std::fs::remove_dir_all(&parent);
}

#[test]
fn write_and_rename_faults_cost_one_counted_miss_each_not_the_run() {
    use dmt_common::faults::{install_guarded, FaultPlan};

    let jobs = suite_jobs(SystemConfig::default(), SEED, 3);
    let baseline: Vec<JobOutcome> = ExecPlan::new(&jobs).run(stub);
    let base_bytes = artifact_bytes(&jobs, &baseline);

    // ENOSPC-style temp-file write fault, then a rename (publish) fault:
    // each fails exactly one store mid-run. The run's outcomes and
    // artifacts are untouched; the failed entry is simply absent, so a
    // warm rerun re-simulates exactly that one job as a counted miss.
    for (spec, tag) in [
        ("cache.write:nth=3", "write_fault"),
        ("cache.rename:nth=7", "rename_fault"),
    ] {
        let dir = scratch(tag);
        let cache = Cache::open(&dir).unwrap();
        let outcomes = {
            let _guard = install_guarded(FaultPlan::parse(spec).unwrap());
            ExecPlan::new(&jobs).cache(Some(&cache)).run(stub)
        };
        assert_eq!(
            artifact_bytes(&jobs, &outcomes),
            base_bytes,
            "{spec}: a failed store must not change the run's artifacts"
        );
        assert_eq!(cache.stats().store_failures, 1, "{spec}");
        assert_eq!(cache.stats().stores, jobs.len() as u64 - 1, "{spec}");

        // Fault window closed: the rerun serves the surviving entries
        // and re-executes only the one whose store failed.
        let warm = Cache::open(&dir).unwrap();
        let (repaired, sims) = smoke_run_with(&jobs, &warm, stub);
        assert_eq!(sims, 1, "{spec}: exactly the lost entry re-simulates");
        assert_eq!(warm.stats().misses, 1, "{spec}");
        assert_eq!(warm.stats().hits, jobs.len() as u64 - 1, "{spec}");
        assert_eq!(artifact_bytes(&jobs, &repaired), base_bytes, "{spec}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// [`smoke_run`] with a caller-chosen executor.
fn smoke_run_with(
    jobs: &[JobSpec],
    cache: &Cache,
    exec: fn(&JobSpec) -> JobOutcome,
) -> (Vec<JobOutcome>, usize) {
    let sims = AtomicUsize::new(0);
    let outcomes = ExecPlan::new(jobs).cache(Some(cache)).run(|spec| {
        sims.fetch_add(1, Ordering::Relaxed);
        exec(spec)
    });
    (outcomes, sims.load(Ordering::Relaxed))
}

#[test]
fn interrupted_run_resumes_only_the_missing_jobs() {
    let _faults = fault_free();
    let dir = scratch("resume");

    // "Interrupted" run: only the first two suite rows ever completed
    // (entries are persisted per job as each finishes, so a kill leaves
    // exactly the completed prefix-set behind).
    let partial = suite_jobs(SystemConfig::default(), SEED, 2);
    let (_, sims) = smoke_run(&partial, &Cache::open(&dir).unwrap());
    assert_eq!(sims, partial.len());

    // The restarted full smoke run re-executes only the third row.
    let full = suite_jobs(SystemConfig::default(), SEED, 3);
    let cache = Cache::open(&dir).unwrap();
    let (outcomes, sims) = smoke_run(&full, &cache);
    assert_eq!(sims, full.len() - partial.len());
    assert_eq!(cache.stats().hits, partial.len() as u64);
    assert!(outcomes.iter().all(|o| o.metrics().is_some()));

    // And the cost index now ranks every completed point for
    // longest-job-first scheduling of future sweeps.
    let index = cache.cost_index();
    for job in &full {
        let est = index.estimate(job).expect("every point indexed");
        assert_eq!(
            est,
            outcomes[full.iter().position(|j| j == job).unwrap()]
                .metrics()
                .unwrap()
                .cycles()
        );
    }
    let order = dmt_runner::cache::cost_order(&full.iter().collect::<Vec<_>>(), &index);
    let costs: Vec<u64> = order
        .iter()
        .map(|&i| index.estimate(&full[i]).unwrap())
        .collect();
    assert!(
        costs.windows(2).all(|w| w[0] >= w[1]),
        "schedule must be longest-first: {costs:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
