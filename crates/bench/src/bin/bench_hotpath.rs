//! `bench_hotpath` — simulator-throughput benchmark for the cycle engines.
//!
//! Measures *simulator wall-clock*, not architectural cycles: how many
//! simulated cycles per second each engine sustains on the smoke suite
//! (the first three Table 3 benchmarks × all three machines), plus the
//! end-to-end serial wall time of `fig11_speedup --smoke --threads 1` —
//! the quantity the hot-path overhaul (window-indexed matching stores,
//! calendar-queue events, active-node firing) is gated on.
//!
//! Emits `BENCH_hotpath.json` (default `artifacts/BENCH_hotpath.json`;
//! override with `--json PATH`):
//!
//! ```json
//! {
//!   "schema_version": 3,
//!   "kind": "bench_hotpath",
//!   "iters": 3,
//!   "baseline": { ... the vendored pre-overhaul measurement ... },
//!   "total": {
//!     "wall_us": ...,            // best-of-iters serial smoke wall time
//!     "sim_cycles": ...,         // summed per-job cycles (deterministic)
//!     "sim_cycles_per_sec": ...,
//!     "speedup_vs_baseline": ...  // baseline.wall_us / total.wall_us
//!   },
//!   "archs": {                   // smoke-scope per-arch aggregates
//!     "fermi_sm":  {"sim_cycles": ..., "wall_us": ..., "sim_cycles_per_sec": ...},
//!     "mt_cgra":   { ..., "fire_event_share": 0.27 },
//!     "dmt_cgra":  { ... }
//!   },
//!   "mt_vs_sm_slowdown": ...,    // fermi_sm cyc/s ÷ mt_cgra cyc/s
//!   "jobs": [ {"bench", "arch", "cycles", "wall_us", "sim_cycles_per_sec"}, ... ]
//! }
//! ```
//!
//! Schema v2 added the `archs` block and the `mt_vs_sm_slowdown` ratio
//! (every v1 field unchanged): per-architecture sim-throughput over the
//! smoke per-job set, the series `ci/arch_gate.py` gates on and
//! `ci/trajectory.py` records push over push. Like `total`, the block
//! keeps the smoke scope even under `--full` so history stays
//! like-for-like.
//!
//! Schema v3 (every v2 field unchanged) records `fire_event_share` per
//! fabric arch, a fire-loop share estimate from the hot-spot profiler's
//! counters on one untimed observed pass: node firings ÷ (node firings +
//! calendar-scheduled events) — the fraction of per-cycle engine work
//! spent firing nodes as opposed to handling scheduled events (token
//! deliveries, unit releases, thread retirements). `fermi_sm` reports no
//! share (the SM engine has no calendar).
//!
//! The baseline block is the pre-rewrite engine measured on the same
//! suite (`crates/bench/baselines/hotpath_serial.json`); the recorded
//! speedup is meaningful on comparable hardware and indicative anywhere.
//! `--iters N` (default 3) controls the best-of-N repetition.
//!
//! `--full` extends per-job coverage from the smoke trio to the whole
//! Table 3 suite (all nine benchmarks × three machines). The headline
//! `total` block and its baseline comparison always stay the serial
//! *smoke* measurement — the quantity the vendored baseline was captured
//! for and CI trends — so `--full` adds information without moving the
//! comparable number. It is intended for local profiling and scheduled
//! (non-gating) CI, not the push-path `bench-artifact` job.

use dmt_bench::{run_jobs_observed, run_suite_pooled, suite_jobs, try_run_one, SEED};
use dmt_core::{Arch, SystemConfig};
use dmt_kernels::suite;
use dmt_runner::artifact::{write_json_logged, Json};
use dmt_runner::{Flag, RunnerArgs};
use std::path::PathBuf;
use std::time::Instant;

/// The pre-overhaul serial measurement this binary reports speedup over.
const BASELINE: &str = include_str!("../../baselines/hotpath_serial.json");

/// Benchmarks in the smoke per-job set (the vendored baseline's scope).
const SMOKE_BENCHES: usize = 3;

/// Binary-specific flags, composing with the shared runner registry.
const FLAGS: &[Flag] = &[
    Flag::with_value("--iters", "N", "best-of-N timing repetitions (default 3)"),
    Flag::switch("--full", "per-job coverage of the whole Table 3 suite"),
];

struct Args {
    json: PathBuf,
    iters: u32,
    full: bool,
}

fn parse_args() -> Args {
    let args = RunnerArgs::from_env_registry(FLAGS);
    args.forbid_trace("bench_hotpath");
    args.forbid_deadline("bench_hotpath");
    // A throughput benchmark is serial and uncached by construction:
    // a cache hit or a second worker would time the wrong thing.
    args.forbid_threads("bench_hotpath");
    args.forbid_cache("bench_hotpath");
    args.forbid_progress("bench_hotpath");
    args.forbid_smoke("bench_hotpath");
    if let Some(first) = args.rest.first() {
        eprintln!("error: unknown argument {first:?}");
        std::process::exit(2);
    }
    let iters = match args.flag_value("--iters").map(str::parse::<u32>) {
        None => 3,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("error: --iters requires a positive integer");
            std::process::exit(2);
        }
    };
    let full = args.has_flag("--full");
    Args {
        json: args
            .json
            .unwrap_or_else(|| PathBuf::from("artifacts/BENCH_hotpath.json")),
        iters,
        full,
    }
}

fn main() {
    let args = parse_args();
    let baseline = Json::parse(BASELINE).expect("vendored baseline parses");
    let base_wall = baseline
        .get("wall_us")
        .and_then(Json::as_u64)
        .expect("baseline wall_us");
    let cfg = SystemConfig::default();

    // Per-job throughput: best-of-iters wall time for each (bench, arch)
    // — the smoke trio by default, the full Table 3 suite with --full.
    let take = if args.full { usize::MAX } else { SMOKE_BENCHES };
    let mut jobs = Vec::new();
    // Per-arch smoke-scope aggregates (cycles, wall) in Arch::ALL order.
    let mut arch_cycles = [0u64; Arch::ALL.len()];
    let mut arch_us = [0u64; Arch::ALL.len()];
    for (bi, b) in suite::all().into_iter().take(take).enumerate() {
        let name = b.info().name;
        for (ai, arch) in Arch::ALL.into_iter().enumerate() {
            let mut best_us = u64::MAX;
            let mut cycles = 0u64;
            for _ in 0..args.iters {
                let t = Instant::now();
                let report = try_run_one(b.as_ref(), arch, cfg, SEED)
                    .unwrap_or_else(|e| panic!("{name} on {arch}: {e}"));
                best_us = best_us.min(elapsed_us(t));
                cycles = report.stats.cycles;
            }
            println!(
                "{name:>12} {arch:<8} {cycles:>8} cycles in {best_us:>7} us ({:>10.0} cyc/s)",
                cps(cycles, best_us)
            );
            // The aggregates keep the smoke scope even under --full, like
            // the headline total, so the gated series is like-for-like.
            if bi < SMOKE_BENCHES {
                arch_cycles[ai] += cycles;
                arch_us[ai] += best_us;
            }
            jobs.push(
                Json::obj()
                    .with("bench", name)
                    .with("arch", arch.key())
                    .with("cycles", cycles)
                    .with("wall_us", best_us)
                    .with("sim_cycles_per_sec", cps(cycles, best_us)),
            );
        }
    }

    // Schema v3: a per-fabric-arch fire-loop share estimate from one
    // untimed observed pass over the smoke grid (profiling is excluded from every timed measurement).
    let (obs_run, observations) =
        run_jobs_observed(suite_jobs(cfg, SEED, SMOKE_BENCHES), SEED, 1, false, true);
    let mut arch_fires = [0u64; Arch::ALL.len()];
    let mut arch_sched = [0u64; Arch::ALL.len()];
    for (spec, obs) in obs_run.jobs.iter().zip(&observations) {
        let ai = Arch::ALL
            .iter()
            .position(|a| *a == spec.arch)
            .expect("suite arch");
        arch_fires[ai] += obs.profile.node_fires.values().sum::<u64>();
        arch_sched[ai] += obs.profile.calendar_scheduled;
    }

    let mut archs = Json::obj();
    for (ai, arch) in Arch::ALL.into_iter().enumerate() {
        let mut rec = Json::obj()
            .with("sim_cycles", arch_cycles[ai])
            .with("wall_us", arch_us[ai])
            .with("sim_cycles_per_sec", cps(arch_cycles[ai], arch_us[ai]));
        if arch != Arch::FermiSm {
            let denom = arch_fires[ai] + arch_sched[ai];
            if denom > 0 {
                rec = rec.with("fire_event_share", arch_fires[ai] as f64 / denom as f64);
            }
        }
        archs = archs.with(arch.key(), rec);
    }
    let sm_cps = cps(arch_cycles[0], arch_us[0]);
    let mt_cps = cps(arch_cycles[1], arch_us[1]);
    let mt_vs_sm = if mt_cps > 0.0 { sm_cps / mt_cps } else { 0.0 };
    println!(
        "per-arch smoke throughput: SM {sm_cps:.0} cyc/s, MT-CGRA {mt_cps:.0} cyc/s \
         ({mt_vs_sm:.2}x slower), dMT-CGRA {:.0} cyc/s",
        cps(arch_cycles[2], arch_us[2])
    );

    // The headline quantity: the whole smoke suite, serially, in-process —
    // the same work `fig11_speedup --smoke --threads 1` performs. This
    // stays the smoke scope even under --full so the baseline comparison
    // and the CI trajectory remain like-for-like.
    let mut total_us = u64::MAX;
    let mut total_cycles = 0u64;
    for _ in 0..args.iters {
        let t = Instant::now();
        let run = run_suite_pooled(cfg, SEED, SMOKE_BENCHES, 1, None, None);
        total_us = total_us.min(elapsed_us(t));
        total_cycles = run
            .outcomes
            .iter()
            .filter_map(|o| o.metrics().map(|m| m.cycles()))
            .sum();
    }
    let speedup = base_wall as f64 / total_us as f64;
    println!(
        "\nsmoke suite serial: {total_cycles} sim cycles in {total_us} us \
         ({:.0} cyc/s) — {speedup:.2}x vs pre-overhaul baseline ({base_wall} us)",
        cps(total_cycles, total_us)
    );

    let doc = Json::obj()
        .with("schema_version", 3u64)
        .with("generator", "bench_hotpath")
        .with("kind", "bench_hotpath")
        .with("iters", u64::from(args.iters))
        .with("full", args.full)
        .with("baseline", baseline)
        .with(
            "total",
            Json::obj()
                .with("wall_us", total_us)
                .with("sim_cycles", total_cycles)
                .with("sim_cycles_per_sec", cps(total_cycles, total_us))
                .with("speedup_vs_baseline", speedup),
        )
        .with("archs", archs)
        .with("mt_vs_sm_slowdown", mt_vs_sm)
        .with("jobs", Json::Arr(jobs));
    write_json_logged(&args.json, &doc);
}

fn elapsed_us(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn cps(cycles: u64, us: u64) -> f64 {
    if us == 0 {
        0.0
    } else {
        cycles as f64 * 1e6 / us as f64
    }
}
