//! `table3_serial`: the 27-job Table 3 grid (9 benchmarks × 3 machines)
//! at the default Table 2 configuration, one thread, no cache — the
//! figure-reproduction path. One timed operation is one full pass.

use crate::layers::{self, Work};
use crate::span::{self_times, LayerTime, Tracer};
use crate::stats::{beyond, median, ms, peak_rss_mb, percentile};
use crate::{Ctx, Outcome, Window, SETUP_REPS};
use dmt_bench::{geomean_rows, RowOutcome};
use dmt_core::SystemConfig;
use dmt_kernels::Benchmark;
use dmt_obs::Obs;
use dmt_runner::{JobOutcome, JobSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// The reported tail percentile of the pass time.
const TAIL_PCT: f64 = 80.0;

/// The paper's Fig 11 / Fig 12 geomeans (MT-CGRA, dMT-CGRA over the SM).
const PAPER_SPEEDUP: [f64; 2] = [2.3, 4.5];
const PAPER_ENERGY: [f64; 2] = [3.5, 7.4];

/// The Table 3 grid at `seed`: benchmark-major, `Arch::ALL` minor.
pub fn jobs(seed: u64) -> Vec<JobSpec> {
    dmt_bench::suite_jobs(
        SystemConfig::default(),
        seed,
        dmt_kernels::suite::all().len(),
    )
}

/// One untraced pass: `Machine::run` and the output check per job.
pub fn pass_plain(
    benches: &[Box<dyn Benchmark>],
    jobs: &[JobSpec],
) -> Result<Vec<JobOutcome>, String> {
    jobs.iter()
        .enumerate()
        .map(|(i, spec)| {
            let bench = benches[i / dmt_core::Arch::ALL.len()].as_ref();
            layers::run_plain(bench, spec.arch, spec.cfg, spec.seed).map(JobOutcome::completed)
        })
        .collect()
}

/// One traced pass: every layer called one by one under its span, all
/// under one root span per pass.
fn pass_traced(
    benches: &[Box<dyn Benchmark>],
    jobs: &[JobSpec],
    tr: &mut Tracer,
    pass: u64,
) -> Result<Vec<JobOutcome>, String> {
    let root = tr.begin("table3.pass", pass << 16);
    let mut out = Vec::with_capacity(jobs.len());
    for (i, spec) in jobs.iter().enumerate() {
        let bench = benches[i / dmt_core::Arch::ALL.len()].as_ref();
        let id = (pass << 16) | i as u64;
        let (m, _) = layers::run_layered(
            bench,
            spec.arch,
            spec.cfg,
            spec.seed,
            tr,
            id,
            &mut Obs::disabled(),
        )?;
        out.push(JobOutcome::completed(m));
    }
    tr.end(root);
    Ok(out)
}

/// Fig 11 / Fig 12 geomeans of a Table 3 pass and the model's error
/// against the paper: mean over MT and dMT of |ln(measured ÷ paper)|.
pub struct PaperGap {
    pub speedup: [f64; 2],
    pub energy: [f64; 2],
}

impl PaperGap {
    pub fn of(jobs: &[JobSpec], outcomes: &[JobOutcome]) -> PaperGap {
        let rows = RowOutcome::from_jobs(jobs, outcomes);
        PaperGap {
            speedup: [
                geomean_rows(&rows, RowOutcome::mt_speedup),
                geomean_rows(&rows, RowOutcome::dmt_speedup),
            ],
            energy: [
                geomean_rows(&rows, RowOutcome::mt_efficiency),
                geomean_rows(&rows, RowOutcome::dmt_efficiency),
            ],
        }
    }

    fn gap(measured: [f64; 2], paper: [f64; 2]) -> f64 {
        ((measured[0] / paper[0]).ln().abs() + (measured[1] / paper[1]).ln().abs()) / 2.0
    }

    /// Sets both `paper_gap_*` metrics and a human-readable note.
    pub fn report(&self, out: &mut Outcome) {
        out.set("paper_gap_speedup", Self::gap(self.speedup, PAPER_SPEEDUP));
        out.set("paper_gap_energy", Self::gap(self.energy, PAPER_ENERGY));
        out.notes.push(format!(
            "paper gap (model vs paper, unvalidated against hardware): Fig 11 speedup MT {:.3} vs {}, \
             dMT {:.3} vs {}; Fig 12 energy MT {:.3} vs {}, dMT {:.3} vs {}",
            self.speedup[0],
            PAPER_SPEEDUP[0],
            self.speedup[1],
            PAPER_SPEEDUP[1],
            self.energy[0],
            PAPER_ENERGY[0],
            self.energy[1],
            PAPER_ENERGY[1]
        ));
    }
}

/// Sets the engine, compiler, kernel, energy and memory layer metrics
/// from per-pass span totals (`passes` traced passes) and the work
/// counts of one pass.
pub fn engine_layers(out: &mut Outcome, t: &BTreeMap<&str, LayerTime>, passes: f64, w: &Work) {
    let per_pass_ms = |name: &str| t.get(name).map_or(0.0, |x| x.self_ns as f64) / passes / 1e6;
    for (arch, pre) in [
        (dmt_core::Arch::MtCgra, "mt"),
        (dmt_core::Arch::DmtCgra, "dmt"),
    ] {
        let f = w.fabric(arch);
        let run_ms = per_pass_ms(layers::engine_span(arch));
        let set = |out: &mut Outcome, key: &str, v: f64| out.set(format!("fabric.{pre}.{key}"), v);
        set(out, "run_ms", run_ms);
        set(out, "events", f.events as f64);
        set(out, "ns_per_event", ns_per(run_ms, f.events));
        set(out, "tokens", f.tokens_total() as f64);
        set(out, "firings", f.firings as f64);
        set(out, "token_buffer_writes", f.token_buffer_writes as f64);
        set(out, "spills", f.spills as f64);
        set(out, "backpressure_cycles", f.backpressure_cycles as f64);
        set(out, "batched_share", f.batched_share());
    }
    out.set("fabric.dmt.elevator_ops", w.dmt.elevator_ops as f64);
    out.set("fabric.dmt.eldst_forwards", w.dmt.eldst_forwards as f64);
    let gpu_ms = per_pass_ms("gpu.run");
    out.set("gpu.run_ms", gpu_ms);
    out.set("gpu.warp_instructions", w.sm_warp_instructions as f64);
    out.set(
        "gpu.ns_per_warp_instr",
        ns_per(gpu_ms, w.sm_warp_instructions),
    );
    out.set("gpu.stall_cycles", w.sm_stall_cycles as f64);
    out.set("gpu.barrier_wait_cycles", w.sm_barrier_wait_cycles as f64);
    out.set("compiler.compile_ms", per_pass_ms("compiler.compile"));
    out.set(
        "compiler.replication_mean",
        layers::ratio(
            w.mt.replication_sum + w.dmt.replication_sum,
            w.fabric_jobs(),
        ),
    );
    out.set("dfg.build_ms", per_pass_ms("dfg.build"));
    out.set("kernels.workload_ms", per_pass_ms("kernels.workload"));
    out.set("kernels.check_ms", per_pass_ms("kernels.check"));
    out.set("energy.evaluate_us", per_pass_ms("energy.evaluate") * 1e3);
    out.set("mem.l1_hit_ratio", w.l1_hit_ratio());
    out.set("mem.l2_hit_ratio", w.l2_hit_ratio());
    out.set("mem.dram_lines", w.dram_lines() as f64);
    out.set(
        "mem.shared_bank_conflicts",
        w.mem.shared_bank_conflicts as f64,
    );
}

fn ns_per(total_ms: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ms * 1e6 / count as f64
    }
}

/// The batched-gate property and the human-readable work summary.
pub fn work_notes(out: &mut Outcome, w: &Work) {
    out.notes.push(format!(
        "batched gate (replication >= {}): MT {}/{} jobs, dMT {}/{} jobs",
        dmt_fabric::BATCH_MIN_REPLICATION,
        w.mt.batched_jobs,
        w.mt.jobs,
        w.dmt.batched_jobs,
        w.dmt.jobs
    ));
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let benches = dmt_kernels::suite::all();
    let jobs = jobs(ctx.seed);
    let mut out = Outcome::default();

    // Set-up: the untimed warm-up pass, which is also the reference
    // every later pass must reproduce exactly. Its repetitions are
    // spread over the window; each must reproduce the first.
    let mut window = Window::new(ctx.seconds);
    let reference = window.set_up(|| pass_plain(&benches, &jobs))?;
    let first_op_s = ctx.started.elapsed().as_secs_f64();
    let cycles: u64 = reference
        .iter()
        .filter_map(|o| o.metrics())
        .map(|m| m.cycles())
        .sum();

    // Timed window. Traced runs alternate traced and untraced passes so
    // the tracing overhead is measured under the same conditions.
    let mut tr = Tracer::new(ctx.trace, Instant::now(), 0);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut pass = 0u64;
    loop {
        if window.setup_due() {
            if window.set_up(|| pass_plain(&benches, &jobs))? != reference {
                return Err("a set-up pass differs from the first".into());
            }
            continue;
        }
        if window.done() && !plain_ms.is_empty() {
            break;
        }
        let traced = ctx.trace && pass % 2 == 1;
        let t = Instant::now();
        let outcomes = if traced {
            pass_traced(&benches, &jobs, &mut tr, pass)?
        } else {
            pass_plain(&benches, &jobs)?
        };
        let dt = ms(t.elapsed());
        if outcomes != reference {
            return Err(format!(
                "pass {pass} ({}) RunStats differ from Machine::run",
                if traced { "traced" } else { "untraced" }
            ));
        }
        if traced {
            &mut traced_ms
        } else {
            &mut plain_ms
        }
        .push(dt);
        pass += 1;
    }
    out.attempted = pass * jobs.len() as u64;

    let work = layers::profile_pass(&jobs, &reference, 1)?;
    let pass_ms = median(&plain_ms);
    out.set("setup_s", window.setup_s());
    out.set("peak_rss_mb", peak_rss_mb(None)?);
    out.set("op_p50_ms", pass_ms);
    out.set("op_tail_ms", percentile(&plain_ms, TAIL_PCT));
    out.set("sim_cycles_per_s", cycles as f64 / (pass_ms / 1e3));
    PaperGap::of(&jobs, &reference).report(&mut out);
    out.notes.push(format!(
        "table3_serial: suite_pass_ms p50 {pass_ms:.2}, p{TAIL_PCT} {:.2} ({} beyond, n={} passes); \
         sim_cycles_per_s {:.0}; setup {:.3} s (median of {SETUP_REPS}); start to first timed op {first_op_s:.3} s",
        percentile(&plain_ms, TAIL_PCT),
        beyond(&plain_ms, TAIL_PCT),
        plain_ms.len(),
        cycles as f64 / (pass_ms / 1e3),
        window.setup_s(),
    ));
    work_notes(&mut out, &work);
    out.notes.push(format!(
        "checks: {} jobs passed Benchmark::check; {SETUP_REPS} set-up passes identical; {pass} passes \
         ({} traced) with RunStats identical to the Machine::run reference; {} profiled jobs identical",
        out.attempted,
        traced_ms.len(),
        jobs.len(),
    ));

    if ctx.trace {
        let passes = traced_ms.len().max(1) as f64;
        let t = self_times(tr.spans());
        engine_layers(&mut out, &t, passes, &work);
        let root = t.get("table3.pass").copied().unwrap_or_default();
        let attributed: u64 = t.values().map(|x| x.self_ns).sum::<u64>() - root.self_ns;
        out.set("obs.unattributed_ms", root.self_ns as f64 / passes / 1e6);
        out.set(
            "obs.trace_overhead_frac",
            median(&traced_ms) / pass_ms - 1.0,
        );
        out.notes.push(format!(
            "trace: {} traced passes, wall {:.2} ms/pass = layers {:.2} + unattributed {:.3}",
            traced_ms.len(),
            root.total_ns as f64 / passes / 1e6,
            attributed as f64 / passes / 1e6,
            root.self_ns as f64 / passes / 1e6,
        ));
        out.zero_layers(&["runner.", "serve."]);
    }
    out.work = format!(
        "{{\"workload\":\"table3_serial\",\"seed\":{},\"jobs_per_pass\":{},\"sim_cycles\":{},\
         \"cache_probes\":0,\"cache_hits\":0,\"engines\":{}}}",
        ctx.seed,
        jobs.len(),
        cycles,
        work.json()
    );
    out.spans = tr.into_spans();
    Ok(out)
}
