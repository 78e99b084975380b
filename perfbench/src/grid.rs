//! `grid_sweep`: the 18 fabric jobs (9 benchmarks × MT/dMT) at 4× the
//! Table 2 unit counts over several seeds, through `ExecPlan` on every
//! host core into a fresh result cache: a cold pass (every job simulates
//! and is stored), then warm passes (every job is a cache hit). One
//! timed operation is one warm pass; `sim_cycles_per_s` is taken on the
//! cold pass.

use crate::layers;
use crate::span::{self_times, Span, Tracer};
use crate::stats::{beyond, median, mix, ms, peak_rss_mb, percentile};
use crate::table3::{self, PaperGap};
use crate::{Ctx, Outcome, ScratchDir, Window, SETUP_REPS};
use dmt_core::{Arch, SystemConfig};
use dmt_runner::{Artifact, Cache, ExecPlan, JobOutcome, JobSpec};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Data seeds per sweep (18 jobs each).
const SEEDS: u64 = 4;
/// Warm passes after each cold pass.
const WARM_PASSES: usize = 10;
/// The reported tail percentile of the warm-pass time.
const TAIL_PCT: f64 = 80.0;

/// Table 2 with every unit count ×4 and the placement grid widened to
/// hold them.
pub fn config() -> SystemConfig {
    let mut cfg = SystemConfig::default();
    let g = &mut cfg.grid;
    for n in [
        &mut g.alus,
        &mut g.fpus,
        &mut g.specials,
        &mut g.ldsts,
        &mut g.sjus,
        &mut g.controls,
    ] {
        *n *= 4;
    }
    let units = f64::from(cfg.grid.total_units());
    cfg.fabric.grid_width = units.sqrt().ceil() as u32;
    cfg
}

/// The sweep grid: seed-major, then Table 3 order, then MT, dMT.
pub fn jobs(seed: u64) -> Vec<JobSpec> {
    let cfg = config();
    let benches = dmt_kernels::suite::all();
    (0..SEEDS)
        .map(|i| mix(seed ^ 0x0067_7269_6400_0000 ^ i) % 1_000_000)
        .flat_map(|s| {
            benches.iter().flat_map(move |b| {
                let name = b.info().name;
                [Arch::MtCgra, Arch::DmtCgra].map(|arch| JobSpec::new(name, arch, cfg, s))
            })
        })
        .collect::<Vec<_>>()
}

thread_local! {
    static THREAD: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

fn completed_cycles(outcomes: &[JobOutcome]) -> Result<u64, String> {
    outcomes
        .iter()
        .map(|o| {
            o.metrics()
                .map(dmt_runner::JobMetrics::cycles)
                .ok_or_else(|| format!("job did not complete: {o:?}"))
        })
        .sum()
}

fn render(jobs: &[JobSpec], outcomes: &[JobOutcome], threads: usize, seed: u64) -> String {
    Artifact::new(
        "grid_sweep",
        threads,
        0,
        seed,
        jobs.to_vec(),
        outcomes.to_vec(),
    )
    .to_json()
    .render()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let jobs = jobs(ctx.seed);
    let n = jobs.len();
    let threads = ctx.threads;
    let mut out = Outcome::default();
    let base = ctx.out_dir.join(format!("grid-{}", std::process::id()));

    // Set-up: the Table 3 reference pass (the paper gap at this seed)
    // and a fresh cache directory. Its repetitions are spread over the
    // window; each must reproduce the first.
    let _base = ScratchDir::new(base.clone())?;
    let benches = dmt_kernels::suite::all();
    let t3_jobs = table3::jobs(ctx.seed);
    let set_up = |k: usize| -> Result<Vec<JobOutcome>, String> {
        let outcomes = table3::pass_plain(&benches, &t3_jobs)?;
        let dir = ScratchDir::new(base.join(format!("setup{k}")))?;
        Cache::open(&dir.0).map_err(|e| format!("opening cache: {e}"))?;
        Ok(outcomes)
    };
    let mut window = Window::new(ctx.seconds);
    let t3_reference = window.set_up(|| set_up(0))?;
    let mut setups = 1;
    let first_op_s = ctx.started.elapsed().as_secs_f64();

    let mut tr = Tracer::new(ctx.trace, Instant::now(), 0);
    let epoch = tr.epoch();
    let worker_spans: Mutex<Vec<Span>> = Mutex::new(Vec::new());
    let mut reference: Option<(Vec<JobOutcome>, String)> = None;
    let (mut cold_plain, mut cold_traced, mut warm_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cycles_per_s, mut entry_bytes) = (Vec::new(), 0.0);
    let (mut hits, mut probes, mut executed_in_warm) = (0u64, 0u64, 0usize);
    let mut round = 0u64;
    let mut round_counts = None;
    loop {
        if window.setup_due() {
            if window.set_up(|| set_up(setups))? != t3_reference {
                return Err("a set-up pass differs from the first".into());
            }
            setups += 1;
            continue;
        }
        if window.done() && !cold_plain.is_empty() {
            break;
        }
        let traced = ctx.trace && round % 2 == 1;
        let mut off = Tracer::disabled();
        let rt = if traced { &mut tr } else { &mut off };
        let dir = ScratchDir::new(base.join(format!("r{round}")))?;
        let cache = Cache::open(&dir.0).map_err(|e| format!("opening cache: {e}"))?;
        let root = rt.begin("grid.round", round << 32);

        // Cold pass: every job simulates and is stored.
        let plan = rt.begin("runner.exec_plan", round << 32);
        let parent = rt.current();
        let t = Instant::now();
        let cold = if traced {
            ExecPlan::new(&jobs)
                .threads(threads)
                .cache(Some(&cache))
                .run_limited(|spec, _limits| {
                    let thread = THREAD.with(|t| *t);
                    let mut local = Tracer::with_parent(true, epoch, thread, parent);
                    let id =
                        (round << 32) | jobs.iter().position(|j| j == spec).unwrap_or(0) as u64;
                    let open = local.begin("runner.exec", id);
                    let outcome = layers::exec_layered(spec, &mut local, id);
                    local.end(open);
                    worker_spans
                        .lock()
                        .expect("span sink poisoned by a panicking worker")
                        .extend(local.into_spans());
                    outcome
                })
        } else {
            ExecPlan::new(&jobs)
                .threads(threads)
                .cache(Some(&cache))
                .run_limited(dmt_bench::execute_job_limited)
        };
        let cold_s = t.elapsed().as_secs_f64();
        rt.end(plan);
        let cycles = completed_cycles(&cold)?;
        let stored = cache.stats().stores;
        if stored != n as u64 {
            return Err(format!("cold pass stored {stored} of {n} jobs"));
        }
        let rendered = rt.time("runner.artifact_render", round << 32, || {
            render(&jobs, &cold, threads, ctx.seed)
        });
        match &reference {
            None => reference = Some((cold.clone(), rendered.clone())),
            Some((want, _)) if *want != cold => {
                return Err(format!(
                    "round {round} ({}) cold outcomes differ from round 0",
                    if traced { "traced" } else { "untraced" }
                ))
            }
            Some(_) => {}
        }
        if traced {
            cold_traced.push(cold_s);
        } else {
            cold_plain.push(cold_s);
            cycles_per_s.push(cycles as f64 / cold_s);
        }

        // Warm passes: every job is a cache hit; nothing may simulate.
        let executed = AtomicUsize::new(0);
        for w in 0..WARM_PASSES {
            let span = rt.begin("runner.warm_pass", (round << 32) | w as u64);
            let t = Instant::now();
            let warm = ExecPlan::new(&jobs)
                .threads(threads)
                .cache(Some(&cache))
                .run_limited(|_, _| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    JobOutcome::Failed("a warm pass simulated".into())
                });
            let dt = ms(t.elapsed());
            rt.end(span);
            if !traced {
                warm_ms.push(dt);
            }
            let same = rt.time("check.byte_identity", (round << 32) | w as u64, || {
                render(&jobs, &warm, threads, ctx.seed) == rendered
            });
            if !same {
                return Err(format!(
                    "round {round} warm pass {w} is not byte-identical to the cold pass"
                ));
            }
        }
        executed_in_warm += executed.load(Ordering::Relaxed);
        let s = cache.stats();
        hits += s.hits;
        probes += s.hits + s.misses;
        match round_counts {
            None => round_counts = Some((s.hits + s.misses, s.hits)),
            Some(c) if c != (s.hits + s.misses, s.hits) => {
                return Err(format!(
                    "round {round}: {} cache probes and {} hits, round 0: {} and {}",
                    s.hits + s.misses,
                    s.hits,
                    c.0,
                    c.1
                ))
            }
            Some(_) => {}
        }
        if round == 0 {
            let sizes: Vec<u64> = jobs
                .iter()
                .filter_map(|j| std::fs::metadata(cache.entry_path(j)).ok())
                .map(|m| m.len())
                .collect();
            entry_bytes = sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64;
        }
        rt.end(root);
        round += 1;
    }
    if executed_in_warm > 0 {
        return Err(format!(
            "{executed_in_warm} jobs simulated during warm passes"
        ));
    }
    let (reference, _) = reference.expect("at least one round ran");
    let (round_probes, round_hits) = round_counts.expect("at least one round ran");
    out.attempted = round * n as u64 * (1 + WARM_PASSES as u64);

    let work = layers::profile_pass(&jobs, &reference, threads)?;
    let cold_s = median(&cold_plain);
    let warm = median(&warm_ms);
    out.set("setup_s", window.setup_s());
    out.set("peak_rss_mb", peak_rss_mb(None)?);
    out.set("op_p50_ms", warm);
    out.set("op_tail_ms", percentile(&warm_ms, TAIL_PCT));
    out.set("sim_cycles_per_s", median(&cycles_per_s));
    PaperGap::of(&t3_jobs, &t3_reference).report(&mut out);
    out.notes.push(format!(
        "grid_sweep: {n} jobs on {threads} threads; sweep_cold_s p50 {cold_s:.3} (n={}); \
         sweep_warm_ms p50 {warm:.2}, p{TAIL_PCT} {:.2} ({} beyond, n={}); sim_cycles_per_s {:.0}; \
         setup {:.3} s (median of {SETUP_REPS}); start to first timed op {first_op_s:.3} s",
        cold_plain.len(),
        percentile(&warm_ms, TAIL_PCT),
        beyond(&warm_ms, TAIL_PCT),
        warm_ms.len(),
        median(&cycles_per_s),
        window.setup_s(),
    ));
    table3::work_notes(&mut out, &work);
    out.notes.push(format!(
        "checks: {} cold jobs passed Benchmark::check; {SETUP_REPS} set-up passes identical; \
         {round} rounds identical to round 0 (outcomes and cache probes); {} warm passes byte-identical to their cold pass with 0 simulations; {n} profiled jobs identical",
        round * n as u64,
        round * WARM_PASSES as u64,
    ));

    if ctx.trace {
        // Direct calls to the cache's public functions, outside the
        // rounds: one hit lookup and one store per job.
        let probe = tr.begin("runner.cache_probe", u64::MAX);
        let dir = ScratchDir::new(base.join("probe"))?;
        let cache = Cache::open(&dir.0).map_err(|e| format!("opening cache: {e}"))?;
        for (i, (spec, outcome)) in jobs.iter().zip(&reference).enumerate() {
            tr.time("runner.cache_store", i as u64, || {
                cache.store(spec, outcome)
            })
            .map_err(|e| format!("cache store: {e}"))?;
        }
        for (i, (spec, outcome)) in jobs.iter().zip(&reference).enumerate() {
            let found = tr.time("runner.cache_lookup", i as u64, || cache.lookup(spec));
            if found.as_ref() != Some(outcome) {
                return Err(format!(
                    "{spec}: cache lookup does not return the stored outcome"
                ));
            }
        }
        tr.end(probe);
        drop(dir);

        let mut spans = std::mem::replace(&mut tr, Tracer::disabled()).into_spans();
        spans.extend(worker_spans.into_inner().expect("span sink poisoned"));
        let t = self_times(&spans);
        let rounds = cold_traced.len().max(1) as f64;
        table3::engine_layers(&mut out, &t, rounds, &work);
        let per_call_us = |name: &str| {
            t.get(name)
                .map_or(0.0, |x| x.total_ns as f64 / x.calls.max(1) as f64 / 1e3)
        };
        out.set("runner.cache_lookup_us", per_call_us("runner.cache_lookup"));
        out.set("runner.cache_store_us", per_call_us("runner.cache_store"));
        out.set("runner.cache_hit_ratio", layers::ratio(hits, probes));
        out.set("runner.entry_bytes", entry_bytes);
        let busy_ns = t.get("runner.exec").map_or(0, |x| x.total_ns) as f64;
        let cold_traced_ns: f64 = cold_traced.iter().sum::<f64>() * 1e9;
        out.set(
            "runner.pool_busy_frac",
            busy_ns / (threads as f64 * cold_traced_ns),
        );
        out.set(
            "runner.artifact_render_ms",
            per_call_us("runner.artifact_render") / 1e3,
        );
        let root = t.get("grid.round").copied().unwrap_or_default();
        out.set("obs.unattributed_ms", root.self_ns as f64 / rounds / 1e6);
        out.set(
            "obs.trace_overhead_frac",
            median(&cold_traced) / cold_s - 1.0,
        );
        out.notes.push(format!(
            "trace: {} traced rounds; cold pass {:.1} ms with the pool busy {:.0}% of {threads} workers; \
             round wall {:.1} ms, unattributed {:.3} ms",
            cold_traced.len(),
            median(&cold_traced) * 1e3,
            100.0 * busy_ns / (threads as f64 * cold_traced_ns),
            root.total_ns as f64 / rounds / 1e6,
            root.self_ns as f64 / rounds / 1e6,
        ));
        out.zero_layers(&["gpu.", "serve."]);
        out.spans = spans;
    }
    out.work = format!(
        "{{\"workload\":\"grid_sweep\",\"seed\":{},\"jobs_per_pass\":{n},\"sim_cycles\":{},\
         \"cache_probes_per_round\":{},\"cache_hits_per_round\":{},\"engines\":{}}}",
        ctx.seed,
        work.cycles(),
        round_probes,
        round_hits,
        work.json()
    );
    Ok(out)
}
