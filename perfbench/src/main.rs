//! `perfbench` — the repository benchmark program.
//!
//! ```text
//! perfbench --workload <table3_serial|grid_sweep|serve_closed_loop>
//!           --seed N --seconds S --trace <0|1> [--serve-bin PATH]
//! ```
//!
//! Every input is generated from `--seed`. The workload measures for
//! `--seconds`, checks every output, prints human-readable lines and the
//! deterministic work fingerprint (`work {...}`), and ends with one JSON
//! line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! With `--trace 0` the metrics are the end-to-end set, with `--trace 1`
//! the per-layer set from host-time spans (see README.md). Any failed
//! correctness check exits 1 without printing the JSON line.

mod grid;
mod layers;
mod serve;
mod span;
mod stats;
mod table3;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), in output order, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("sim_cycles_per_s", "1/s"),
    ("paper_gap_speedup", "ln-ratio"),
    ("paper_gap_energy", "ln-ratio"),
];

/// Per-layer metrics (`--trace 1`), in output order, with units. A
/// layer a workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fabric.mt.run_ms", "ms"),
    ("fabric.mt.events", "count"),
    ("fabric.mt.ns_per_event", "ns"),
    ("fabric.mt.tokens", "count"),
    ("fabric.mt.firings", "count"),
    ("fabric.mt.token_buffer_writes", "count"),
    ("fabric.mt.spills", "count"),
    ("fabric.mt.backpressure_cycles", "cycles"),
    ("fabric.mt.batched_share", "fraction"),
    ("fabric.dmt.run_ms", "ms"),
    ("fabric.dmt.events", "count"),
    ("fabric.dmt.ns_per_event", "ns"),
    ("fabric.dmt.tokens", "count"),
    ("fabric.dmt.firings", "count"),
    ("fabric.dmt.token_buffer_writes", "count"),
    ("fabric.dmt.spills", "count"),
    ("fabric.dmt.backpressure_cycles", "cycles"),
    ("fabric.dmt.batched_share", "fraction"),
    ("fabric.dmt.elevator_ops", "count"),
    ("fabric.dmt.eldst_forwards", "count"),
    ("gpu.run_ms", "ms"),
    ("gpu.warp_instructions", "count"),
    ("gpu.ns_per_warp_instr", "ns"),
    ("gpu.stall_cycles", "cycles"),
    ("gpu.barrier_wait_cycles", "cycles"),
    ("compiler.compile_ms", "ms"),
    ("compiler.replication_mean", "count"),
    ("dfg.build_ms", "ms"),
    ("kernels.workload_ms", "ms"),
    ("kernels.check_ms", "ms"),
    ("energy.evaluate_us", "us"),
    ("mem.l1_hit_ratio", "fraction"),
    ("mem.l2_hit_ratio", "fraction"),
    ("mem.dram_lines", "count"),
    ("mem.shared_bank_conflicts", "count"),
    ("runner.cache_lookup_us", "us"),
    ("runner.cache_store_us", "us"),
    ("runner.cache_hit_ratio", "fraction"),
    ("runner.entry_bytes", "bytes"),
    ("runner.pool_busy_frac", "fraction"),
    ("runner.artifact_render_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.status_us", "us"),
    ("serve.result_us", "us"),
    ("serve.polls_per_job", "count"),
    ("serve.exec_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.known", "count"),
    ("serve.rejections", "count"),
    ("serve.jobs_per_s", "1/s"),
    ("obs.trace_overhead_frac", "fraction"),
    ("obs.unattributed_ms", "ms"),
];

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs run, cache probes, requests sent).
    pub attempted: u64,
    /// Operations that failed or were refused (serve rejections).
    pub failed: u64,
    /// Metric values by name; `main` adds the units.
    pub metrics: BTreeMap<String, f64>,
    /// The deterministic work fingerprint (a JSON object).
    pub work: String,
    /// Human-readable report lines.
    pub notes: Vec<String>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<span::Span>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Sets every per-layer metric under `prefixes` that is still unset
    /// to 0: the workload never calls those layers.
    pub fn zero_layers(&mut self, prefixes: &[&str]) {
        for &(name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.metrics.entry(name.to_owned()).or_insert(0.0);
            }
        }
    }
}

/// A scratch directory under [`Ctx::out_dir`], removed on drop.
#[derive(Debug)]
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(path: PathBuf) -> Result<ScratchDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set-up repetitions per run of `table3_serial` and `grid_sweep`;
/// `setup_s` is their median. One repetition is a single 0.3 s pass, so
/// it takes this many to bring the median's run-to-run spread near that
/// of the pass time.
pub const SETUP_REPS: usize = 15;

/// The timed window of a run, with the set-up repetitions spread over
/// it: one before the first timed operation, the rest at even steps of
/// measured time (wall time outside set-up). `setup_s`, their median,
/// then samples the host over the same stretch as the timed operations
/// instead of only its first seconds.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    seconds: f64,
    setup: Vec<f64>,
}

impl Window {
    pub fn new(seconds: f64) -> Window {
        Window {
            start: Instant::now(),
            seconds,
            setup: Vec::with_capacity(SETUP_REPS),
        }
    }

    /// Seconds measured so far, set-up excluded.
    pub fn measured(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.setup.iter().sum::<f64>()
    }

    /// Whether the next set-up repetition is due.
    pub fn setup_due(&self) -> bool {
        let k = self.setup.len();
        k < SETUP_REPS && self.measured() >= k as f64 * self.seconds / SETUP_REPS as f64
    }

    /// Runs one set-up repetition and records its time.
    pub fn set_up<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let r = f()?;
        self.setup.push(t.elapsed().as_secs_f64());
        Ok(r)
    }

    /// Whether to stop: the time is measured and every set-up ran.
    pub fn done(&self) -> bool {
        self.setup.len() == SETUP_REPS && self.measured() >= self.seconds
    }

    /// `setup_s`: the median set-up time.
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setup)
    }
}

/// Parsed command line plus the derived run settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    /// Worker threads for pooled work: the host's available parallelism.
    pub threads: usize,
    /// Scratch directory for caches and span files, inside the working
    /// directory.
    pub out_dir: PathBuf,
    /// Process start, for the human-readable start-to-first-op time.
    pub started: Instant,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <table3_serial|grid_sweep|serve_closed_loop> \
         --seed N --seconds S --trace <0|1> [--serve-bin PATH]"
    );
    exit(2);
}

fn parse_args() -> Ctx {
    let started = Instant::now();
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut serve_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(seconds > 0.0 && seconds.is_finite()) {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value())),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Ctx {
        out_dir: PathBuf::from(".bench_out"),
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        workload,
        seed,
        seconds,
        trace,
        serve_bin,
        started,
    }
}

fn main() {
    let ctx = parse_args();
    let run = match ctx.workload.as_str() {
        "table3_serial" => table3::run(&ctx),
        "grid_sweep" => grid::run(&ctx),
        "serve_closed_loop" => serve::run(&ctx),
        other => usage(&format!("unknown workload {other:?}")),
    };
    let out = run.unwrap_or_else(|e| {
        eprintln!("perfbench: {}: check failed: {e}", ctx.workload);
        exit(1);
    });
    let table = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut rendered = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        match out.metrics.get(name) {
            Some(v) if v.is_finite() => {
                rendered.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
            other => {
                eprintln!("perfbench: metric {name} not measured ({other:?})");
                exit(1);
            }
        }
    }
    for line in &out.notes {
        println!("{line}");
    }
    println!("work {}", out.work);
    if ctx.trace {
        let path = ctx
            .out_dir
            .join(format!("spans-{}-{}.json", ctx.workload, ctx.seed));
        match span::write_chrome(&path, &out.spans) {
            Ok(()) => println!("spans: {} written to {}", out.spans.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                exit(1);
            }
        }
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        rendered.join(", ")
    );
}
