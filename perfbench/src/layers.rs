//! One job, run the way `Machine::run` runs it but one layer call at a
//! time, so each call can be timed from outside its crate; plus the
//! untimed profiled pass that yields the deterministic work counts.

use crate::span::Tracer;
use dmt_common::stats::RunStats;
use dmt_common::RunLimits;
use dmt_core::{Arch, SystemConfig};
use dmt_energy::EnergyModel;
use dmt_fabric::{FabricMachine, BATCH_MIN_REPLICATION};
use dmt_gpu::GpuMachine;
use dmt_kernels::Benchmark;
use dmt_obs::{EdgeClass, Obs};
use dmt_runner::{JobMetrics, JobOutcome, JobSpec};

/// The span name of the engine layer that runs `arch`.
pub fn engine_span(arch: Arch) -> &'static str {
    match arch {
        Arch::FermiSm => "gpu.run",
        Arch::MtCgra => "fabric.mt.run",
        Arch::DmtCgra => "fabric.dmt.run",
    }
}

/// The Table 3 benchmark named `name`.
pub fn bench_named(name: &str) -> Result<Box<dyn Benchmark>, String> {
    dmt_kernels::suite::all()
        .into_iter()
        .find(|b| b.info().name == name)
        .ok_or_else(|| format!("unknown benchmark {name:?}"))
}

/// `Machine::run` in one call, then the output check: the untraced path
/// the experiment binaries take (`dmt_bench::try_run_one`, which panics
/// on a wrong result, so a wrong result ends the run without a result).
pub fn run_plain(
    bench: &dyn Benchmark,
    arch: Arch,
    cfg: SystemConfig,
    seed: u64,
) -> Result<JobMetrics, String> {
    dmt_bench::try_run_one(bench, arch, cfg, seed)
        .map(|report| JobMetrics::from_report(&report))
        .map_err(|e| format!("{} on {arch}: {e}", bench.info().name))
}

/// The same job as [`run_plain`], calling each layer's public function
/// in turn under its own span: kernel build, workload generation,
/// compile (fabric only), the engine's `run_limited`, the energy model
/// and the output check. The engine reports into `obs` (disabled except
/// in the profiled pass). Returns the metrics and, for fabric jobs, the
/// compiled replication factor.
pub fn run_layered(
    bench: &dyn Benchmark,
    arch: Arch,
    cfg: SystemConfig,
    seed: u64,
    tr: &mut Tracer,
    id: u64,
    obs: &mut Obs,
) -> Result<(JobMetrics, Option<u32>), String> {
    let name = bench.info().name;
    let err = |e: dmt_common::Error| format!("{name} on {arch}: {e}");
    let kernel = tr.time("dfg.build", id, || match arch {
        Arch::DmtCgra => bench.dmt_kernel(),
        Arch::FermiSm | Arch::MtCgra => bench.shared_kernel(),
    });
    let input = tr.time("kernels.workload", id, || bench.workload(seed).launch());
    let limits = RunLimits::unlimited();
    let (memory, stats, replication) = match arch {
        Arch::FermiSm => {
            let run = tr.time(engine_span(arch), id, || {
                GpuMachine::new(cfg).run_limited(&kernel, input, obs, &limits)
            });
            let run = run.map_err(err)?;
            (run.memory, run.stats, None)
        }
        Arch::MtCgra | Arch::DmtCgra => {
            if arch == Arch::MtCgra && kernel.uses_inter_thread_comm() {
                return Err(format!(
                    "{name}: shared variant uses inter-thread communication"
                ));
            }
            let program = tr
                .time("compiler.compile", id, || {
                    dmt_compiler::compile(&kernel, &cfg)
                })
                .map_err(err)?;
            let run = tr.time(engine_span(arch), id, || {
                FabricMachine::new(cfg).run_limited(&program, input, obs, &limits)
            });
            let run = run.map_err(err)?;
            (run.memory, run.stats, Some(program.replication))
        }
    };
    let energy = tr.time("energy.evaluate", id, || {
        EnergyModel::default().evaluate(arch.kind(), &stats, cfg.clocks.core_ghz)
    });
    tr.time("kernels.check", id, || bench.check(seed, &memory))
        .map_err(|e| format!("{name} on {arch}: wrong result: {e}"))?;
    let metrics = JobMetrics {
        kernel: kernel.name().to_owned(),
        stats,
        energy,
    };
    Ok((metrics, replication))
}

/// [`run_layered`] as an `ExecPlan` executor: a wrong or failed job
/// becomes a `Failed` outcome, which the workload then rejects.
pub fn exec_layered(spec: &JobSpec, tr: &mut Tracer, id: u64) -> JobOutcome {
    let run = bench_named(&spec.bench).and_then(|b| {
        run_layered(
            b.as_ref(),
            spec.arch,
            spec.cfg,
            spec.seed,
            tr,
            id,
            &mut Obs::disabled(),
        )
    });
    match run {
        Ok((metrics, _)) => JobOutcome::completed(metrics),
        Err(e) => JobOutcome::Failed(e),
    }
}

/// Deterministic work counts of one fabric architecture over a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricWork {
    pub jobs: u64,
    /// Jobs compiled at replication ≥ `BATCH_MIN_REPLICATION`.
    pub batched_jobs: u64,
    pub replication_sum: u64,
    pub cycles: u64,
    /// Calendar events scheduled.
    pub events: u64,
    /// Tokens by `EdgeClass` (direct, elevator, eldst).
    pub tokens: [u64; 3],
    pub firings: u64,
    pub spills: u64,
    pub token_buffer_writes: u64,
    pub backpressure_cycles: u64,
    pub elevator_ops: u64,
    pub eldst_forwards: u64,
}

impl FabricWork {
    pub fn batched_share(&self) -> f64 {
        ratio(self.batched_jobs, self.jobs)
    }

    pub fn tokens_total(&self) -> u64 {
        self.tokens.iter().sum()
    }

    fn add(&mut self, replication: u32, stats: &RunStats, obs: &Obs) {
        let p = &obs.profile;
        self.jobs += 1;
        self.batched_jobs += u64::from(replication >= BATCH_MIN_REPLICATION);
        self.replication_sum += u64::from(replication);
        self.cycles += stats.cycles;
        self.events += p.calendar_scheduled;
        for c in EdgeClass::ALL {
            self.tokens[c as usize] += p.class_tokens[c as usize];
        }
        self.firings += p.node_fires.values().sum::<u64>();
        self.spills += p.spills.iter().sum::<u64>();
        self.token_buffer_writes += stats.token_buffer_writes;
        self.backpressure_cycles += stats.backpressure_cycles;
        self.elevator_ops += stats.elevator_ops;
        self.eldst_forwards += stats.eldst_forwards;
    }
}

/// Deterministic work counts of a pass: per fabric architecture, the
/// SM, and the memory system (summed over every job).
#[derive(Debug, Clone, Default)]
pub struct Work {
    pub mt: FabricWork,
    pub dmt: FabricWork,
    pub sm_jobs: u64,
    pub sm_cycles: u64,
    pub sm_warp_instructions: u64,
    pub sm_stall_cycles: u64,
    pub sm_barrier_wait_cycles: u64,
    pub mem: RunStats,
}

impl Work {
    pub fn fabric(&self, arch: Arch) -> &FabricWork {
        if arch == Arch::MtCgra {
            &self.mt
        } else {
            &self.dmt
        }
    }

    pub fn fabric_jobs(&self) -> u64 {
        self.mt.jobs + self.dmt.jobs
    }

    pub fn cycles(&self) -> u64 {
        self.mt.cycles + self.dmt.cycles + self.sm_cycles
    }

    pub fn l1_hit_ratio(&self) -> f64 {
        ratio(self.mem.l1_hits, self.mem.l1_hits + self.mem.l1_misses)
    }

    pub fn l2_hit_ratio(&self) -> f64 {
        ratio(self.mem.l2_hits, self.mem.l2_hits + self.mem.l2_misses)
    }

    pub fn dram_lines(&self) -> u64 {
        self.mem.dram_reads + self.mem.dram_writes
    }

    /// The fingerprint line printed beside the timings.
    pub fn json(&self) -> String {
        let fab = |f: &FabricWork| {
            format!(
                "{{\"jobs\":{},\"batched_jobs\":{},\"cycles\":{},\"events\":{},\
                 \"tokens_direct\":{},\"tokens_elevator\":{},\"tokens_eldst\":{},\
                 \"firings\":{},\"spills\":{}}}",
                f.jobs,
                f.batched_jobs,
                f.cycles,
                f.events,
                f.tokens[EdgeClass::Direct as usize],
                f.tokens[EdgeClass::Elevator as usize],
                f.tokens[EdgeClass::Eldst as usize],
                f.firings,
                f.spills
            )
        };
        format!(
            "{{\"mt_cgra\":{},\"dmt_cgra\":{},\"fermi_sm\":{{\"jobs\":{},\"cycles\":{},\
             \"warp_instructions\":{}}}}}",
            fab(&self.mt),
            fab(&self.dmt),
            self.sm_jobs,
            self.sm_cycles,
            self.sm_warp_instructions
        )
    }
}

/// Runs every job once with the profiler on (untimed) and sums the work
/// counts. Each job's `RunStats` must equal `expected` for the same
/// index: observation must not change results.
pub fn profile_pass(
    jobs: &[JobSpec],
    expected: &[JobOutcome],
    threads: usize,
) -> Result<Work, String> {
    let per_job = dmt_runner::run_indexed(jobs.len(), threads, |i| {
        let spec = &jobs[i];
        let bench = bench_named(&spec.bench)?;
        let mut obs = Obs::new(false, true);
        let (metrics, replication) = run_layered(
            bench.as_ref(),
            spec.arch,
            spec.cfg,
            spec.seed,
            &mut Tracer::disabled(),
            0,
            &mut obs,
        )?;
        Ok::<_, String>((metrics.stats, replication.unwrap_or(0), obs))
    });
    let mut work = Work::default();
    for ((spec, want), got) in jobs.iter().zip(expected).zip(per_job) {
        let (stats, replication, obs) = got?;
        if want.metrics().map(|m| &m.stats) != Some(&stats) {
            return Err(format!(
                "{spec}: profiled run stats differ from the timed run"
            ));
        }
        work.mem += stats.clone();
        match spec.arch {
            Arch::FermiSm => {
                work.sm_jobs += 1;
                work.sm_cycles += stats.cycles;
                work.sm_warp_instructions += stats.gpu_instructions;
                work.sm_stall_cycles += stats.gpu_stall_cycles;
                work.sm_barrier_wait_cycles += stats.barrier_wait_cycles;
            }
            Arch::MtCgra => work.mt.add(replication, &stats, &obs),
            Arch::DmtCgra => work.dmt.add(replication, &stats, &obs),
        }
    }
    work.mem.per_phase.clear();
    Ok(work)
}

pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
