//! Token-storm coverage for the MT-CGRA engine: many threads, a tiny
//! graph, one hot edge.
//!
//! A small kernel compiles at the replication cap (16 graph copies), so a
//! firing node emits up to 16 tokens per cycle down the *same* edge and
//! the default machine block-fires its pure compute nodes. The golden
//! fixture pins the storm's cycles, token counters and output checksum on
//! all three backends (regenerated with `DMT_UPDATE_GOLDEN=1`, like
//! `tests/golden_smoke.rs`); the oracle tests check the default machine
//! against the interpreter, and the fire-path test checks block-fire and
//! per-token firing are cycle- and byte-identical.

use dmt_core::common::geom::Dim3;
use dmt_core::common::ids::Addr;
use dmt_core::fabric::testutil::run_with_block_fire;
use dmt_core::fabric::{FabricMachine, BATCH_MIN_REPLICATION};
use dmt_core::{
    compiler, dfg::interp, Arch, Kernel, KernelBuilder, LaunchInput, Machine, MemImage,
    SystemConfig, Word,
};
use dmt_obs::{Obs, TraceEvent};

const THREADS: u32 = 512;

/// `out[tid] = tid*tid + tid` over a five-node graph: the thread-id value
/// fans out to both multiplier inputs, the adder and the address
/// computation, so each of its out-edges carries one token per thread —
/// `THREADS` tokens through a handful of edges, which delivery must keep
/// in per-edge FIFO order. Deliberately store-only: a single load/store
/// unit keeps the graph tiny enough to replicate past the block-fire
/// threshold (`storm_compiles_past_the_batching_threshold`).
fn storm_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("token_storm", Dim3::linear(THREADS));
    let out = kb.param("out");
    let tid = kb.thread_idx(0);
    let sq = kb.mul_i(tid, tid);
    let s = kb.add_i(sq, tid);
    let oa = kb.index_addr(out, tid, 4);
    kb.store_global(oa, s);
    kb.finish().expect("token-storm kernel is well-formed")
}

fn storm_input() -> (Vec<Word>, MemImage) {
    (
        vec![Word::from_u32(0)],
        MemImage::with_words(THREADS as usize),
    )
}

fn output_checksum(mem: &MemImage) -> u64 {
    mem.read_i32_slice(Addr(0), THREADS as usize)
        .iter()
        .fold(0u64, |h, &v| h.rotate_left(5) ^ u64::from(v as u32))
}

/// With `DMT_UPDATE_GOLDEN=1`, rewrites the fixture instead of comparing
/// (the test then trivially passes; review the diff before committing).
fn check_or_update(got: &str, want: &str, fixture: &str) {
    if std::env::var_os("DMT_UPDATE_GOLDEN").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(fixture);
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("updated {}", path.display());
        return;
    }
    assert!(
        got == want,
        "token-storm output drifted from the golden fixture {fixture} \
         (DMT_UPDATE_GOLDEN=1 regenerates after intentional changes)\n\
         --- got ---\n{got}\n--- want ---\n{want}"
    );
}

/// The storm on all three backends, pinned byte-for-byte: simulated
/// cycles, the token-traffic counters, and the output checksum.
#[test]
fn storm_report_is_byte_identical_to_fixture() {
    let kernel = storm_kernel();
    let cfg = SystemConfig::default();
    let mut got = format!("token_storm threads={THREADS}\n");
    for arch in Arch::ALL {
        let (params, mem) = storm_input();
        let report = Machine::new(arch, cfg)
            .run(&kernel, LaunchInput::new(params, mem))
            .unwrap_or_else(|e| panic!("token_storm on {arch}: {e}"));
        let s = &report.stats;
        got.push_str(&format!(
            "{:<8} cycles={} tokens_routed={} noc_hops={} token_buffer_writes={} \
             threads_retired={} checksum={:#018x}\n",
            arch.key(),
            s.cycles,
            s.tokens_routed,
            s.noc_hops,
            s.token_buffer_writes,
            s.threads_retired,
            output_checksum(&report.memory),
        ));
    }
    check_or_update(
        &got,
        include_str!("fixtures/token_storm.golden.txt"),
        "token_storm.golden.txt",
    );
}

/// The storm graph is small enough to replicate at the cap, which is past
/// the block-fire threshold — the default machine really does block-fire
/// on this fixture.
#[test]
fn storm_compiles_past_the_batching_threshold() {
    let cfg = SystemConfig::default();
    let program = compiler::compile(&storm_kernel(), &cfg).expect("compiles");
    assert!(
        program.replication >= BATCH_MIN_REPLICATION,
        "storm replication {} is below the block-fire threshold {}; the \
         fixture no longer exercises block-fire",
        program.replication,
        BATCH_MIN_REPLICATION
    );
}

/// Runs `kernel` on the default machine and checks its memory image
/// against the functional interpreter.
fn assert_matches_interpreter(name: &str, kernel: &Kernel, params: Vec<Word>, mem: MemImage) {
    let cfg = SystemConfig::default();
    let program = compiler::compile(kernel, &cfg).expect("compiles");
    let oracle = interp::run_ref(kernel, &params, &mem).expect("interp");
    let run = FabricMachine::new(cfg)
        .run(&program, LaunchInput::new(params, mem))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        run.memory, oracle.memory,
        "{name}: fabric diverges from interpreter"
    );
}

/// The default machine agrees with the functional interpreter on the
/// token-storm fixture.
#[test]
fn storm_matches_the_interpreter() {
    let (params, mem) = storm_input();
    assert_matches_interpreter("storm", &storm_kernel(), params, mem);
}

/// The default machine agrees with the functional interpreter on the
/// elevator-storm fixture.
#[test]
fn elevator_storm_matches_the_interpreter() {
    let (params, mem) = elevator_input();
    assert_matches_interpreter("elevator", &elevator_kernel(), params, mem);
}

/// The profiler's per-edge token aggregates and the tracer's sampled
/// token-window counters are two views of the same event stream: the
/// per-edge totals must equal the per-class totals, and the sampled
/// windows plus the final unflushed window must account for every token
/// (a block-fired node reports once per *token*, never once per block).
#[test]
fn profile_and_tracer_token_counts_agree() {
    let kernel = elevator_kernel();
    let cfg = SystemConfig::default();
    let program = compiler::compile(&kernel, &cfg).expect("compiles");
    let (params, mem) = elevator_input();
    let mut obs = Obs::new(true, true);
    FabricMachine::new(cfg)
        .run_observed(&program, LaunchInput::new(params, mem), &mut obs)
        .expect("observed run");

    let per_class: u64 = obs.profile.class_tokens.iter().sum();
    let per_edge: u64 = obs.profile.edge_tokens.values().sum();
    let sampled: u64 = obs
        .tracer
        .events()
        .filter_map(|e| match e {
            TraceEvent::Sample {
                direct,
                elevator,
                eldst,
                ..
            } => Some(direct + elevator + eldst),
            _ => None,
        })
        .sum();
    let pending: u64 = obs.pending_window_tokens().iter().sum();
    assert!(per_class > 0, "storm produced no tokens");
    assert_eq!(
        per_edge, per_class,
        "per-edge and per-class profile totals disagree"
    );
    assert_eq!(
        sampled + pending,
        per_class,
        "tracer windows lose or double-count tokens"
    );
    assert_eq!(obs.tracer.dropped(), 0, "ring overflow would void the sum");
}

/// The storm through an elevator: each thread receives its left
/// neighbour's loaded value, so the hot edges cross the re-tagging path
/// (dMT-only; the elevator itself always fires per token).
fn elevator_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("token_storm_elev", Dim3::linear(THREADS));
    let inp = kb.param("in");
    let out = kb.param("out");
    let tid = kb.thread_idx(0);
    let a = kb.index_addr(inp, tid, 4);
    let x = kb.load_global(a);
    let prev = kb.from_thread_or_const(
        x,
        dmt_core::common::geom::Delta::new(-1),
        Word::from_i32(0),
        Some(64),
    );
    let s = kb.add_i(prev, x);
    let oa = kb.index_addr(out, tid, 4);
    kb.store_global(oa, s);
    kb.finish().expect("well-formed")
}

fn elevator_input() -> (Vec<Word>, MemImage) {
    // Deterministic, sign-mixed data (no RNG needed for a fixture).
    let data: Vec<i32> = (0..THREADS as i32)
        .map(|i| (i.wrapping_mul(2_654_435_761u32 as i32)) >> 16)
        .collect();
    let mut mem = MemImage::with_words(2 * THREADS as usize);
    mem.write_i32_slice(Addr(0), &data);
    (vec![Word::from_u32(0), Word::from_u32(4 * THREADS)], mem)
}

/// Both fire paths — block-fire and per-token — on both storm fixtures:
/// each must match the interpreter oracle on memory, and the two must
/// agree byte-for-byte on `RunStats` and the rendered per-job profile
/// (the deterministic `BENCH_profile.json` body). The plain storm
/// replicates past `BATCH_MIN_REPLICATION`
/// (`storm_compiles_past_the_batching_threshold`), so block-fire
/// genuinely drains whole ready blocks; the elevator storm covers the
/// re-tagging path that must stay per-token mid-block.
#[test]
fn fire_paths_are_byte_identical() {
    let cfg = SystemConfig::default();
    let machine = FabricMachine::new(cfg);
    let fixtures = [
        ("storm", storm_kernel(), storm_input()),
        ("elevator", elevator_kernel(), elevator_input()),
    ];
    for (name, kernel, (params, mem)) in fixtures {
        let program = compiler::compile(&kernel, &cfg).expect("compiles");
        let oracle = interp::run_ref(&kernel, &params, &mem).expect("interp");
        let runs = [true, false].map(|block_fire| {
            let mut obs = Obs::new(false, true);
            let input = LaunchInput::new(params.clone(), mem.clone());
            let run = run_with_block_fire(&machine, &program, input, &mut obs, block_fire)
                .unwrap_or_else(|e| panic!("{name} block_fire={block_fire}: {e}"));
            assert_eq!(
                run.memory, oracle.memory,
                "{name} block_fire={block_fire} diverges from the interpreter"
            );
            (run.stats, obs.profile.to_json(10).render())
        });
        let [(block_stats, block_profile), (token_stats, token_profile)] = runs;
        assert_eq!(
            block_stats, token_stats,
            "{name}: fire paths disagree on RunStats"
        );
        assert_eq!(
            block_profile, token_profile,
            "{name}: fire paths disagree on the profile artifact"
        );
    }
}
