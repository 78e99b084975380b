//! The cycle-level MT-CGRA / dMT-CGRA execution engine.
//!
//! The machine executes a [`FabricProgram`] with dynamic tagged-token
//! dataflow (§3): every token carries its thread id as a tag; per-node
//! matching stores collect operand sets; a node fires at most one operation
//! per cycle; fired tokens traverse the statically-routed NoC with
//! per-edge hop latency. Threads are injected one per cycle (configurable)
//! subject to the in-flight window, and a barrier-delimited phase ends when
//! the fabric drains.
//!
//! Elevator nodes re-tag tokens between threads, and eLDST units forward
//! loaded values to later threads, exactly as in the paper's Fig 8/9
//! pseudo-code. Both are functionally identical to — and tested against —
//! the reference interpreter in `dmt-dfg`.
//!
//! # Hot-path structure
//!
//! The engine's per-cycle work is dominated by three structures, all
//! chosen so the common case is an array index, not a hash or a heap:
//!
//! * **Window-indexed matching stores.** Tokens are tagged with thread
//!   ids, and the injector admits thread `t` only after thread
//!   `t − inflight_threads` retired, so the set of tids that can hold
//!   matching-store state at one instant is bounded by the in-flight
//!   window (plus the total elevator/eLDST re-tag distance, which can
//!   briefly keep a stale tid's partial set alive past its retirement).
//!   Each node's store is therefore a power-of-two ring of slots indexed
//!   `tid & mask`, each slot tagged with the owning tid; the ring is
//!   sized to `min(window, threads) + 2·Σ|shift|` so distinct live tids
//!   map to distinct slots. A tid whose slot is held by another live tid
//!   — possible only if that bound is ever exceeded — falls back to a
//!   per-node spill map, preserving exact tagged-token semantics in all
//!   cases; the ring is an optimization, never a correctness assumption.
//! * **Calendar event queue.** Almost every scheduled event (NoC
//!   delivery, unit latency, cache hit) lands a small bounded number of
//!   cycles ahead, so events live in a bucket-per-cycle wheel
//!   ([`dmt_common::sched::CalendarQueue`]) with O(1) schedule/pop; rare
//!   far-future completions (contended DRAM) overflow to a heap. The
//!   queue pops in ascending `(cycle, insertion order)` — byte-identical
//!   to the `BinaryHeap<(cycle, seq, ev)>` it replaced, since the
//!   monotonic `seq` made per-cycle ordering FIFO already. That ordering
//!   contract is what keeps per-job cycles/energy/stats reproducible.
//! * **Active-node firing.** Instead of scanning every graph node every
//!   cycle, a bitmask tracks nodes with complete operand sets; firing
//!   iterates set bits in ascending node order (the same order the full
//!   scan used), so drained nodes cost nothing.
//! * **Per-token delivery.** Every token a firing fans out is one
//!   calendar event, and so is every bookkeeping event (unit releases,
//!   sink completions, the eLDST offer/produce hops). Events due in one
//!   cycle are handled in schedule order, so every matching store
//!   observes its tokens in per-edge FIFO order. Each event is exactly
//!   one calendar entry, which makes the pending-event count a
//!   conservation law the engine asserts every cycle in debug builds
//!   (`seq − handled == calendar length`). Coalescing each `(edge,
//!   arrival cycle)` into one batched calendar entry was tried and lost:
//!   on the benchmark's `grid_sweep` workload (2-core host, traced, 3
//!   rounds) it took MT-CGRA engine time to 698–775 ms against 499–645 ms
//!   per token, for the same work.
//! * **Block-fired compute nodes.** A replicated node holds up to `R`
//!   ready operand sets per cycle, all executing the *same static
//!   operation* — the paper's premise, and what makes block execution
//!   legal. On programs compiled at replication ≥
//!   [`BATCH_MIN_REPLICATION`], a pure compute node (`Alu`/`Fpu`/
//!   `Special`/`Ctrl`/`Unary`/`Select`/`Join`/`Split`) drains its whole
//!   firing quota into reused SoA scratch and evaluates it in one tight
//!   loop with the `NodeKind` dispatch, the unit-class/latency lookup,
//!   the stat-counter increment and the `Obs::node_fire` upkeep hoisted
//!   out per block; results fan out edge-major through one
//!   `send_block` call instead of one `send` per token. Two invariants
//!   make this exact:
//!   - *Same-cycle readiness cannot change mid-block.* All deliveries
//!     due in a cycle complete (step 1 of the cycle loop) before any
//!     node fires (step 3), and every token a firing emits lands at
//!     `now + 1` or later — so the ready queue a node sees at its firing
//!     slot is frozen for the cycle, and draining `k` entries up front
//!     observes exactly the tokens the per-token loop would have popped
//!     one by one.
//!   - *The stall-requeue FIFO rule.* Memory, eLDST and elevator nodes
//!     keep the per-token path: a structural stall (MSHR or LDST queue
//!     full) can interrupt them mid-quota, and the stalled token is
//!     pushed back at the *front* of the ready queue, so the queue stays
//!     in FIFO order and the next cycle retries the same token first.
//!     Pure nodes can never stall, which is why only they block-fire —
//!     a drained block always completes.
//!
//!   Edge-major fan-out reorders a block's tokens *across* edges, never
//!   along one: each edge's stream stays in tid order, deliveries to
//!   different nodes touch disjoint matching-store state and commute,
//!   and an operand set completes when its last port's token arrives, in
//!   that port's stream order either way. The choice is made from the
//!   program's replication alone, with no user knob. Below the threshold
//!   a ready block is at most a few tokens deep and the per-token loop is
//!   faster. `dmt_fabric::testutil::run_with_block_fire` forces either
//!   path so the tests can check both produce identical memory,
//!   statistics and profiles (`tests/properties.rs`,
//!   `tests/token_storm.rs`).
//!
//! Ring allocations are pooled per launch ([`StoreArena`]): a multi-phase
//! kernel re-initializes the previous phase's buffers instead of paying an
//! allocator round-trip per `PhaseExec`. Statistics are phase-resolved —
//! the counters are snapshotted at every phase boundary and the run's
//! totals are derived as the exact field-wise sum of the per-phase records
//! (see [`dmt_common::stats`]).

use crate::program::{FabricProgram, PhaseProgram};
use dmt_common::config::{SystemConfig, UnitClass, WritePolicy};
use dmt_common::ids::{Addr, NodeId};
use dmt_common::memimg::MemImage;
use dmt_common::sched::CalendarQueue;
use dmt_common::stats::{PhaseStats, RunStats};
use dmt_common::value::Word;
use dmt_common::{Error, Result, RunLimits};
use dmt_dfg::kernel::LaunchInput;
use dmt_dfg::node::{eval_pure, MemSpace, NodeKind};
use dmt_mem::{AccessOutcome, Lvc, MemSystem, Scratchpad};
use dmt_obs::{CycleSample, EdgeClass, Obs, StoreKind};
use std::collections::{HashMap, VecDeque};

/// Result of a fabric run: final memory image plus statistics.
#[derive(Debug, Clone)]
pub struct FabricRunResult {
    /// Final global-memory image.
    pub memory: MemImage,
    /// Event counters and total cycles.
    pub stats: RunStats,
}

/// Minimum program replication at which pure compute nodes block-fire
/// (see the module docs). A ready block holds at most `R` operand sets,
/// so below this the drain-into-scratch overhead outweighs the hoisted
/// per-token work. On the benchmark's `grid_sweep` workload (2-core
/// host, traced runs) forcing every node per-token raised the MT-CGRA
/// engine's median `run_ms` to ~646 ms from ~572 ms with block-fire
/// engaged at R ≥ 8; forcing block-fire on across Table 3 (every job at
/// R 1–5) cost MT +5–19% and dMT +9–23%.
pub const BATCH_MIN_REPLICATION: u32 = 8;

/// The CGRA core simulator. Construct once per configuration and run
/// compiled programs on it.
///
/// # Examples
///
/// See the crate-level docs; programs are normally produced by
/// `dmt-compiler`.
#[derive(Debug, Clone)]
pub struct FabricMachine {
    cfg: SystemConfig,
}

impl FabricMachine {
    /// Creates a machine with the given configuration (Table 2 defaults via
    /// `SystemConfig::default()`).
    #[must_use]
    pub fn new(cfg: SystemConfig) -> FabricMachine {
        FabricMachine { cfg }
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Executes `program` on `input`, running grid blocks and phases
    /// sequentially on one core (the paper's per-core comparison).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Runtime`] for parameter mismatches or bad
    /// addresses, and [`Error::Deadlock`] when the fabric cannot make
    /// progress.
    pub fn run(&self, program: &FabricProgram, input: LaunchInput) -> Result<FabricRunResult> {
        self.run_observed(program, input, &mut Obs::disabled())
    }

    /// [`FabricMachine::run`] with an observation handle: the engine
    /// reports phase boundaries, node firings, per-edge tokens, spills
    /// and periodic counter samples into `obs`. Passing
    /// [`Obs::disabled`] (which [`FabricMachine::run`] does) reduces
    /// every report to one predicted-not-taken branch, so observed and
    /// unobserved runs produce identical results and statistics.
    ///
    /// # Errors
    ///
    /// As [`FabricMachine::run`].
    pub fn run_observed(
        &self,
        program: &FabricProgram,
        input: LaunchInput,
        obs: &mut Obs,
    ) -> Result<FabricRunResult> {
        self.run_limited(program, input, obs, &RunLimits::unlimited())
    }

    /// [`FabricMachine::run_observed`] under cooperative [`RunLimits`]:
    /// the cycle loop checks the deadline and cancellation token every
    /// cycle (`now` carries across phases, so the budget bounds the
    /// whole launch, reconfiguration gaps included). The unlimited
    /// check is one compare per cycle.
    ///
    /// # Errors
    ///
    /// As [`FabricMachine::run`], plus [`Error::TimedOut`] /
    /// [`Error::Cancelled`] when a limit trips.
    pub fn run_limited(
        &self,
        program: &FabricProgram,
        input: LaunchInput,
        obs: &mut Obs,
        limits: &RunLimits<'_>,
    ) -> Result<FabricRunResult> {
        let block_fire = program.replication >= BATCH_MIN_REPLICATION;
        self.run_engine(program, input, obs, limits, block_fire)
    }

    /// [`FabricMachine::run_limited`] with the fire path chosen by the
    /// caller instead of by replication (see the module docs);
    /// `testutil::run_with_block_fire` exposes it to the equivalence
    /// tests.
    pub(crate) fn run_engine(
        &self,
        program: &FabricProgram,
        input: LaunchInput,
        obs: &mut Obs,
        limits: &RunLimits<'_>,
        block_fire: bool,
    ) -> Result<FabricRunResult> {
        if input.params.len() != program.param_count {
            return Err(Error::Runtime(format!(
                "program {} expects {} parameters, got {}",
                program.name,
                program.param_count,
                input.params.len()
            )));
        }
        let mut global = input.memory;
        let mut stats = RunStats::default();
        // The CGRA cores use write-back / write-allocate L1 (§5.1).
        let mut mem = MemSystem::new(&self.cfg.mem, WritePolicy::WriteBackAllocate);
        let mut lvc = Lvc::new(self.cfg.mem.lvc);
        let mut scratch = Scratchpad::new(self.cfg.mem.scratchpad);
        let mut now = 0u64;

        // Phase-major execution: the fabric is configured for phase p and
        // *every* block's threads stream through it back to back (blocks
        // are independent; a barrier only orders phases within one block,
        // and executing phase p of all blocks before phase p+1 of any
        // trivially satisfies it). Single-phase dMT kernels therefore
        // stream the entire launch with no drain at all — the paper's core
        // claim — while shared-memory kernels drain once per barrier.
        let mut shared_imgs: Vec<MemImage> = (0..program.grid_blocks)
            .map(|_| MemImage::with_words(program.shared_words as usize))
            .collect();
        // Ring allocations are pooled across phases (one allocation set
        // per launch, re-initialized per phase), and the counters are
        // snapshotted at every phase boundary so the run reports a
        // per-phase breakdown whose field-wise sum *is* the totals.
        let mut arena = StoreArena::default();
        let mut per_phase: Vec<PhaseStats> = Vec::with_capacity(program.phases.len());
        let mut prev = PhaseStats::default();
        for (pi, phase) in program.phases.iter().enumerate() {
            if pi > 0 {
                now += self.cfg.fabric.reconfiguration_cycles;
            }
            obs.phase_begin(pi as u32, now);
            let mut exec = PhaseExec::new(
                &self.cfg,
                program,
                phase,
                0,
                &input.params,
                now,
                program.grid_blocks,
                &mut arena,
                obs,
                block_fire,
            );
            now = exec.run(
                &mut global,
                &mut shared_imgs,
                &mut mem,
                &mut scratch,
                &mut lvc,
                &mut stats,
                limits,
            )?;
            exec.recycle(&mut arena);
            obs.phase_end(now);
            stats.phases += 1;
            let cum = cumulative_snapshot(&stats, now, &mem, &scratch, &lvc);
            per_phase.push(cum.minus(&prev));
            prev = cum;
        }
        obs.finish(now);
        Ok(FabricRunResult {
            memory: global,
            stats: RunStats::from_phases(per_phase),
        })
    }
}

/// The run's cumulative counters at one instant: everything accumulated in
/// `stats` so far, plus the live cumulative state the flat accumulation
/// only exports at run end (cycles, bank conflicts, hierarchy counters,
/// LVC traffic). Differencing consecutive snapshots yields exact per-phase
/// shares, and the final snapshot is bit-identical to the whole-run totals
/// the pre-phase-resolved engine reported.
fn cumulative_snapshot(
    stats: &RunStats,
    now: u64,
    mem: &MemSystem,
    scratch: &Scratchpad,
    lvc: &Lvc,
) -> PhaseStats {
    let mut cum = stats.totals();
    cum.cycles = now;
    cum.shared_bank_conflicts = scratch.bank_conflicts;
    cum.lvc_reads = lvc.reads;
    cum.lvc_writes = lvc.writes;
    mem.export_phase(&mut cum);
    cum
}

/// Recycled matching-store / eLDST ring allocations, shared across the
/// phases of one launch: a multi-phase kernel re-initializes one pooled
/// allocation set per phase instead of allocating fresh rings in every
/// `PhaseExec` (clearing retained capacity is a memset; the allocator
/// round-trip is what the pool removes).
#[derive(Debug, Default)]
struct StoreArena {
    match_rings: Vec<Vec<MatchSlot>>,
    eldst_rings: Vec<Vec<EldstSlot>>,
    /// Block-firing SoA scratch (tids + results), pooled likewise.
    fire_scratch: FireScratch,
}

/// SoA scratch a block firing drains its ready operand sets into: the
/// thread ids and, after the tight evaluation loop, the result words.
/// One instance lives on [`PhaseExec`] (pooled across phases via
/// [`StoreArena`]) and is reused by every block, so steady-state block
/// firing allocates nothing.
#[derive(Debug, Default)]
struct FireScratch {
    tids: Vec<u32>,
    vals: Vec<Word>,
}

impl StoreArena {
    /// A matching-store ring of exactly `size` empty slots, reusing a
    /// pooled allocation when one is available.
    fn match_ring(&mut self, size: usize) -> Vec<MatchSlot> {
        let mut ring = self.match_rings.pop().unwrap_or_default();
        ring.clear();
        ring.resize(size, MatchSlot::EMPTY);
        ring
    }

    /// An eLDST token-buffer ring of exactly `size` empty slots, ditto.
    fn eldst_ring(&mut self, size: usize) -> Vec<EldstSlot> {
        let mut ring = self.eldst_rings.pop().unwrap_or_default();
        ring.clear();
        ring.resize(size, EldstSlot::EMPTY);
        ring
    }
}

/// A token-delivery or bookkeeping event on the calendar queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A token arrives at `node`'s matching store.
    Deliver {
        node: NodeId,
        port: u8,
        tid: u32,
        value: Word,
    },
    /// An eLDST output becomes architecturally visible: fan it out and
    /// offer the duplicate to the next thread in the window.
    EloadProduce { node: NodeId, tid: u32, value: Word },
    /// An eLDST duplicate token reaches the token buffer (after any
    /// Fig 10b loop latency): hand it to a parked consumer or buffer it.
    EloadOffer { node: NodeId, tid: u32, value: Word },
    /// A memory operation completed; release the unit's outstanding slot.
    Release { node: NodeId },
    /// A sink operation of `tid` completed.
    SinkDone { tid: u32 },
}

/// One CSR out-edge: destination node/port and the precomputed arrival
/// delta (`noc_hop_latency · hops`) added to a producer's result cycle.
#[derive(Debug, Clone, Copy)]
struct EdgeOut {
    node: u32,
    port: u8,
    delta: u64,
}

/// Tag marking a matching-store or eLDST ring slot as free.
const EMPTY_TAG: u32 = u32::MAX;

/// One window-indexed matching-store slot: a partially assembled operand
/// set for thread `tag`. Unfilled ports read as zero when the set
/// completes (matching the old `Option`-based store's `unwrap_or(ZERO)`).
#[derive(Debug, Clone, Copy)]
struct MatchSlot {
    tag: u32,
    /// Bitmask of ports already received.
    filled: u8,
    ops: [Word; 3],
}

impl MatchSlot {
    const EMPTY: MatchSlot = MatchSlot {
        tag: EMPTY_TAG,
        filled: 0,
        ops: [Word::ZERO; 3],
    };
}

/// What an eLDST token-buffer entry holds for its thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EldstState {
    /// A duplicate value arrived before the thread fired.
    Fwd(Word),
    /// The thread fired with a false predicate and waits for its value.
    Parked,
}

/// One eLDST token-buffer slot (see [`EldstState`]); free when
/// `tag == EMPTY_TAG`.
#[derive(Debug, Clone, Copy)]
struct EldstSlot {
    tag: u32,
    state: EldstState,
}

impl EldstSlot {
    const EMPTY: EldstSlot = EldstSlot {
        tag: EMPTY_TAG,
        state: EldstState::Parked,
    };
}

/// Per-node firing invariants, precomputed once at phase load so the
/// fire paths stop re-matching `NodeKind` and re-reading
/// `cfg.latencies` per token: operand arity, the unit class that names
/// the stat counter, the result latency, and whether the node is pure
/// compute (eligible for block firing — it can never stall).
#[derive(Debug, Clone, Copy)]
struct FireMeta {
    /// Result latency (`now + latency` is the send base). Meaningful
    /// for pure nodes only; memory and communication nodes derive their
    /// timing inside their `fire_one` arms.
    latency: u64,
    /// Unit class for stat accounting ([`UnitClass::LoadStore`] for
    /// non-pure nodes, where it is never read).
    class: UnitClass,
    /// Operand arity (also the matching-store trigger: arity > 1).
    arity: u8,
    /// Pure compute (`Alu/Fpu/Special/Ctrl/Unary/Select/Join/Split`):
    /// evaluated by `eval_pure`, never blocked, block-firable. Note
    /// elevators are *not* pure despite `UnitClass::Control` — they
    /// re-tag tids and may touch the LVC.
    pure: bool,
}

/// The `RunStats` operation counter a unit class increments per firing
/// (hoisted per block on the block-fire path).
fn class_counter(stats: &mut RunStats, class: UnitClass) -> &mut u64 {
    match class {
        UnitClass::Alu => &mut stats.alu_ops,
        UnitClass::Fpu => &mut stats.fpu_ops,
        UnitClass::Special => &mut stats.special_ops,
        UnitClass::Control => &mut stats.control_ops,
        UnitClass::SplitJoin => &mut stats.sju_ops,
        UnitClass::LoadStore => unreachable!("pure compute classes only"),
    }
}

/// Per-node runtime state.
#[derive(Debug, Default)]
struct UnitState {
    /// Matching store: `tid & ring_mask`-indexed slots (empty for source
    /// nodes, which are injected, never delivered to). The allocation is
    /// pooled in a [`StoreArena`] across the launch's phases.
    pending: Vec<MatchSlot>,
    /// Matching-store spill for tids whose ring slot is held by another
    /// live tid. Empty in steady state; see the module docs.
    spill: HashMap<u32, MatchSlot>,
    /// Complete operand sets awaiting their firing slot.
    ready: VecDeque<(u32, [Word; 3])>,
    /// eLDST token buffer: forwarded values / parked threads, ring-indexed
    /// like `pending` (allocated only for eLDST nodes, pooled likewise).
    eldst: Vec<EldstSlot>,
    /// eLDST spill, mirroring `spill`.
    eldst_spill: HashMap<u32, EldstSlot>,
    /// Outstanding memory operations (LDST occupancy).
    outstanding: u32,
}

struct PhaseExec<'a> {
    cfg: &'a SystemConfig,
    program: &'a FabricProgram,
    phase: &'a PhaseProgram,
    /// First block of this execution (streaming runs cover all blocks).
    block: u32,
    params: &'a [Word],
    /// Total threads executed by this PhaseExec (one block, or the whole
    /// launch when streaming).
    threads: u32,
    /// Threads per block — communication and thread coordinates are always
    /// block-local (§3.1: threads communicate within a thread block).
    block_threads: u32,
    units: Vec<UnitState>,
    /// Bitmask over nodes with at least one complete operand set; firing
    /// walks set bits in ascending node order.
    active: Vec<u64>,
    /// Per-node firing invariants (arity, class, latency, purity),
    /// precomputed at phase load (see [`FireMeta`]).
    meta: Vec<FireMeta>,
    /// `ring_size − 1` for the power-of-two matching-store rings.
    ring_mask: u32,
    events: CalendarQueue<Ev>,
    /// Global schedule sequence: one increment per event (each token and
    /// each bookkeeping event). Doubles as the scheduled-event total the
    /// profile reports.
    seq: u64,
    /// Events handled so far; `seq − handled` is the pending depth the
    /// cycle samples report, and equals the calendar's length at every
    /// cycle boundary (asserted in debug builds).
    handled: u64,
    /// Block-fire pure compute nodes (drain a node's ready block into
    /// [`FireScratch`] and evaluate it in one tight loop); see the
    /// module docs.
    block_fire: bool,
    /// Block-firing SoA scratch, pooled across phases via [`StoreArena`].
    fire_scratch: FireScratch,
    /// `edge_base[n]` = id of node `n`'s first out-edge; edge `(n, i)`
    /// has id `edge_base[n] + i` (aligned with `graph.consumers(n)`).
    /// Carries an end sentinel: node `n`'s out-degree is
    /// `edge_base[n + 1] − edge_base[n]`.
    edge_base: Vec<u32>,
    /// Flat CSR out-edge payload, indexed by edge id (see `edge_base`).
    out_edges: Vec<EdgeOut>,
    /// Per-node Σ hops over out-edges (bulk NoC-hop accounting in `send`).
    hops_sum: Vec<u64>,
    now: u64,
    next_inject: u32,
    retire_floor: u32,
    retired: Vec<bool>,
    sinks_done: Vec<u32>,
    sink_count: u32,
    retired_count: u32,
    /// Operand sets currently in `ready` queues (completion check).
    ready_total: u32,
    /// Threads currently parked at eLDST buffers (completion check).
    parked_total: u32,
    /// The run's observation handle (disabled on unobserved runs; every
    /// report degrades to one branch — see `dmt_obs`).
    obs: &'a mut Obs,
    source_nodes: Vec<NodeId>,
    /// Elevator nodes with their configuration: fallback constants are
    /// generated at thread injection (the controller tracks the TID stream,
    /// so window-start threads get their constant without waiting for any
    /// data token — essential for recurrent chains like Fig 6).
    elevator_nodes: Vec<(NodeId, dmt_dfg::node::CommConfig, Word)>,
}

impl<'a> PhaseExec<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        cfg: &'a SystemConfig,
        program: &'a FabricProgram,
        phase: &'a PhaseProgram,
        block: u32,
        params: &'a [Word],
        start: u64,
        blocks_covered: u32,
        arena: &mut StoreArena,
        obs: &'a mut Obs,
        block_fire: bool,
    ) -> PhaseExec<'a> {
        let n = phase.graph.len();
        let threads = program.threads_per_block() * blocks_covered;
        let sink_count = phase
            .graph
            .node_ids()
            .filter(|&id| phase.graph.consumers(id).is_empty())
            .count() as u32;
        let source_nodes: Vec<NodeId> = phase
            .graph
            .node_ids()
            .filter(|&id| phase.graph.kind(id).is_source())
            .collect();
        let elevator_nodes: Vec<(NodeId, dmt_dfg::node::CommConfig, Word)> = phase
            .graph
            .node_ids()
            .filter_map(|id| match *phase.graph.kind(id) {
                NodeKind::Elevator { comm, fallback } => Some((id, comm, fallback)),
                _ => None,
            })
            .collect();
        // Ring sizing: live tids are bounded by the in-flight window (or
        // the whole launch when smaller), stretched by re-tagging — an
        // elevator/eLDST chain can hold a stale tid's state alive while
        // threads up to Σ|shift| further on retire. 2Σ covers a chain's
        // worth of slack on both sides; the spill map covers anything
        // beyond (see the module docs).
        let shift_sum: u64 = phase
            .graph
            .node_ids()
            .map(|id| match *phase.graph.kind(id) {
                NodeKind::Elevator { comm, .. } | NodeKind::ELoad { comm, .. } => {
                    comm.shift.unsigned_abs()
                }
                _ => 0,
            })
            .sum();
        let live_bound = u64::from(cfg.fabric.inflight_threads.min(threads).max(1)) + 2 * shift_sum;
        let ring_size = live_bound.next_power_of_two().min(1 << 20) as usize;
        let lat = &cfg.latencies;
        let meta: Vec<FireMeta> = phase
            .graph
            .node_ids()
            .map(|id| {
                let kind = phase.graph.kind(id);
                let pure = matches!(
                    kind,
                    NodeKind::Alu(_)
                        | NodeKind::Fpu(_)
                        | NodeKind::Special(_)
                        | NodeKind::Ctrl(_)
                        | NodeKind::Unary(_)
                        | NodeKind::Select
                        | NodeKind::Join
                        | NodeKind::Split
                );
                let (latency, class) = if pure {
                    let class = kind.unit_class().expect("compute node");
                    let latency = match class {
                        UnitClass::Alu => lat.alu,
                        UnitClass::Fpu => lat.fpu,
                        UnitClass::Special => lat.special,
                        UnitClass::Control => lat.control,
                        UnitClass::SplitJoin => lat.sju,
                        UnitClass::LoadStore => unreachable!("pure nodes are not load/store"),
                    };
                    (latency, class)
                } else {
                    (0, UnitClass::LoadStore)
                };
                FireMeta {
                    latency,
                    class,
                    arity: kind.arity() as u8,
                    pure,
                }
            })
            .collect();
        let mut units = Vec::with_capacity(n);
        for id in phase.graph.node_ids() {
            // Single-operand nodes never match: a token is an operand set
            // by itself, so delivery bypasses the ring (see
            // `PhaseExec::deliver`) and no ring is allocated.
            let needs_store = meta[id.index()].arity > 1;
            let is_eldst = matches!(phase.graph.kind(id), NodeKind::ELoad { .. });
            units.push(UnitState {
                pending: if needs_store {
                    arena.match_ring(ring_size)
                } else {
                    Vec::new()
                },
                eldst: if is_eldst {
                    arena.eldst_ring(ring_size)
                } else {
                    Vec::new()
                },
                ..UnitState::default()
            });
        }
        // Edge ids: a prefix sum over out-degrees (with an end sentinel),
        // so the per-edge tables are flat arrays indexed in O(1) from
        // `send`. `out_edges` is the CSR payload: destination, port, and
        // the edge's precomputed arrival delta (hop latency already
        // multiplied in), replacing two nested-`Vec` derefs and a multiply
        // per token on the hot send path.
        let mut edge_base = Vec::with_capacity(n + 1);
        let mut edges = 0u32;
        for id in phase.graph.node_ids() {
            edge_base.push(edges);
            edges += phase.graph.consumers(id).len() as u32;
        }
        edge_base.push(edges);
        let mut out_edges = Vec::with_capacity(edges as usize);
        let mut hops_sum = Vec::with_capacity(n);
        for id in phase.graph.node_ids() {
            let row = &phase.edge_hops[id.index()];
            hops_sum.push(row.iter().sum());
            for (i, &(consumer, port)) in phase.graph.consumers(id).iter().enumerate() {
                out_edges.push(EdgeOut {
                    node: consumer.0,
                    port: port.0,
                    delta: cfg.fabric.noc_hop_latency * row[i],
                });
            }
        }
        PhaseExec {
            cfg,
            program,
            phase,
            block,
            params,
            threads,
            block_threads: program.threads_per_block(),
            units,
            active: vec![0u64; n.div_ceil(64)],
            meta,
            ring_mask: (ring_size - 1) as u32,
            events: CalendarQueue::new(),
            seq: 0,
            handled: 0,
            block_fire,
            fire_scratch: std::mem::take(&mut arena.fire_scratch),
            edge_base,
            out_edges,
            hops_sum,
            now: start,
            next_inject: 0,
            retire_floor: 0,
            retired: vec![false; threads as usize],
            sinks_done: vec![0; threads as usize],
            sink_count,
            retired_count: 0,
            ready_total: 0,
            parked_total: 0,
            obs,
            source_nodes,
            elevator_nodes,
        }
    }

    fn schedule(&mut self, at: u64, ev: Ev) {
        // Nothing lands in the cycle that scheduled it: tokens cross at
        // least one pipeline boundary.
        self.seq += 1;
        self.events.schedule(at.max(self.now + 1), ev);
    }

    /// Fans `value` out from `node` to all consumers, booking NoC hops.
    /// `base` is the cycle the producing unit's result is available.
    fn send(&mut self, node: NodeId, tid: u32, value: Word, base: u64, stats: &mut RunStats) {
        let ix = node.index();
        let first = self.edge_base[ix] as usize;
        let last = self.edge_base[ix + 1] as usize;
        if first == last {
            self.schedule(base, Ev::SinkDone { tid });
            return;
        }
        stats.tokens_routed += (last - first) as u64;
        stats.noc_hops += self.hops_sum[ix];
        if self.obs.on() {
            // Edges are classified by their producer: elevator and eLDST
            // outputs are the paper's inter-thread channels, everything
            // else is ordinary dataflow. Unobserved runs pay one branch.
            let class = match self.phase.graph.kind(node) {
                NodeKind::Elevator { .. } => EdgeClass::Elevator,
                NodeKind::ELoad { .. } => EdgeClass::Eldst,
                _ => EdgeClass::Direct,
            };
            for eid in first..last {
                self.obs.edge_token(class, node.0, self.out_edges[eid].node);
            }
        }
        for eid in first..last {
            let e = self.out_edges[eid];
            self.schedule(
                base + e.delta,
                Ev::Deliver {
                    node: NodeId(e.node),
                    port: e.port,
                    tid,
                    value,
                },
            );
        }
    }

    fn source_value(&self, kind: &NodeKind, tid: u32) -> Word {
        match *kind {
            NodeKind::Const(w) => w,
            NodeKind::ThreadIdx(dim) => Word::from_u32(
                self.program
                    .block
                    .coord(dmt_common::ids::ThreadId(tid % self.block_threads), dim),
            ),
            NodeKind::BlockIdx => Word::from_u32(self.block + tid / self.block_threads),
            NodeKind::Param(slot) => self.params[usize::from(slot)],
            ref other => unreachable!("not a source: {other}"),
        }
    }

    /// Block-local communication: the sender of `tid`'s token, or `None`
    /// at window/block boundaries. Streaming runs carry several blocks in
    /// one tid space; communication never crosses a block.
    fn comm_source(&self, comm: &dmt_dfg::node::CommConfig, tid: u32) -> Option<u32> {
        let local = tid % self.block_threads;
        comm.source_of(local, self.block_threads)
            .map(|src_local| tid - local + src_local)
    }

    /// Block-local communication: the receiver of `tid`'s token.
    fn comm_target(&self, comm: &dmt_dfg::node::CommConfig, tid: u32) -> Option<u32> {
        let local = tid % self.block_threads;
        comm.target_of(local, self.block_threads)
            .map(|dst_local| tid - local + dst_local)
    }

    /// In-flight memory operations a (replicated) LDST node may hold: one
    /// request queue per physical replica.
    fn outstanding_cap(&self) -> u32 {
        self.cfg.fabric.ldst_queue_entries * self.program.replication.max(1)
    }

    fn can_inject(&self) -> bool {
        self.next_inject < self.threads
            && self.next_inject < self.retire_floor + self.cfg.fabric.inflight_threads
    }

    fn inject(&mut self, stats: &mut RunStats) {
        // One injector per graph replica (§3): R threads enter per cycle.
        let per_cycle = self.cfg.fabric.threads_injected_per_cycle * self.program.replication;
        // Both injection bounds depend only on `next_inject` (the retire
        // floor moves during delivery, not here), so the cycle's intake
        // is a contiguous tid block known up front.
        let cap = (self.retire_floor + self.cfg.fabric.inflight_threads).min(self.threads);
        let count = per_cycle.min(cap.saturating_sub(self.next_inject));
        if count == 0 {
            return;
        }
        let t0 = self.next_inject;
        self.next_inject += count;
        if count > 1 {
            return self.inject_block(t0, count, stats);
        }
        let tid = t0;
        for i in 0..self.source_nodes.len() {
            let node = self.source_nodes[i];
            let v = self.source_value(self.phase.graph.kind(node), tid);
            self.send(node, tid, v, self.now, stats);
        }
        // Elevator fallback constants for threads with no in-window
        // producer: generated from the TID stream at injection.
        for i in 0..self.elevator_nodes.len() {
            let (node, comm, fallback) = self.elevator_nodes[i];
            if self.comm_source(&comm, tid).is_none() {
                stats.elevator_const_tokens += 1;
                self.send(
                    node,
                    tid,
                    fallback,
                    self.now + self.cfg.latencies.elevator,
                    stats,
                );
            }
        }
    }

    /// [`PhaseExec::inject`] for a whole intake block: each source node
    /// fans its `count` tokens out through one [`PhaseExec::send_block`]
    /// instead of `count` per-thread [`PhaseExec::send`] calls, hoisting
    /// the `NodeKind` lookup, edge walk, stat upkeep, and observer report
    /// out of the thread loop. Reordering thread-major injection into
    /// source-major blocks is output-invariant: source nodes own disjoint
    /// out-edges, every per-edge stream stays ascending in tid, and each
    /// consumer's completion order follows its last-arriving port's
    /// stream — the same commutation argument the module docs make for
    /// block-fired compute nodes.
    fn inject_block(&mut self, t0: u32, count: u32, stats: &mut RunStats) {
        let mut scratch = std::mem::take(&mut self.fire_scratch);
        scratch.tids.clear();
        scratch.tids.extend(t0..t0 + count);
        for i in 0..self.source_nodes.len() {
            let node = self.source_nodes[i];
            scratch.vals.clear();
            let kind = self.phase.graph.kind(node);
            for tid in t0..t0 + count {
                scratch.vals.push(self.source_value(kind, tid));
            }
            self.send_block(
                node,
                EdgeClass::Direct,
                &scratch.tids,
                &scratch.vals,
                self.now,
                stats,
            );
        }
        for i in 0..self.elevator_nodes.len() {
            let (node, comm, fallback) = self.elevator_nodes[i];
            scratch.tids.clear();
            scratch.vals.clear();
            for tid in t0..t0 + count {
                if self.comm_source(&comm, tid).is_none() {
                    scratch.tids.push(tid);
                    scratch.vals.push(fallback);
                }
            }
            if !scratch.tids.is_empty() {
                stats.elevator_const_tokens += scratch.tids.len() as u64;
                self.send_block(
                    node,
                    EdgeClass::Elevator,
                    &scratch.tids,
                    &scratch.vals,
                    self.now + self.cfg.latencies.elevator,
                    stats,
                );
            }
        }
        self.fire_scratch = scratch;
    }

    /// Marks `node` as having a complete operand set ready to fire.
    #[inline]
    fn mark_active(&mut self, ix: usize) {
        self.active[ix / 64] |= 1 << (ix % 64);
    }

    /// Writes one token into `node`'s matching store, queueing the
    /// operand set for firing when the token completes it.
    fn deliver(&mut self, node: NodeId, port: u8, tid: u32, value: Word, stats: &mut RunStats) {
        debug_assert_ne!(tid, EMPTY_TAG, "tid collides with the empty-slot tag");
        stats.token_buffer_writes += 1;
        let ix = node.index();
        let arity = self.meta[ix].arity;
        let unit = &mut self.units[ix];
        if arity == 1 {
            // A single-operand token is a complete set by itself: the ring
            // claim/free pair would cancel before the next occupancy
            // sample, so the store is bypassed entirely (and never
            // allocated).
            let mut ops = [Word::ZERO; 3];
            ops[port as usize] = value;
            unit.ready.push_back((tid, ops));
        } else {
            let si = (tid & self.ring_mask) as usize;
            // Resolve the slot for `tid`: its ring slot, its spill entry,
            // or a fresh claim (ring when free, spill when occupied by
            // another tid). A tid must never hold both a ring slot and a
            // spill entry, so a spilled tid is looked up before an empty
            // ring slot is claimed.
            let ring_hit = unit.pending[si].tag == tid;
            let slot: &mut MatchSlot = if ring_hit {
                &mut unit.pending[si]
            } else if !unit.spill.is_empty() && unit.spill.contains_key(&tid) {
                unit.spill.get_mut(&tid).expect("present")
            } else if unit.pending[si].tag == EMPTY_TAG {
                self.obs.ring_claim();
                let s = &mut unit.pending[si];
                s.tag = tid;
                s
            } else {
                self.obs.spill(StoreKind::Match, self.now, node.0);
                unit.spill.entry(tid).or_insert(MatchSlot {
                    tag: tid,
                    ..MatchSlot::EMPTY
                })
            };
            debug_assert_eq!(slot.filled & (1 << port), 0, "duplicate operand");
            slot.filled |= 1 << port;
            slot.ops[port as usize] = value;
            if slot.filled.count_ones() < u32::from(arity) {
                return;
            }
            let ops = slot.ops;
            if ring_hit || unit.pending[si].tag == tid {
                unit.pending[si] = MatchSlot::EMPTY;
                self.obs.ring_free();
            } else {
                unit.spill.remove(&tid);
            }
            unit.ready.push_back((tid, ops));
        }
        self.ready_total += 1;
        self.mark_active(ix);
    }

    #[allow(clippy::too_many_arguments)]
    fn fire_all(
        &mut self,
        global: &mut MemImage,
        shared_imgs: &mut [MemImage],
        mem: &mut MemSystem,
        scratch: &mut Scratchpad,
        lvc: &mut Lvc,
        stats: &mut RunStats,
    ) -> Result<()> {
        let mut any_blocked = false;
        // Each node exists once per graph replica, so it fires up to R
        // operations per cycle.
        let fires_per_cycle = self.program.replication.max(1);
        // Walk only nodes with ready operand sets, in ascending node order
        // (identical to the full scan this replaces). Firing never makes
        // another node ready in the same cycle — every send lands at
        // `now + 1` or later — so iterating a per-word snapshot is exact.
        for w in 0..self.active.len() {
            let mut word = self.active[w];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let ix = w * 64 + bit;
                let node = NodeId(ix as u32);
                let meta = self.meta[ix];
                if self.block_fire && meta.pure {
                    // Pure compute never stalls: the whole quota-bounded
                    // block fires in one tight loop with dispatch,
                    // latency, stat and obs upkeep hoisted out (see the
                    // module docs).
                    let count = self.units[ix].ready.len().min(fires_per_cycle as usize);
                    self.fire_block(node, ix, count, meta, stats);
                    self.ready_total -= count as u32;
                    self.obs.node_fires(node.0, count as u64);
                } else {
                    for _ in 0..fires_per_cycle {
                        let Some((tid, ops)) = self.units[ix].ready.pop_front() else {
                            break;
                        };
                        match self.fire_one(
                            node,
                            tid,
                            ops,
                            global,
                            shared_imgs,
                            mem,
                            scratch,
                            lvc,
                            stats,
                        )? {
                            Fired::Done => {
                                self.ready_total -= 1;
                                self.obs.node_fire(node.0);
                            }
                            Fired::Blocked => {
                                // Structural stall: retry the same token
                                // next cycle (FIFO: back at the front, so
                                // the undrained tail keeps its order).
                                self.units[ix].ready.push_front((tid, ops));
                                any_blocked = true;
                                break;
                            }
                        }
                    }
                }
                if self.units[ix].ready.is_empty() {
                    self.active[w] &= !(1u64 << bit);
                }
            }
        }
        if any_blocked {
            stats.backpressure_cycles += 1;
        }
        Ok(())
    }

    /// Fires `count` ready operand sets of a pure compute node as one
    /// block: drain into the SoA scratch, evaluate in a tight loop with
    /// the `NodeKind` dispatch hoisted, bump the class counter once, and
    /// hand the whole result vector to [`PhaseExec::send_block`]. The
    /// caller guarantees `meta.pure` (the block can never stall) and
    /// `count ≤ ready.len()`.
    fn fire_block(
        &mut self,
        node: NodeId,
        ix: usize,
        count: usize,
        meta: FireMeta,
        stats: &mut RunStats,
    ) {
        let mut scratch = std::mem::take(&mut self.fire_scratch);
        scratch.tids.clear();
        scratch.vals.clear();
        scratch.tids.reserve(count);
        scratch.vals.reserve(count);
        // Borrowed at the phase lifetime (not `&self`) so the drain loop
        // below can hold `&mut self.units[ix]` concurrently.
        let kind: &'a NodeKind = self.phase.graph.kind(node);
        let arity = usize::from(meta.arity);
        let unit = &mut self.units[ix];
        for _ in 0..count {
            let (tid, ops) = unit.ready.pop_front().expect("caller bounded count");
            scratch.tids.push(tid);
            scratch.vals.push(eval_pure(kind, &ops[..arity]));
        }
        *class_counter(stats, meta.class) += count as u64;
        // Block-fired nodes are pure compute, hence ordinary dataflow
        // edges (elevators and eLDSTs never block-fire).
        self.send_block(
            node,
            EdgeClass::Direct,
            &scratch.tids,
            &scratch.vals,
            self.now + meta.latency,
            stats,
        );
        self.fire_scratch = scratch;
    }

    /// [`PhaseExec::send`] for a whole result block: fans every
    /// `(tids[i], vals[i])` token out from `node`, with the edge walk
    /// hoisted outside the token loop (edge-major). Each edge's stream
    /// stays in token order and shares one arrival cycle, so results are
    /// byte-identical to `count` per-token sends (see the module docs for
    /// the commutation argument).
    fn send_block(
        &mut self,
        node: NodeId,
        class: EdgeClass,
        tids: &[u32],
        vals: &[Word],
        base: u64,
        stats: &mut RunStats,
    ) {
        let ix = node.index();
        let first = self.edge_base[ix] as usize;
        let last = self.edge_base[ix + 1] as usize;
        let count = tids.len();
        if first == last {
            let at = base.max(self.now + 1);
            for &tid in tids {
                self.events.schedule(at, Ev::SinkDone { tid });
            }
            self.seq += count as u64;
            return;
        }
        stats.tokens_routed += ((last - first) * count) as u64;
        stats.noc_hops += self.hops_sum[ix] * count as u64;
        if self.obs.on() {
            for eid in first..last {
                self.obs
                    .edge_tokens(class, node.0, self.out_edges[eid].node, count as u64);
            }
        }
        for eid in first..last {
            let e = self.out_edges[eid];
            let arrival = (base + e.delta).max(self.now + 1);
            for (&tid, &value) in tids.iter().zip(vals) {
                self.events.schedule(
                    arrival,
                    Ev::Deliver {
                        node: NodeId(e.node),
                        port: e.port,
                        tid,
                        value,
                    },
                );
            }
        }
        self.seq += ((last - first) * count) as u64;
    }

    /// Removes and returns thread `tid`'s eLDST token-buffer entry at node
    /// `ix`, following the same ring-then-spill discipline as the matching
    /// store.
    fn eldst_remove(&mut self, ix: usize, tid: u32) -> Option<EldstState> {
        let si = (tid & self.ring_mask) as usize;
        let unit = &mut self.units[ix];
        if unit.eldst[si].tag == tid {
            let state = unit.eldst[si].state;
            unit.eldst[si] = EldstSlot::EMPTY;
            self.obs.ring_free();
            return Some(state);
        }
        if unit.eldst_spill.is_empty() {
            None
        } else {
            unit.eldst_spill.remove(&tid).map(|s| s.state)
        }
    }

    /// Inserts an eLDST token-buffer entry for `tid` at node `ix` (ring
    /// slot when free, spill otherwise). The caller guarantees no entry
    /// for `tid` exists (remove-before-insert discipline), so a tid never
    /// holds both a ring slot and a spill entry.
    fn eldst_insert(&mut self, ix: usize, tid: u32, state: EldstState) {
        let si = (tid & self.ring_mask) as usize;
        let now = self.now;
        let unit = &mut self.units[ix];
        if unit.eldst[si].tag == EMPTY_TAG {
            unit.eldst[si] = EldstSlot { tag: tid, state };
            self.obs.ring_claim();
        } else {
            debug_assert_ne!(unit.eldst[si].tag, tid, "duplicate eLDST entry for {tid}");
            self.obs.spill(StoreKind::Eldst, now, ix as u32);
            unit.eldst_spill.insert(tid, EldstSlot { tag: tid, state });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn fire_one(
        &mut self,
        node: NodeId,
        tid: u32,
        ops: [Word; 3],
        global: &mut MemImage,
        shared_imgs: &mut [MemImage],
        mem: &mut MemSystem,
        scratch: &mut Scratchpad,
        lvc: &mut Lvc,
        stats: &mut RunStats,
    ) -> Result<Fired> {
        let lat = &self.cfg.latencies;
        // Borrowed from the phase program (lifetime `'a`, not `&self`), so
        // the match arms below can call `&mut self` methods — and firing
        // skips a `NodeKind` copy per operation.
        let kind: &'a NodeKind = self.phase.graph.kind(node);
        match *kind {
            NodeKind::Alu(_)
            | NodeKind::Fpu(_)
            | NodeKind::Special(_)
            | NodeKind::Ctrl(_)
            | NodeKind::Unary(_)
            | NodeKind::Select
            | NodeKind::Join
            | NodeKind::Split => {
                // Arity, class and latency come from the precomputed
                // per-node table — no `NodeKind` re-match or latency
                // re-read per token.
                let meta = self.meta[node.index()];
                let value = eval_pure(kind, &ops[..usize::from(meta.arity)]);
                *class_counter(stats, meta.class) += 1;
                self.send(node, tid, value, self.now + meta.latency, stats);
                Ok(Fired::Done)
            }
            NodeKind::Load(space) => self.memory_load(
                node,
                tid,
                ops[0],
                space,
                global,
                shared_imgs,
                mem,
                scratch,
                stats,
            ),
            NodeKind::Store(space) => {
                if self.units[node.index()].outstanding >= self.outstanding_cap() {
                    return Ok(Fired::Blocked);
                }
                let addr = Addr(u64::from(ops[0].as_u32()));
                // Stores are fire-and-forget: the unit hands the request to
                // the memory system (which books bandwidth and may fill a
                // line in the background) and acknowledges as soon as it is
                // accepted — the same treatment the SIMT baseline gets.
                let ack = match space {
                    MemSpace::Global => match mem.store(addr, self.now + lat.ldst_issue) {
                        AccessOutcome::Done(_fill) => {
                            stats.global_stores += 1;
                            global.try_store(addr, ops[1])?;
                            self.now + lat.ldst_issue + 1
                        }
                        AccessOutcome::StallMshrFull => return Ok(Fired::Blocked),
                    },
                    MemSpace::Shared => {
                        stats.shared_stores += 1;
                        let b = (tid / self.block_threads) as usize;
                        shared_imgs[b].try_store(addr, ops[1])?;
                        scratch.access(addr, self.now + lat.ldst_issue)
                    }
                };
                self.units[node.index()].outstanding += 1;
                self.schedule(ack, Ev::Release { node });
                // The ordering token (or sink completion) appears at the
                // acknowledgement.
                self.send(node, tid, Word::ZERO, ack, stats);
                Ok(Fired::Done)
            }
            NodeKind::Elevator { comm, .. } => {
                stats.elevator_ops += 1;
                let spilled = self.phase.lvc_spilled.contains(&node);
                if let Some(dst) = self.comm_target(&comm, tid) {
                    let base = if spilled {
                        // Producer writes the LVC; consumer reads it back.
                        let slot = Addr(u64::from(dst % self.cfg.mem.lvc.entries) * 4);
                        let written = lvc.write(slot, self.now + lat.elevator);
                        lvc.read(slot, written)
                    } else {
                        self.now + lat.elevator
                    };
                    self.send(node, dst, ops[0], base, stats);
                }
                // Fallback constants are generated at injection (see
                // `inject`), not here — a recurrent chain's first thread
                // must receive its constant before any input token exists.
                Ok(Fired::Done)
            }
            NodeKind::ELoad { comm, space } => {
                let enable = ops[1].as_bool();
                if enable {
                    let fired = self.memory_load_eld(
                        node,
                        tid,
                        ops[0],
                        space,
                        global,
                        shared_imgs,
                        mem,
                        scratch,
                        stats,
                    )?;
                    return Ok(fired);
                }
                let Some(_) = self.comm_source(&comm, tid) else {
                    return Err(Error::Runtime(format!(
                        "eLDST {node}: thread {tid} has a false predicate but no in-window \
                         source thread"
                    )));
                };
                match self.eldst_remove(node.index(), tid) {
                    Some(EldstState::Fwd(v)) => {
                        stats.eldst_forwards += 1;
                        self.schedule(
                            self.now + lat.ldst_issue,
                            Ev::EloadProduce {
                                node,
                                tid,
                                value: v,
                            },
                        );
                    }
                    Some(EldstState::Parked) => unreachable!("thread {tid} fired twice"),
                    None => {
                        self.eldst_insert(node.index(), tid, EldstState::Parked);
                        self.parked_total += 1;
                    }
                }
                Ok(Fired::Done)
            }
            NodeKind::Const(_)
            | NodeKind::ThreadIdx(_)
            | NodeKind::BlockIdx
            | NodeKind::Param(_) => unreachable!("sources are injected, never fired"),
        }
    }

    /// Books and issues a plain load.
    #[allow(clippy::too_many_arguments)]
    fn memory_load(
        &mut self,
        node: NodeId,
        tid: u32,
        addr_w: Word,
        space: MemSpace,
        global: &mut MemImage,
        shared_imgs: &mut [MemImage],
        mem: &mut MemSystem,
        scratch: &mut Scratchpad,
        stats: &mut RunStats,
    ) -> Result<Fired> {
        if self.units[node.index()].outstanding >= self.outstanding_cap() {
            return Ok(Fired::Blocked);
        }
        let addr = Addr(u64::from(addr_w.as_u32()));
        let issue = self.now + self.cfg.latencies.ldst_issue;
        let (value, done) = match space {
            MemSpace::Global => match mem.load(addr, issue) {
                AccessOutcome::Done(t) => {
                    stats.global_loads += 1;
                    (global.try_load(addr)?, t)
                }
                AccessOutcome::StallMshrFull => return Ok(Fired::Blocked),
            },
            MemSpace::Shared => {
                stats.shared_loads += 1;
                let b = (tid / self.block_threads) as usize;
                (shared_imgs[b].try_load(addr)?, scratch.access(addr, issue))
            }
        };
        self.units[node.index()].outstanding += 1;
        self.schedule(done, Ev::Release { node });
        self.send(node, tid, value, done, stats);
        Ok(Fired::Done)
    }

    /// Books and issues the loading half of an eLDST; the produced value is
    /// routed through [`Ev::EloadProduce`] so the duplicate token is offered
    /// to the next thread in the window.
    #[allow(clippy::too_many_arguments)]
    fn memory_load_eld(
        &mut self,
        node: NodeId,
        tid: u32,
        addr_w: Word,
        space: MemSpace,
        global: &mut MemImage,
        shared_imgs: &mut [MemImage],
        mem: &mut MemSystem,
        scratch: &mut Scratchpad,
        stats: &mut RunStats,
    ) -> Result<Fired> {
        if self.units[node.index()].outstanding >= self.outstanding_cap() {
            return Ok(Fired::Blocked);
        }
        let addr = Addr(u64::from(addr_w.as_u32()));
        let issue = self.now + self.cfg.latencies.ldst_issue;
        let (value, done) = match space {
            MemSpace::Global => match mem.load(addr, issue) {
                AccessOutcome::Done(t) => {
                    stats.global_loads += 1;
                    (global.try_load(addr)?, t)
                }
                AccessOutcome::StallMshrFull => return Ok(Fired::Blocked),
            },
            MemSpace::Shared => {
                stats.shared_loads += 1;
                let b = (tid / self.block_threads) as usize;
                (shared_imgs[b].try_load(addr)?, scratch.access(addr, issue))
            }
        };
        self.units[node.index()].outstanding += 1;
        self.schedule(done, Ev::Release { node });
        self.schedule(done, Ev::EloadProduce { node, tid, value });
        Ok(Fired::Done)
    }

    /// Handles an eLDST output becoming visible: fan out downstream, then
    /// duplicate the token to `tid + shift` (§4.2), waking a parked thread
    /// if it is already waiting. Long-distance eLDSTs pay the Fig 10b
    /// elevator-loop latency (and LVC-spilled ones the spill round-trip) on
    /// the duplicate path.
    fn eload_produce(
        &mut self,
        node: NodeId,
        tid: u32,
        value: Word,
        lvc: &mut Lvc,
        stats: &mut RunStats,
    ) {
        self.send(node, tid, value, self.now, stats);
        let NodeKind::ELoad { comm, .. } = *self.phase.graph.kind(node) else {
            unreachable!("eload_produce on non-eLDST node");
        };
        if let Some(dst) = self.comm_target(&comm, tid) {
            let loop_latency = self
                .phase
                .eldst_loop_latency
                .get(&node)
                .copied()
                .unwrap_or(0);
            let offer_at = if self.phase.lvc_spilled.contains(&node) {
                let slot = Addr(u64::from(dst % self.cfg.mem.lvc.entries) * 4);
                let written = lvc.write(slot, self.now);
                lvc.read(slot, written)
            } else {
                self.now + self.cfg.latencies.ldst_issue + loop_latency
            };
            self.schedule(
                offer_at,
                Ev::EloadOffer {
                    node,
                    tid: dst,
                    value,
                },
            );
        }
    }

    /// The duplicate token lands in the eLDST token buffer.
    fn eload_offer(&mut self, node: NodeId, dst: u32, value: Word, stats: &mut RunStats) {
        stats.token_buffer_writes += 1;
        match self.eldst_remove(node.index(), dst) {
            Some(EldstState::Parked) => {
                self.parked_total -= 1;
                stats.eldst_forwards += 1;
                self.schedule(
                    self.now + self.cfg.latencies.ldst_issue,
                    Ev::EloadProduce {
                        node,
                        tid: dst,
                        value,
                    },
                );
            }
            other => {
                debug_assert!(other.is_none(), "duplicate eLDST offer for thread {dst}");
                self.eldst_insert(node.index(), dst, EldstState::Fwd(value));
            }
        }
    }

    fn sink_done(&mut self, tid: u32, stats: &mut RunStats) {
        let t = tid as usize;
        self.sinks_done[t] += 1;
        if self.sinks_done[t] == self.sink_count && !self.retired[t] {
            self.retired[t] = true;
            self.retired_count += 1;
            stats.threads_retired += 1;
            while (self.retire_floor as usize) < self.retired.len()
                && self.retired[self.retire_floor as usize]
            {
                self.retire_floor += 1;
            }
        }
    }

    fn complete(&self) -> bool {
        self.retired_count == self.threads
            && self.events.is_empty()
            && self.ready_total == 0
            && self.parked_total == 0
    }

    fn has_local_work(&self) -> bool {
        self.can_inject() || self.ready_total > 0
    }

    /// Parked tids at each node (deadlock diagnostics; cold path).
    fn parked_report(&self) -> Vec<String> {
        self.units
            .iter()
            .enumerate()
            .filter_map(|(i, u)| {
                let mut tids: Vec<u32> = u
                    .eldst
                    .iter()
                    .chain(u.eldst_spill.values())
                    .filter(|s| s.tag != EMPTY_TAG && s.state == EldstState::Parked)
                    .map(|s| s.tag)
                    .collect();
                if tids.is_empty() {
                    return None;
                }
                tids.sort_unstable();
                Some(format!("n{i} waiting for {tids:?}"))
            })
            .collect()
    }

    /// Returns this phase's ring allocations to the arena so the next
    /// phase reuses them (capacity is retained; contents are
    /// re-initialized on reuse — a drained phase may leave unconsumed
    /// eLDST forwards behind, so rings are not assumed clean).
    fn recycle(&mut self, arena: &mut StoreArena) {
        for unit in &mut self.units {
            if unit.pending.capacity() > 0 {
                arena.match_rings.push(std::mem::take(&mut unit.pending));
            }
            if unit.eldst.capacity() > 0 {
                arena.eldst_rings.push(std::mem::take(&mut unit.eldst));
            }
        }
        arena.fire_scratch = std::mem::take(&mut self.fire_scratch);
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        global: &mut MemImage,
        shared_imgs: &mut [MemImage],
        mem: &mut MemSystem,
        scratch: &mut Scratchpad,
        lvc: &mut Lvc,
        stats: &mut RunStats,
        limits: &RunLimits<'_>,
    ) -> Result<u64> {
        if self.sink_count == 0 {
            return Err(Error::Runtime(format!(
                "program {} phase has no sink nodes; threads can never retire",
                self.program.name
            )));
        }
        loop {
            // 0. Cooperative limits: deadline / cancellation, checked at
            // the cycle boundary so a timed-out run stops deterministically
            // at the same simulated cycle on every host.
            limits.check(self.now)?;
            // 1. Deliver everything due this cycle, in schedule order.
            self.events.advance(self.now);
            let mut handled = 0u64;
            while let Some(ev) = self.events.pop_due() {
                handled += 1;
                match ev {
                    Ev::Deliver {
                        node,
                        port,
                        tid,
                        value,
                    } => self.deliver(node, port, tid, value, stats),
                    Ev::EloadProduce { node, tid, value } => {
                        self.eload_produce(node, tid, value, lvc, stats);
                    }
                    Ev::EloadOffer { node, tid, value } => {
                        self.eload_offer(node, tid, value, stats);
                    }
                    Ev::Release { node } => {
                        let u = &mut self.units[node.index()];
                        u.outstanding = u.outstanding.saturating_sub(1);
                    }
                    Ev::SinkDone { tid } => self.sink_done(tid, stats),
                }
            }
            self.handled += handled;
            // Conservation: every scheduled event is either handled or
            // still on the calendar, one entry each.
            debug_assert_eq!(
                self.seq,
                self.handled + self.events.len() as u64,
                "events leaked or double-counted at cycle {}",
                self.now
            );
            // 2. Inject new threads.
            self.inject(stats);
            // 3. Fire ready units (one op per unit per cycle).
            self.fire_all(global, shared_imgs, mem, scratch, lvc, stats)?;
            // 4. Done?
            if self.complete() {
                self.obs.calendar_scheduled(self.seq);
                return Ok(self.now);
            }
            // 5. Observe. Disabled handles reduce both calls to one
            // branch each; the counter gathering runs only at sample
            // boundaries of an enabled handle.
            self.obs.calendar_depth(self.seq - self.handled);
            if self.obs.due(self.now) {
                let (l1_fills, l2_fills) = mem.fill_counts();
                let sample = CycleSample {
                    cycle: self.now,
                    injected: u64::from(self.next_inject),
                    retired: u64::from(self.retired_count),
                    calendar: self.seq - self.handled,
                    ready: u64::from(self.ready_total),
                    outstanding: self.units.iter().map(|u| u64::from(u.outstanding)).sum(),
                    l1_fills,
                    l2_fills,
                };
                self.obs.sample(sample);
            }
            // 6. Advance time.
            if self.has_local_work() {
                self.now += 1;
            } else if let Some(t) = self.events.next_time() {
                self.now = t;
            } else {
                let parked = self.parked_report();
                return Err(Error::Deadlock {
                    cycle: self.now,
                    detail: if parked.is_empty() {
                        format!(
                            "{} of {} threads retired, no events pending",
                            self.retired_count, self.threads
                        )
                    } else {
                        format!(
                            "eLDST threads parked without producers: {}",
                            parked.join("; ")
                        )
                    },
                });
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fired {
    Done,
    Blocked,
}
