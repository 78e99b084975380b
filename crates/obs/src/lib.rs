//! Observability for the dMT-CGRA simulators: structured event tracing,
//! hot-spot profiling and metrics primitives.
//!
//! The cycle engines accept one [`Obs`] handle per run and report typed
//! events into it — phase boundaries, node firings, token deliveries per
//! edge class, matching-store spills, periodic counter samples (calendar
//! depth, in-flight threads, cache fills). The handle fans the stream
//! into two sinks:
//!
//! * the **tracer** ([`Tracer`]) — a bounded ring buffer of
//!   [`TraceEvent`]s exported as Chrome-trace JSON
//!   ([`chrome_trace_json`]), so a run's timeline opens directly in
//!   `chrome://tracing` / Perfetto;
//! * the **profiler** ([`RunProfile`]) — per-node and per-edge traffic
//!   aggregates, a ring-occupancy histogram and calendar-queue
//!   high-water marks, rendered into the versioned `BENCH_profile.json`
//!   artifact by the `profile_hotspots` bench binary.
//!
//! # The zero-overhead-when-disabled contract
//!
//! Every recording method begins with an `#[inline]` check of one
//! boolean and returns immediately when the handle is disabled
//! ([`Obs::disabled`]), so an unobserved simulation pays one predictable
//! branch per call site and nothing else: no allocation, no hashing, no
//! atomic traffic. The engines' `run()` entry points pass a disabled
//! handle, which is why the smoke goldens are byte-identical with and
//! without this crate compiled in, and why `bench_hotpath` wall-clock
//! stays within the CI regression tolerance. When enabled, the hot path
//! is allocation-free too: the tracer writes into a ring preallocated at
//! construction, dropping the *oldest* events on overflow and counting
//! the drops ([`Tracer::dropped`]); only the profiler's per-edge map may
//! allocate, and profiling is opt-in per run.
//!
//! The handle is plain data (`Send`), owned by exactly one run on one
//! worker thread — the shared-nothing pool discipline — so observation
//! is lock-free by construction and per-job results merge
//! deterministically by job index, independent of `--threads`.

pub mod chrome;
pub mod hist;
pub mod profile;
pub mod trace;

pub use chrome::chrome_trace_json;
pub use hist::Histogram;
pub use profile::{EdgeClass, RunProfile, StoreKind};
pub use trace::{TraceEvent, Tracer, DEFAULT_RING_CAPACITY};

/// Counter snapshot delivered by an engine at one sample boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleSample {
    /// Simulation cycle of the sample.
    pub cycle: u64,
    /// Threads injected so far.
    pub injected: u64,
    /// Threads retired so far.
    pub retired: u64,
    /// Scheduled events currently pending (one calendar entry each).
    pub calendar: u64,
    /// Operand sets queued at firing units.
    pub ready: u64,
    /// Outstanding memory operations.
    pub outstanding: u64,
    /// Cumulative L1 fills (misses serviced) so far.
    pub l1_fills: u64,
    /// Cumulative L2 fills so far.
    pub l2_fills: u64,
}

/// Cycles between periodic counter samples (the tracer's "per N cycles"
/// aggregation window for node firings and token counts).
pub const DEFAULT_SAMPLE_EVERY: u64 = 256;

/// One run's observation handle: the engines' single reporting surface.
///
/// See the crate docs for the zero-overhead-when-disabled contract.
#[derive(Debug)]
pub struct Obs {
    on: bool,
    trace_on: bool,
    profile_on: bool,
    phase: u32,
    next_sample: u64,
    sample_every: u64,
    ring_live: u64,
    fires_since: u64,
    tokens_since: [u64; 3],
    /// The bounded event ring (empty when tracing is off).
    pub tracer: Tracer,
    /// The traffic aggregates (empty when profiling is off).
    pub profile: RunProfile,
}

impl Obs {
    /// A disabled handle: every recording method is a no-op.
    #[must_use]
    pub fn disabled() -> Obs {
        Obs::with_capacity(false, false, 0)
    }

    /// A handle with the given sinks enabled and the default ring
    /// capacity ([`DEFAULT_RING_CAPACITY`]).
    #[must_use]
    pub fn new(trace: bool, profile: bool) -> Obs {
        Obs::with_capacity(trace, profile, DEFAULT_RING_CAPACITY)
    }

    /// [`Obs::new`] with an explicit tracer ring capacity (events kept
    /// before the oldest are dropped).
    #[must_use]
    pub fn with_capacity(trace: bool, profile: bool, ring_capacity: usize) -> Obs {
        Obs {
            on: trace || profile,
            trace_on: trace,
            profile_on: profile,
            phase: 0,
            next_sample: 0,
            sample_every: DEFAULT_SAMPLE_EVERY,
            ring_live: 0,
            fires_since: 0,
            tokens_since: [0; 3],
            tracer: Tracer::new(if trace { ring_capacity } else { 0 }),
            profile: RunProfile::default(),
        }
    }

    /// Whether any sink is enabled — the engines' one hot-path gate.
    #[inline]
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Whether the tracer ring is recording.
    #[must_use]
    pub fn is_tracing(&self) -> bool {
        self.trace_on
    }

    /// Whether traffic aggregation is recording.
    #[must_use]
    pub fn is_profiling(&self) -> bool {
        self.profile_on
    }

    /// Marks the start of phase `phase` at `cycle`. Subsequent per-node /
    /// per-edge records are attributed to this phase.
    #[inline]
    pub fn phase_begin(&mut self, phase: u32, cycle: u64) {
        if !self.on {
            return;
        }
        self.phase = phase;
        self.profile.phases = self.profile.phases.max(phase + 1);
        if self.trace_on {
            self.tracer.push(TraceEvent::PhaseBegin { phase, cycle });
        }
    }

    /// Marks the end of the current phase at `cycle`.
    #[inline]
    pub fn phase_end(&mut self, cycle: u64) {
        if self.trace_on {
            self.tracer.push(TraceEvent::PhaseEnd {
                phase: self.phase,
                cycle,
            });
        }
    }

    /// Records one node firing (aggregated: the tracer reports firings
    /// per sample window, the profiler per (phase, node) totals).
    #[inline]
    pub fn node_fire(&mut self, node: u32) {
        self.node_fires(node, 1);
    }

    /// Records `count` firings of `node` in one call — what the
    /// block-firing fabric engine reports, so a node's whole ready block
    /// costs the same bookkeeping as a single per-token firing.
    /// Aggregates are count-denominated, so block and per-token
    /// reporting produce identical windows and profiles.
    #[inline]
    pub fn node_fires(&mut self, node: u32, count: u64) {
        if !self.on {
            return;
        }
        self.fires_since += count;
        if self.profile_on {
            *self
                .profile
                .node_fires
                .entry((self.phase, node))
                .or_insert(0) += count;
        }
    }

    /// Records one token delivery on the `src → dst` edge of the given
    /// class.
    #[inline]
    pub fn edge_token(&mut self, class: EdgeClass, src: u32, dst: u32) {
        self.edge_tokens(class, src, dst, 1);
    }

    /// Records `count` token deliveries on the `src → dst` edge in one
    /// call (the block-send counterpart of [`Obs::node_fires`]).
    #[inline]
    pub fn edge_tokens(&mut self, class: EdgeClass, src: u32, dst: u32, count: u64) {
        if !self.on {
            return;
        }
        self.tokens_since[class as usize] += count;
        if self.profile_on {
            self.profile.class_tokens[class as usize] += count;
            *self
                .profile
                .edge_tokens
                .entry((self.phase, src, dst))
                .or_insert(0) += count;
        }
    }

    /// Records a matching-store / eLDST ring overflow into the spill map
    /// at `node`.
    #[inline]
    pub fn spill(&mut self, kind: StoreKind, cycle: u64, node: u32) {
        if !self.on {
            return;
        }
        if self.profile_on {
            self.profile.spills[kind as usize] += 1;
        }
        if self.trace_on {
            self.tracer.push(TraceEvent::Spill { kind, cycle, node });
        }
    }

    /// Records one ring slot becoming occupied (matching store or eLDST
    /// buffer). Occupancy is sampled into the profile histogram at each
    /// sample boundary.
    #[inline]
    pub fn ring_claim(&mut self) {
        if self.on {
            self.ring_live += 1;
        }
    }

    /// Records one ring slot being freed.
    #[inline]
    pub fn ring_free(&mut self) {
        if self.on {
            self.ring_live = self.ring_live.saturating_sub(1);
        }
    }

    /// Tracks the calendar queue's depth high-water mark (call once per
    /// cycle; cheap — one compare).
    #[inline]
    pub fn calendar_depth(&mut self, depth: u64) {
        if self.profile_on && depth > self.profile.calendar_high_water {
            self.profile.calendar_high_water = depth;
        }
    }

    /// Adds a phase's total scheduled-event count to the profile.
    #[inline]
    pub fn calendar_scheduled(&mut self, total: u64) {
        if self.profile_on {
            self.profile.calendar_scheduled += total;
        }
    }

    /// Tokens recorded since the last flushed sample window, per edge
    /// class (`EdgeClass` discriminant order). The tracer flushes these
    /// into `Sample` events at each boundary; the run's final partial
    /// window stays here, so for any completed run
    /// `Σ sampled tokens + Σ pending == Σ profile.class_tokens` exactly
    /// — the invariant tying the tracer's windowed counters to the
    /// profiler's per-edge aggregates.
    #[must_use]
    pub fn pending_window_tokens(&self) -> [u64; 3] {
        self.tokens_since
    }

    /// Whether `cycle` has reached the next sample boundary — guard the
    /// (comparatively expensive) gathering of a [`CycleSample`] with
    /// this.
    #[inline]
    #[must_use]
    pub fn due(&self, cycle: u64) -> bool {
        self.on && cycle >= self.next_sample
    }

    /// Ingests one counter sample: updates the occupancy histogram,
    /// emits an aggregated tracer event (firings and per-class tokens
    /// since the previous sample) and schedules the next boundary.
    pub fn sample(&mut self, s: CycleSample) {
        if !self.on {
            return;
        }
        self.next_sample = s.cycle + self.sample_every;
        if self.profile_on {
            self.profile.ring_occupancy.record(self.ring_live);
        }
        if self.trace_on {
            self.tracer.push(TraceEvent::Sample {
                cycle: s.cycle,
                injected: s.injected,
                retired: s.retired,
                calendar: s.calendar,
                ready: s.ready,
                outstanding: s.outstanding,
                ring_live: self.ring_live,
                fires: self.fires_since,
                direct: self.tokens_since[EdgeClass::Direct as usize],
                elevator: self.tokens_since[EdgeClass::Elevator as usize],
                eldst: self.tokens_since[EdgeClass::Eldst as usize],
                l1_fills: s.l1_fills,
                l2_fills: s.l2_fills,
            });
        }
        self.fires_since = 0;
        self.tokens_since = [0; 3];
    }

    /// Seals the observation at the run's final cycle.
    pub fn finish(&mut self, cycles: u64) {
        if self.profile_on {
            self.profile.cycles = cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let mut obs = Obs::disabled();
        assert!(!obs.on());
        obs.phase_begin(0, 0);
        obs.node_fire(3);
        obs.edge_token(EdgeClass::Direct, 1, 2);
        obs.spill(StoreKind::Match, 5, 1);
        obs.ring_claim();
        obs.calendar_depth(99);
        assert!(!obs.due(1_000_000));
        obs.sample(CycleSample::default());
        obs.finish(123);
        assert_eq!(obs.tracer.events().count(), 0);
        assert_eq!(obs.tracer.dropped(), 0);
        assert_eq!(obs.profile, RunProfile::default());
    }

    #[test]
    fn sampling_aggregates_and_resets_window_counters() {
        let mut obs = Obs::new(true, true);
        obs.phase_begin(0, 0);
        for _ in 0..5 {
            obs.node_fire(1);
        }
        obs.edge_token(EdgeClass::Direct, 1, 2);
        obs.edge_token(EdgeClass::Elevator, 2, 3);
        assert!(obs.due(0));
        obs.sample(CycleSample {
            cycle: 100,
            ..Default::default()
        });
        assert!(!obs.due(100 + DEFAULT_SAMPLE_EVERY - 1));
        assert!(obs.due(100 + DEFAULT_SAMPLE_EVERY));
        let events: Vec<_> = obs.tracer.events().collect();
        let Some(TraceEvent::Sample {
            fires,
            direct,
            elevator,
            ..
        }) = events.last()
        else {
            panic!("expected a sample event, got {events:?}");
        };
        assert_eq!((*fires, *direct, *elevator), (5, 1, 1));
        // A second sample reports only the new window.
        obs.sample(CycleSample {
            cycle: 400,
            ..Default::default()
        });
        let Some(TraceEvent::Sample { fires, .. }) = obs.tracer.events().last() else {
            panic!("expected a sample event");
        };
        assert_eq!(*fires, 0);
    }

    #[test]
    fn profile_attributes_traffic_per_phase() {
        let mut obs = Obs::new(false, true);
        obs.phase_begin(0, 0);
        obs.node_fire(4);
        obs.edge_token(EdgeClass::Direct, 1, 4);
        obs.phase_end(50);
        obs.phase_begin(1, 60);
        obs.edge_token(EdgeClass::Direct, 1, 4);
        obs.spill(StoreKind::Eldst, 70, 2);
        obs.finish(80);
        assert_eq!(obs.profile.phases, 2);
        assert_eq!(obs.profile.cycles, 80);
        assert_eq!(obs.profile.node_fires[&(0, 4)], 1);
        assert_eq!(obs.profile.edge_tokens[&(0, 1, 4)], 1);
        assert_eq!(obs.profile.edge_tokens[&(1, 1, 4)], 1);
        assert_eq!(obs.profile.spills[StoreKind::Eldst as usize], 1);
        // Tracing off: the ring stays empty.
        assert_eq!(obs.tracer.events().count(), 0);
    }

    #[test]
    fn counted_reports_equal_repeated_singular_reports() {
        // The block-firing engine's counted calls must aggregate exactly
        // like N singular ones — windows, profile maps and class totals.
        let mut per_token = Obs::new(false, true);
        per_token.phase_begin(0, 0);
        for _ in 0..7 {
            per_token.node_fire(4);
            per_token.edge_token(EdgeClass::Direct, 4, 9);
        }
        per_token.finish(10);

        let mut counted = Obs::new(false, true);
        counted.phase_begin(0, 0);
        counted.node_fires(4, 7);
        counted.edge_tokens(EdgeClass::Direct, 4, 9, 7);
        counted.finish(10);

        assert_eq!(per_token.profile, counted.profile);
        assert_eq!(
            per_token.pending_window_tokens(),
            counted.pending_window_tokens()
        );
    }

    #[test]
    fn counted_reports_on_disabled_handle_record_nothing() {
        let mut obs = Obs::disabled();
        obs.node_fires(1, 100);
        obs.edge_tokens(EdgeClass::Eldst, 1, 2, 100);
        assert_eq!(obs.profile, RunProfile::default());
    }

    #[test]
    fn ring_occupancy_follows_claims_and_frees() {
        let mut obs = Obs::new(false, true);
        obs.ring_claim();
        obs.ring_claim();
        obs.ring_claim();
        obs.ring_free();
        obs.sample(CycleSample {
            cycle: 0,
            ..Default::default()
        });
        assert_eq!(obs.profile.ring_occupancy.count(), 1);
        assert_eq!(obs.profile.ring_occupancy.max(), 2);
    }
}
