//! The MT-CGRA / dMT-CGRA core: a cycle-level tagged-token dataflow
//! simulator.
//!
//! This crate models the paper's CGRA core (§4, Fig 7): a grid of
//! heterogeneous functional units joined by a statically-routed NoC, where
//! each unit matches dynamically tagged tokens (tag = thread id) and fires
//! following the dataflow rule. The two units the paper introduces —
//! **elevator nodes** (Fig 8) and **enhanced load/store (eLDST)** units
//! (Fig 9) — carry tokens *between* threads, implementing
//! `fromThreadOrConst` and `fromThreadOrMem`.
//!
//! [`machine::FabricMachine`] executes compiled [`program::FabricProgram`]s
//! (produced by `dmt-compiler`) against the shared memory hierarchy from
//! `dmt-mem`, and is functionally bit-identical to the reference
//! interpreter in `dmt-dfg::interp` — the test suites enforce it.
//!
//! # Examples
//!
//! ```
//! use dmt_fabric::machine::FabricMachine;
//! use dmt_fabric::testutil::naive_program;
//! use dmt_dfg::{KernelBuilder, LaunchInput};
//! use dmt_common::{SystemConfig, MemImage, Word};
//! use dmt_common::geom::{Delta, Dim3};
//! use dmt_common::ids::Addr;
//!
//! // result[tid] = in[tid] + in[tid-1] via an elevator node.
//! let mut kb = KernelBuilder::new("pair", Dim3::linear(8));
//! let inp = kb.param("in");
//! let out = kb.param("out");
//! let tid = kb.thread_idx(0);
//! let a = kb.index_addr(inp, tid, 4);
//! let x = kb.load_global(a);
//! let prev = kb.from_thread_or_const(x, Delta::new(-1), Word::from_i32(0), None);
//! let sum = kb.add_i(x, prev);
//! let oa = kb.index_addr(out, tid, 4);
//! kb.store_global(oa, sum);
//! let kernel = kb.finish()?;
//!
//! let mut mem = MemImage::with_words(16);
//! mem.write_i32_slice(Addr(0), &[1, 2, 3, 4, 5, 6, 7, 8]);
//! let machine = FabricMachine::new(SystemConfig::default());
//! let run = machine.run(
//!     &naive_program(&kernel, 12),
//!     LaunchInput::new(vec![Word::from_u32(0), Word::from_u32(32)], mem),
//! )?;
//! assert_eq!(run.memory.read_i32_slice(Addr(32), 8), vec![1, 3, 5, 7, 9, 11, 13, 15]);
//! assert!(run.stats.cycles > 0);
//! # Ok::<(), dmt_common::Error>(())
//! ```

pub mod machine;
pub mod program;
#[doc(hidden)]
pub mod testutil;

pub use machine::{FabricMachine, FabricRunResult, BATCH_MIN_REPLICATION};
pub use program::{Coord, FabricProgram, PhaseProgram};

#[cfg(test)]
mod tests {
    use crate::machine::FabricMachine;
    use crate::testutil::naive_program;
    use dmt_common::config::SystemConfig;
    use dmt_common::geom::{Delta, Dim3};
    use dmt_common::ids::Addr;
    use dmt_common::memimg::MemImage;
    use dmt_common::value::Word;
    use dmt_dfg::{interp, Kernel, KernelBuilder, LaunchInput};

    fn machine() -> FabricMachine {
        FabricMachine::new(SystemConfig::default())
    }

    /// Runs a kernel on both the interpreter and the fabric and checks the
    /// final memories agree word-for-word; returns fabric stats.
    fn differential(
        kernel: &Kernel,
        params: Vec<Word>,
        mem: MemImage,
    ) -> dmt_common::stats::RunStats {
        let oracle = interp::run_ref(kernel, &params, &mem).expect("interp ok");
        let run = machine()
            .run(&naive_program(kernel, 12), LaunchInput::new(params, mem))
            .expect("fabric ok");
        assert_eq!(
            run.memory, oracle.memory,
            "fabric memory diverges from the reference interpreter"
        );
        run.stats
    }

    #[test]
    fn elevator_neighbour_sum() {
        let n = 32u32;
        let mut kb = KernelBuilder::new("pair", Dim3::linear(n));
        let inp = kb.param("in");
        let out = kb.param("out");
        let tid = kb.thread_idx(0);
        let a = kb.index_addr(inp, tid, 4);
        let x = kb.load_global(a);
        let prev = kb.from_thread_or_const(x, Delta::new(-1), Word::from_i32(0), None);
        let sum = kb.add_i(prev, x);
        let oa = kb.index_addr(out, tid, 4);
        kb.store_global(oa, sum);
        let kernel = kb.finish().unwrap();

        let mut mem = MemImage::with_words(2 * n as usize);
        let data: Vec<i32> = (0..n as i32).collect();
        mem.write_i32_slice(Addr(0), &data);
        let stats = differential(&kernel, vec![Word::from_u32(0), Word::from_u32(4 * n)], mem);
        assert_eq!(stats.threads_retired, u64::from(n));
        assert_eq!(stats.elevator_const_tokens, 1);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn bidirectional_elevators() {
        // out[t] = in[t-1] + in[t+1]: one positive and one negative delta.
        let n = 16u32;
        let mut kb = KernelBuilder::new("bidir", Dim3::linear(n));
        let inp = kb.param("in");
        let out = kb.param("out");
        let tid = kb.thread_idx(0);
        let a = kb.index_addr(inp, tid, 4);
        let x = kb.load_global(a);
        let left = kb.from_thread_or_const(x, Delta::new(-1), Word::from_i32(0), None);
        let right = kb.from_thread_or_const(x, Delta::new(1), Word::from_i32(0), None);
        let sum = kb.add_i(left, right);
        let oa = kb.index_addr(out, tid, 4);
        kb.store_global(oa, sum);
        let kernel = kb.finish().unwrap();

        let mut mem = MemImage::with_words(2 * n as usize);
        let data: Vec<i32> = (1..=n as i32).collect();
        mem.write_i32_slice(Addr(0), &data);
        let stats = differential(&kernel, vec![Word::from_u32(0), Word::from_u32(4 * n)], mem);
        assert_eq!(stats.elevator_const_tokens, 2, "one per boundary");
    }

    #[test]
    fn eldst_forwards_memory_values() {
        // Every thread needs in[0]; only thread 0 loads it.
        let n = 16u32;
        let mut kb = KernelBuilder::new("bcast", Dim3::linear(n));
        let inp = kb.param("in");
        let out = kb.param("out");
        let tid = kb.thread_idx(0);
        let zero = kb.const_i(0);
        let is_first = kb.eq_i(tid, zero);
        let v = kb.from_thread_or_mem(inp, is_first, Delta::new(-1), None);
        let oa = kb.index_addr(out, tid, 4);
        kb.store_global(oa, v);
        let kernel = kb.finish().unwrap();

        let mut mem = MemImage::with_words(1 + n as usize);
        mem.write_i32_slice(Addr(0), &[42]);
        let stats = differential(&kernel, vec![Word::from_u32(0), Word::from_u32(4)], mem);
        assert_eq!(stats.global_loads, 1, "one real load");
        assert_eq!(stats.eldst_forwards, u64::from(n - 1));
    }

    #[test]
    fn windowed_eldst_loads_once_per_group() {
        // Window of 4: thread 4k loads, the rest of its group forward.
        let n = 16u32;
        let win = 4u32;
        let mut kb = KernelBuilder::new("win_bcast", Dim3::linear(n));
        let inp = kb.param("in");
        let out = kb.param("out");
        let tid = kb.thread_idx(0);
        let w = kb.const_i(win as i32);
        let lane = kb.rem_i(tid, w);
        let zero = kb.const_i(0);
        let is_leader = kb.eq_i(lane, zero);
        let group = kb.div_i(tid, w);
        let ga = kb.index_addr(inp, group, 4);
        let v = kb.from_thread_or_mem(ga, is_leader, Delta::new(-1), Some(win));
        let oa = kb.index_addr(out, tid, 4);
        kb.store_global(oa, v);
        let kernel = kb.finish().unwrap();

        let mut mem = MemImage::with_words(4 + n as usize);
        mem.write_i32_slice(Addr(0), &[10, 20, 30, 40]);
        let stats = differential(&kernel, vec![Word::from_u32(0), Word::from_u32(16)], mem);
        assert_eq!(stats.global_loads, 4, "one load per window group");
        assert_eq!(stats.eldst_forwards, u64::from(n - 4));
    }

    #[test]
    fn two_phase_kernel_with_scratchpad() {
        // Phase 1: stage tid*2 into shared memory; phase 2: copy out.
        let n = 8u32;
        let mut kb = KernelBuilder::new("staged", Dim3::linear(n));
        kb.set_shared_words(n);
        let tid = kb.thread_idx(0);
        let two = kb.const_i(2);
        let v = kb.mul_i(tid, two);
        let z = kb.const_i(0);
        let sa = kb.index_addr(z, tid, 4);
        kb.store_shared(sa, v);
        kb.barrier();
        let tid2 = kb.thread_idx(0);
        let out = kb.param("out");
        let z2 = kb.const_i(0);
        let sa2 = kb.index_addr(z2, tid2, 4);
        let x = kb.load_shared(sa2);
        let oa = kb.index_addr(out, tid2, 4);
        kb.store_global(oa, x);
        let kernel = kb.finish().unwrap();

        let mem = MemImage::with_words(n as usize);
        let stats = differential(&kernel, vec![Word::from_u32(0)], mem);
        assert_eq!(stats.shared_stores, u64::from(n));
        assert_eq!(stats.shared_loads, u64::from(n));
        assert_eq!(stats.phases, 2);
    }

    #[test]
    fn deterministic_cycle_counts() {
        let n = 16u32;
        let mut kb = KernelBuilder::new("det", Dim3::linear(n));
        let inp = kb.param("in");
        let out = kb.param("out");
        let tid = kb.thread_idx(0);
        let a = kb.index_addr(inp, tid, 4);
        let x = kb.load_global(a);
        let y = kb.add_i(x, x);
        let oa = kb.index_addr(out, tid, 4);
        kb.store_global(oa, y);
        let k = kb.finish().unwrap();

        let mk_mem = || {
            let mut m = MemImage::with_words(2 * n as usize);
            m.write_i32_slice(Addr(0), &(0..n as i32).collect::<Vec<_>>());
            m
        };
        let run = || {
            machine()
                .run(
                    &naive_program(&k, 12),
                    LaunchInput::new(vec![Word::from_u32(0), Word::from_u32(4 * n)], mk_mem()),
                )
                .unwrap()
                .stats
                .cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn multi_block_launch() {
        let n = 8u32;
        let blocks = 4u32;
        let mut kb = KernelBuilder::new("blocks", Dim3::linear(n));
        kb.set_grid_blocks(blocks);
        let out = kb.param("out");
        let tid = kb.thread_idx(0);
        let bid = kb.block_idx();
        let bdim = kb.const_i(n as i32);
        let base = kb.mul_i(bid, bdim);
        let gtid = kb.add_i(base, tid);
        let oa = kb.index_addr(out, gtid, 4);
        kb.store_global(oa, gtid);
        let kernel = kb.finish().unwrap();

        let mem = MemImage::with_words((n * blocks) as usize);
        let stats = differential(&kernel, vec![Word::from_u32(0)], mem);
        assert_eq!(stats.threads_retired, u64::from(n * blocks));
        assert_eq!(stats.global_stores, u64::from(n * blocks));
    }

    #[test]
    fn param_mismatch_is_error() {
        let mut kb = KernelBuilder::new("p", Dim3::linear(4));
        let out = kb.param("out");
        let tid = kb.thread_idx(0);
        kb.store_global(out, tid);
        let kernel = kb.finish().unwrap();
        let r = machine().run(
            &naive_program(&kernel, 12),
            LaunchInput::new(vec![], MemImage::with_words(4)),
        );
        assert!(r.is_err());
    }

    #[test]
    fn store_conflict_detected_by_oracle_not_fabric_divergence() {
        // All threads store to address 0 — the interpreter flags the race.
        let mut kb = KernelBuilder::new("race", Dim3::linear(4));
        let out = kb.param("out");
        let tid = kb.thread_idx(0);
        kb.store_global(out, tid);
        let kernel = kb.finish().unwrap();
        let r = interp::run(
            &kernel,
            LaunchInput::new(vec![Word::from_u32(0)], MemImage::with_words(4)),
        );
        assert!(r.is_err(), "the oracle rejects racy kernels");
    }
}
