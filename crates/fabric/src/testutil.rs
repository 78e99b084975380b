//! Test and example helpers: naive kernel → program lowering, and a hook
//! that forces the engine's fire path.
//!
//! [`naive_program`] bypasses the real compiler (`dmt-compiler`): no
//! capacity checks, no cascading, no placement optimization — every node
//! is dropped onto the grid row-major. Useful for exercising the machine
//! in isolation; real users should compile with `dmt-compiler`.

use crate::machine::{FabricMachine, FabricRunResult};
use crate::program::{Coord, FabricProgram, PhaseProgram};
use dmt_common::{Result, RunLimits};
use dmt_dfg::kernel::LaunchInput;
use dmt_dfg::Kernel;
use dmt_obs::Obs;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Lowers a kernel with identity transforms and row-major placement on a
/// `width`-wide grid.
#[must_use]
pub fn naive_program(kernel: &Kernel, width: u32) -> FabricProgram {
    let phases = kernel
        .phases()
        .iter()
        .map(|g| {
            let placement: Vec<Coord> = g
                .node_ids()
                .map(|id| Coord {
                    x: id.0 % width,
                    y: id.0 / width,
                })
                .collect();
            let edge_hops = PhaseProgram::hops_from_placement(g, &placement);
            let mut unit_usage = BTreeMap::new();
            for id in g.node_ids() {
                if let Some(class) = g.kind(id).unit_class() {
                    *unit_usage.entry(class).or_insert(0) += 1;
                }
            }
            PhaseProgram {
                graph: g.clone(),
                placement,
                edge_hops,
                unit_usage,
                lvc_spilled: HashSet::new(),
                eldst_loop_latency: HashMap::new(),
            }
        })
        .collect();
    FabricProgram {
        name: kernel.name().to_owned(),
        block: kernel.block(),
        grid_blocks: kernel.grid_blocks(),
        param_count: kernel.param_names().len(),
        shared_words: kernel.shared_words(),
        replication: 1,
        phases,
    }
}

/// Runs `program` with block-fire forced on or off, whatever its
/// replication — the hook the fire-path equivalence tests use (the
/// public API picks the path from replication alone; see
/// [`crate::BATCH_MIN_REPLICATION`]).
///
/// # Errors
///
/// As [`FabricMachine::run`].
#[doc(hidden)]
pub fn run_with_block_fire(
    machine: &FabricMachine,
    program: &FabricProgram,
    input: LaunchInput,
    obs: &mut Obs,
    block_fire: bool,
) -> Result<FabricRunResult> {
    machine.run_engine(program, input, obs, &RunLimits::unlimited(), block_fire)
}
