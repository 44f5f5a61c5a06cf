//! Shared workload executor for the baseline engines.
//!
//! Every baseline (GraphChi-, X-Stream-, CuSha-, MapGraph-style) computes
//! the *same* GAS semantics — the paper runs the same four algorithms on
//! all frameworks and compares wall time. This module runs the program once
//! with the exact BSP semantics of [`graphreduce::phases`] (so all engines
//! produce bit-identical results, cross-validated against the sequential
//! oracles) and records the per-iteration work counts each engine's cost
//! model consumes.

use gr_graph::{GraphLayout, Interval, Shard};
use graphreduce::exec::host::run_to_convergence;
use graphreduce::{GasProgram, HostKernels};

/// Work counts of one iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterWork {
    /// Active vertices entering the iteration.
    pub frontier: u64,
    /// In-edges of active vertices (gather work).
    pub active_in_edges: u64,
    /// Vertices changed by apply.
    pub changed: u64,
    /// Out-edges of changed vertices (scatter / activation work; for
    /// push-style engines, the number of updates generated).
    pub out_edges_of_changed: u64,
    /// Vertices activated for the next iteration.
    pub activated: u64,
}

/// Results + per-iteration work of one workload execution.
pub struct WorkloadTrace<P: GasProgram> {
    /// Final vertex values.
    pub vertex_values: Vec<P::VertexValue>,
    /// Final edge values.
    pub edge_values: Vec<P::EdgeValue>,
    /// One entry per executed iteration.
    pub iterations: Vec<IterWork>,
}

/// Execute `program` on `layout` to convergence with BSP GAS semantics,
/// on the host pool exactly as the GraphReduce engine computes (one
/// whole-graph shard, cut into edge-balanced chunks per phase).
pub fn execute<P: GasProgram>(program: &P, layout: &GraphLayout) -> WorkloadTrace<P> {
    let whole = Shard {
        id: 0,
        interval: Interval {
            start: 0,
            end: layout.num_vertices(),
        },
        in_edges: 0..layout.num_edges() as usize,
        out_edges: 0..layout.num_edges() as usize,
    };
    let run = run_to_convergence(program, layout, &[whole], HostKernels::Adaptive);
    let iterations = run
        .iterations
        .iter()
        .zip(run.push_work)
        .map(|(s, walked)| IterWork {
            frontier: s.frontier_size,
            active_in_edges: s.gathered_edges,
            changed: s.changed,
            out_edges_of_changed: walked,
            activated: s.activated,
        })
        .collect();
    WorkloadTrace {
        vertex_values: run.vertex_values,
        edge_values: run.edge_values,
        iterations,
    }
}

/// Total in-edges gathered over the whole run.
pub fn total_gathered(iters: &[IterWork]) -> u64 {
    iters.iter().map(|w| w.active_in_edges).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_algorithms::{reference, Bfs, Cc};
    use gr_graph::gen;

    #[test]
    fn matches_sequential_gas_interpreter() {
        let layout = GraphLayout::build(&gen::uniform(300, 2400, 81).symmetrize());
        let trace = execute(&Cc, &layout);
        let (want, _, want_iters) = reference::run_gas(&Cc, &layout);
        assert_eq!(trace.vertex_values, want);
        assert_eq!(trace.iterations.len() as u32, want_iters);
    }

    #[test]
    fn bfs_trace_records_frontier_wave() {
        let layout = GraphLayout::build(&gen::uniform(300, 2400, 82).symmetrize());
        let trace = execute(&Bfs::new(0), &layout);
        assert_eq!(trace.iterations[0].frontier, 1);
        assert_eq!(trace.vertex_values, reference::bfs(&layout, 0));
        // Activation chains into the next frontier.
        for w in trace.iterations.windows(2) {
            assert_eq!(w[0].activated, w[1].frontier);
        }
    }
}
