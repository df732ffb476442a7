//! Incremental re-solve: dirty-row delta execution over the compiled
//! schedule tape.
//!
//! The pressure-limit loop, the lint driver, and plan regeneration all
//! re-solve the Figure-13 system after *small* edits to the initial
//! variables — one inserted `STEAL_init`, one changed reference — yet a
//! full [`crate::solve_batch_into`] replays every op of the
//! [`ScheduleTape`]. The schedule is a straight-line elimination (each
//! equation evaluated once per node), so it admits a change-driven
//! formulation: only the ops downstream of a mutated input row can
//! produce different bits.
//!
//! # How it works
//!
//! At [`ScheduleTape::compile`] time a [`DeltaIndex`] is derived from the
//! fused ops:
//!
//! * the tape is partitioned into **blocks** — contiguous op ranges that
//!   contain every *def chain* they touch in full. A def chain is the
//!   full-overwrite op that starts a row's value plus the read-modify-
//!   write ops extending it; re-running a chain suffix against the
//!   previous solve's final values would be wrong, so any op extending a
//!   chain (or reading a temporary defined earlier) merges its block
//!   backwards into the chain's block. Blocks are the unit of re-
//!   execution: replaying a whole block from its leading overwrite is
//!   always sound.
//! * a row → consumer-blocks index (which blocks read each family row
//!   from outside the row's defining block), and an external-input →
//!   blocks index (which blocks load each `TAKE_init`/`STEAL_init`/
//!   `GIVE_init` row).
//!
//! At solve time, [`solve_delta`] seeds a worklist with the blocks that
//! load the rows named in the caller's [`DeltaSet`] and replays blocks in
//! tape order using the change-detecting kernels of
//! [`gnt_dataflow::BitSlab`] (`copy_or_changed`, …): a block whose
//! outputs reproduce their previous bits enqueues nothing, so
//! propagation dies out as soon as the fixpoint re-stabilises. The
//! result is bit-identical to a full replay (the delta differential
//! suite locks this on hundreds of random programs).
//!
//! # When the engine declines
//!
//! Correct-by-construction fallbacks, all reported via
//! [`DeltaReport::full_replay`]:
//!
//! * the scratch does not hold a prior full-universe replay of the same
//!   tape (cold scratch, interpreted solve in between, changed universe
//!   width);
//! * the graph or options changed shape (fingerprint mismatch — this is
//!   how CFG edits and poison changes are handled: the tape recompiles
//!   and the first solve is a full replay);
//! * the tape contains a forward reference (a row read before its def
//!   chain, e.g. jump-in sources on reversed graphs reading a later
//!   node's `GIVEN_out`): such tapes are marked delta-unsupported at
//!   compile time and always replay in full.
//!
//! The caller's contract is the usual incremental one: between the solve
//! that established the scratch state and this call, `problem` may
//! differ **only** in the rows named by the [`DeltaSet`]. Marking a row
//! that did not change is merely wasted work; changing a row without
//! marking it yields stale results.

use crate::problem::{PlacementProblem, SolverOptions};
use crate::scratch::{SolverScratch, NUM_FAMILIES, NUM_TEMPS};
use crate::solver::{check_coverage, Solution};
use crate::tape::{ScheduleTape, TapeOp};
use gnt_cfg::{IntervalGraph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which initial-variable family of a node changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeltaKind {
    /// `TAKE_init(node)` changed.
    Take,
    /// `STEAL_init(node)` changed.
    Steal,
    /// `GIVE_init(node)` changed.
    Give,
}

impl DeltaKind {
    fn index(self) -> usize {
        match self {
            DeltaKind::Take => 0,
            DeltaKind::Steal => 1,
            DeltaKind::Give => 2,
        }
    }
}

/// The set of mutated initial-variable rows between two solves: the
/// input to [`solve_delta`]. Granularity is a whole `(family, node)` row
/// — any number of item bits of that row may have changed.
#[derive(Clone, Debug, Default)]
pub struct DeltaSet {
    entries: Vec<(DeltaKind, NodeId)>,
}

impl DeltaSet {
    /// Creates an empty set.
    pub fn new() -> DeltaSet {
        DeltaSet::default()
    }

    /// Marks `(kind, node)` as mutated.
    pub fn mark(&mut self, kind: DeltaKind, node: NodeId) -> &mut DeltaSet {
        self.entries.push((kind, node));
        self
    }

    /// Marks `TAKE_init(node)` as mutated.
    pub fn mark_take(&mut self, node: NodeId) -> &mut DeltaSet {
        self.mark(DeltaKind::Take, node)
    }

    /// Marks `STEAL_init(node)` as mutated.
    pub fn mark_steal(&mut self, node: NodeId) -> &mut DeltaSet {
        self.mark(DeltaKind::Steal, node)
    }

    /// Marks `GIVE_init(node)` as mutated.
    pub fn mark_give(&mut self, node: NodeId) -> &mut DeltaSet {
        self.mark(DeltaKind::Give, node)
    }

    /// Forgets every mark (for reuse across rounds without reallocating).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of marked rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The marked rows, in insertion order.
    pub fn entries(&self) -> &[(DeltaKind, NodeId)] {
        &self.entries
    }
}

/// What one [`solve_delta`] call actually executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// `true` if the call fell back to a full tape replay (cold scratch,
    /// fingerprint mismatch, or a delta-unsupported tape).
    pub full_replay: bool,
    /// Blocks re-executed (equals `blocks_total` on a full replay).
    pub blocks_run: usize,
    /// Total blocks of the tape's delta partition.
    pub blocks_total: usize,
    /// Tape ops re-executed (equals `ops_total` on a full replay).
    pub ops_run: usize,
    /// Total ops of the tape.
    pub ops_total: usize,
}

/// The compile-time side of the incremental engine: the tape's block
/// partition plus the row→consumer and external-input→block indices.
/// Built once inside [`ScheduleTape::compile`].
#[derive(Clone, Debug)]
pub(crate) struct DeltaIndex {
    supported: bool,
    /// Op index where each block starts (ascending). Block `b` spans
    /// `[block_starts[b], block_starts[b+1])` (the last block runs to the
    /// end of the tape).
    block_starts: Vec<u32>,
    /// CSR: family row → blocks reading it from outside its def block.
    row_consumers_off: Vec<u32>,
    row_consumers: Vec<u32>,
    /// CSR: external slot (`kind · n + node`) → blocks loading it.
    ext_consumers_off: Vec<u32>,
    ext_consumers: Vec<u32>,
}

const NO_CHAIN: u32 = u32::MAX;

impl DeltaIndex {
    fn unsupported() -> DeltaIndex {
        DeltaIndex {
            supported: false,
            block_starts: Vec::new(),
            row_consumers_off: Vec::new(),
            row_consumers: Vec::new(),
            ext_consumers_off: Vec::new(),
            ext_consumers: Vec::new(),
        }
    }

    pub(crate) fn supported(&self) -> bool {
        self.supported
    }

    pub(crate) fn num_blocks(&self) -> usize {
        self.block_starts.len()
    }

    fn row_consumers(&self, row: usize) -> &[u32] {
        let (lo, hi) = (
            self.row_consumers_off[row] as usize,
            self.row_consumers_off[row + 1] as usize,
        );
        &self.row_consumers[lo..hi]
    }

    fn ext_consumers(&self, slot: usize) -> &[u32] {
        let (lo, hi) = (
            self.ext_consumers_off[slot] as usize,
            self.ext_consumers_off[slot + 1] as usize,
        );
        &self.ext_consumers[lo..hi]
    }

    /// Derives the block partition and the consumer indices from the
    /// fused ops of a tape over `n` nodes. Returns an unsupported index
    /// (never consulted; [`solve_delta`] always replays in full) when the
    /// tape violates the assumptions of block re-execution — see the
    /// module docs.
    pub(crate) fn build(ops: &[TapeOp], n: usize) -> DeltaIndex {
        let family_rows = NUM_FAMILIES * n;
        let num_rows = family_rows + NUM_TEMPS;
        let is_temp = |r: usize| r >= family_rows;

        let mut ever_written = vec![false; num_rows];
        for &op in ops {
            ever_written[op_dst(op) as usize] = true;
        }

        // Pass 1: block formation. Every full-overwrite op tentatively
        // opens a block; extending a def chain (RMW on a row defined
        // earlier) or reading a temporary merges the current block
        // backwards into the block holding that chain's start.
        let mut chain_start: Vec<u32> = vec![NO_CHAIN; num_rows];
        let mut starts: Vec<u32> = Vec::new();
        let mut srcs = [0u32; 3];
        let merge_to = |starts: &mut Vec<u32>, s: u32| {
            while starts.last().is_some_and(|&last| last > s) {
                starts.pop();
            }
        };
        for (i, &op) in ops.iter().enumerate() {
            let iu = u32::try_from(i).expect("op index fits u32");
            let dst = op_dst(op) as usize;
            if op_is_rmw(op) {
                let s = chain_start[dst];
                if s == NO_CHAIN {
                    // RMW of a never-initialised row: the full replay
                    // reads the zeros of `prepare()`, a delta replay
                    // would read the previous solve.
                    return DeltaIndex::unsupported();
                }
                merge_to(&mut starts, s);
            } else {
                if chain_start[dst] != NO_CHAIN && !is_temp(dst) {
                    // A second def chain for a family row: reads between
                    // the two chains would observe the wrong chain when
                    // only the later block reruns.
                    return DeltaIndex::unsupported();
                }
                starts.push(iu);
                chain_start[dst] = iu;
            }
            let ns = op_srcs(op, &mut srcs);
            for &src in &srcs[..ns] {
                let s = chain_start[src as usize];
                if s == NO_CHAIN {
                    if ever_written[src as usize] {
                        // Forward reference: full replay reads zeros
                        // here, a delta replay would read the previous
                        // solve's final value.
                        return DeltaIndex::unsupported();
                    }
                    // Never-written rows stay zero forever — safe.
                } else if is_temp(src as usize) {
                    merge_to(&mut starts, s);
                }
            }
        }
        if starts.first() != Some(&0) {
            return DeltaIndex::unsupported();
        }

        // Block id of every op, by a linear walk over the boundaries.
        let num_blocks = starts.len();
        let mut op_block = vec![0u32; ops.len()];
        let mut b = 0usize;
        for (i, blk) in op_block.iter_mut().enumerate() {
            while b + 1 < num_blocks && (starts[b + 1] as usize) <= i {
                b += 1;
            }
            *blk = u32::try_from(b).expect("block id fits u32");
        }

        // Pass 2: consumer edges. `chain_start` now holds each family
        // row's unique chain start (temporaries are block-internal by
        // construction and need no edges).
        let mut row_edges: Vec<(u32, u32)> = Vec::new();
        let mut ext_edges: Vec<(u32, u32)> = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            let blk = op_block[i];
            if let Some((kind, node)) = op_ext(op) {
                let slot = u32::try_from(kind.index() * n).expect("slot fits u32") + node;
                ext_edges.push((slot, blk));
            }
            let ns = op_srcs(op, &mut srcs);
            for &src in &srcs[..ns] {
                if is_temp(src as usize) {
                    continue;
                }
                let s = chain_start[src as usize];
                if s == NO_CHAIN {
                    continue; // never written: permanently empty
                }
                let src_block = op_block[s as usize];
                if src_block != blk {
                    debug_assert!(src_block < blk, "forward refs were rejected above");
                    row_edges.push((src, blk));
                }
            }
        }
        row_edges.sort_unstable();
        row_edges.dedup();
        ext_edges.sort_unstable();
        ext_edges.dedup();

        let build_csr = |edges: &[(u32, u32)], slots: usize| -> (Vec<u32>, Vec<u32>) {
            let mut off = vec![0u32; slots + 1];
            for &(r, _) in edges {
                off[r as usize + 1] += 1;
            }
            for k in 0..slots {
                off[k + 1] += off[k];
            }
            (off, edges.iter().map(|&(_, blk)| blk).collect())
        };
        let (row_consumers_off, row_consumers) = build_csr(&row_edges, family_rows);
        let (ext_consumers_off, ext_consumers) = build_csr(&ext_edges, 3 * n);

        DeltaIndex {
            supported: true,
            block_starts: starts,
            row_consumers_off,
            row_consumers,
            ext_consumers_off,
            ext_consumers,
        }
    }
}

/// The single destination row of an op.
fn op_dst(op: TapeOp) -> u32 {
    match op {
        TapeOp::Clear { dst }
        | TapeOp::Fill { dst }
        | TapeOp::Copy { dst, .. }
        | TapeOp::Or { dst, .. }
        | TapeOp::And { dst, .. }
        | TapeOp::AndNot { dst, .. }
        | TapeOp::OrAndNot { dst, .. }
        | TapeOp::CopyOr { dst, .. }
        | TapeOp::CopyAnd { dst, .. }
        | TapeOp::CopyAndNot { dst, .. }
        | TapeOp::CopyOrAndNot { dst, .. }
        | TapeOp::LoadTake { dst, .. }
        | TapeOp::LoadSteal { dst, .. }
        | TapeOp::LoadGive { dst, .. } => dst,
    }
}

/// `true` for ops that read their destination's prior value (the ops
/// that *extend* a def chain rather than start one).
fn op_is_rmw(op: TapeOp) -> bool {
    matches!(
        op,
        TapeOp::Or { .. } | TapeOp::And { .. } | TapeOp::AndNot { .. } | TapeOp::OrAndNot { .. }
    )
}

/// Writes the arena-row sources of `op` (excluding the destination) into
/// `buf` and returns how many there are.
fn op_srcs(op: TapeOp, buf: &mut [u32; 3]) -> usize {
    match op {
        TapeOp::Clear { .. }
        | TapeOp::Fill { .. }
        | TapeOp::LoadTake { .. }
        | TapeOp::LoadSteal { .. }
        | TapeOp::LoadGive { .. } => 0,
        TapeOp::Copy { a, .. }
        | TapeOp::Or { a, .. }
        | TapeOp::And { a, .. }
        | TapeOp::AndNot { a, .. } => {
            buf[0] = a;
            1
        }
        TapeOp::OrAndNot { a, b, .. }
        | TapeOp::CopyOr { a, b, .. }
        | TapeOp::CopyAnd { a, b, .. }
        | TapeOp::CopyAndNot { a, b, .. } => {
            buf[0] = a;
            buf[1] = b;
            2
        }
        TapeOp::CopyOrAndNot { a, b, c, .. } => {
            buf[0] = a;
            buf[1] = b;
            buf[2] = c;
            3
        }
    }
}

/// The external input `op` loads, if any.
fn op_ext(op: TapeOp) -> Option<(DeltaKind, u32)> {
    match op {
        TapeOp::LoadTake { node, .. } => Some((DeltaKind::Take, node)),
        TapeOp::LoadSteal { node, .. } => Some((DeltaKind::Steal, node)),
        TapeOp::LoadGive { node, .. } => Some((DeltaKind::Give, node)),
        _ => None,
    }
}

fn push_block(heap: &mut BinaryHeap<Reverse<u32>>, queued: &mut [u64], blk: u32) {
    let (w, bit) = ((blk / 64) as usize, blk % 64);
    if queued[w] & (1 << bit) == 0 {
        queued[w] |= 1 << bit;
        heap.push(Reverse(blk));
    }
}

/// Replays only the blocks transitively reachable from the dirty rows,
/// in tape order, stopping each branch of the propagation as soon as a
/// block's outputs reproduce their previous bits.
fn execute_delta(
    tape: &ScheduleTape,
    problem: &PlacementProblem,
    scratch: &mut SolverScratch,
    delta: &DeltaSet,
    report: &mut DeltaReport,
) {
    let index = tape.delta_index();
    debug_assert!(index.supported);
    let n = tape.num_nodes();
    let family_rows = NUM_FAMILIES * n;
    let ops = tape.ops();
    let num_blocks = index.block_starts.len();

    let mut heap: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
    let mut queued = vec![0u64; num_blocks.div_ceil(64)];
    for &(kind, node) in delta.entries() {
        assert!(node.index() < n, "delta node out of range");
        for &blk in index.ext_consumers(kind.index() * n + node.index()) {
            push_block(&mut heap, &mut queued, blk);
        }
    }

    let mut changed_rows: Vec<u32> = Vec::new();
    while let Some(Reverse(blk)) = heap.pop() {
        report.blocks_run += 1;
        let start = index.block_starts[blk as usize] as usize;
        let end = if (blk as usize) + 1 < num_blocks {
            index.block_starts[blk as usize + 1] as usize
        } else {
            ops.len()
        };
        changed_rows.clear();
        for &op in &ops[start..end] {
            report.ops_run += 1;
            let slab = &mut scratch.slab;
            let changed = match op {
                TapeOp::Clear { dst } => slab.clear_changed(dst as usize),
                TapeOp::Fill { dst } => slab.fill_changed(dst as usize),
                TapeOp::Copy { dst, a } => slab.copy_changed(dst as usize, a as usize),
                TapeOp::Or { dst, a } => slab.or_changed(dst as usize, a as usize),
                TapeOp::And { dst, a } => slab.and_changed(dst as usize, a as usize),
                TapeOp::AndNot { dst, a } => slab.andnot_changed(dst as usize, a as usize),
                TapeOp::OrAndNot { dst, a, b } => {
                    slab.or_andnot_changed(dst as usize, a as usize, b as usize)
                }
                TapeOp::CopyOr { dst, a, b } => {
                    slab.copy_or_changed(dst as usize, a as usize, b as usize)
                }
                TapeOp::CopyAnd { dst, a, b } => {
                    slab.copy_and_changed(dst as usize, a as usize, b as usize)
                }
                TapeOp::CopyAndNot { dst, a, b } => {
                    slab.copy_andnot_changed(dst as usize, a as usize, b as usize)
                }
                TapeOp::CopyOrAndNot { dst, a, b, c } => {
                    slab.copy_or_andnot_changed(dst as usize, a as usize, b as usize, c as usize)
                }
                TapeOp::LoadTake { dst, node } => {
                    slab.load_changed(dst as usize, problem.take_init[node as usize].words())
                }
                TapeOp::LoadSteal { dst, node } => {
                    slab.load_changed(dst as usize, problem.steal_init[node as usize].words())
                }
                TapeOp::LoadGive { dst, node } => {
                    slab.load_changed(dst as usize, problem.give_init[node as usize].words())
                }
            };
            if changed {
                let dst = op_dst(op);
                if (dst as usize) < family_rows && !changed_rows.contains(&dst) {
                    changed_rows.push(dst);
                }
            }
        }
        for &row in &changed_rows {
            for &consumer in index.row_consumers(row as usize) {
                debug_assert!(consumer > blk, "consumers are downstream in tape order");
                push_block(&mut heap, &mut queued, consumer);
            }
        }
    }
}

/// Incrementally re-solves a BEFORE problem after the mutations named in
/// `delta`, leaving every Figure-13 variable readable in `scratch` — the
/// change-driven analogue of [`crate::solve_batch_into`].
///
/// Requirements for the incremental path (checked at run time; any miss
/// falls back to a full replay, reported via
/// [`DeltaReport::full_replay`]): `scratch` must hold a prior
/// full-universe solve of the same `(graph, opts)` shape and universe
/// width — i.e. a preceding [`crate::solve_batch_into`] or `solve_delta`
/// call — and `problem` may differ from the problem of that solve only
/// in the rows marked in `delta`. Results are bit-identical to a fresh
/// [`crate::solve_batch_into`] either way.
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`, or a delta
/// entry names a node outside the graph.
///
/// # Examples
///
/// ```
/// use gnt_core::{solve_batch_into, solve_delta, DeltaSet};
/// use gnt_core::{PlacementProblem, SolverOptions, SolverScratch};
/// use gnt_cfg::IntervalGraph;
///
/// let p = gnt_ir::parse("do i = 1, N\n  ... = x(a(i))\nenddo")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let body = g.nodes().find(|&n| g.level(n) == 2).unwrap();
/// let mut problem = PlacementProblem::new(g.num_nodes(), 8);
/// problem.take(body, 3);
/// let (opts, mut scratch) = (SolverOptions::default(), SolverScratch::new());
/// solve_batch_into(&g, &problem, &opts, &mut scratch); // full solve
///
/// problem.steal(g.root(), 3); // block hoisting past the root…
/// let mut delta = DeltaSet::new();
/// delta.mark_steal(g.root()); // …and tell the solver what changed
/// let report = solve_delta(&g, &problem, &opts, &mut scratch, &delta);
/// assert!(!report.full_replay);
/// assert!(report.ops_run < report.ops_total);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_delta(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    delta: &DeltaSet,
) -> DeltaReport {
    check_coverage(graph, problem);
    let tape = scratch.tapes.take_or_compile(graph, opts);
    let mut report = DeltaReport {
        blocks_total: tape.delta_index().num_blocks(),
        ops_total: tape.num_ops(),
        ..Default::default()
    };
    let incremental = tape.delta_supported()
        && scratch.delta_basis() == Some(tape.fingerprint_value())
        && scratch.num_nodes() == graph.num_nodes()
        && scratch.universe_bits() == problem.universe_size;
    if incremental {
        execute_delta(&tape, problem, scratch, delta, &mut report);
    } else {
        report.full_replay = true;
        report.blocks_run = report.blocks_total;
        report.ops_run = report.ops_total;
        tape.execute_into(problem, scratch);
    }
    scratch.tapes.put(tape);
    report
}

/// [`solve_delta`] followed by [`SolverScratch::export`]: the
/// change-driven drop-in for [`crate::solve_batch_with_scratch`].
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`, or a delta
/// entry names a node outside the graph.
pub fn solve_delta_with_scratch(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    delta: &DeltaSet,
) -> (Solution, DeltaReport) {
    let report = solve_delta(graph, problem, opts, scratch, delta);
    (scratch.export(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;
    use crate::tape::solve_batch_into;
    use gnt_cfg::{reversed_graph, NodeKind};
    use gnt_ir::parse;

    fn graph(src: &str) -> IntervalGraph {
        IntervalGraph::from_program(&parse(src).unwrap()).unwrap()
    }

    const BRANCHY: &str = "do i = 1, N\n  ... = x(a(i))\n  if t(i) goto 7\n  z = 0\nenddo\n\
                           if test then\n  c = 3\nelse\n  d = 4\nendif\n7 e = 5";

    fn take_everywhere(g: &IntervalGraph, items: usize) -> PlacementProblem {
        let mut prob = PlacementProblem::new(g.num_nodes(), items);
        for (k, node) in g
            .nodes()
            .filter(|&n| matches!(g.kind(n), NodeKind::Stmt(_)))
            .enumerate()
        {
            prob.take(node, k % items);
        }
        prob
    }

    #[test]
    fn forward_tapes_support_delta_and_partition_into_blocks() {
        let g = graph(BRANCHY);
        let tape = ScheduleTape::compile(&g, &SolverOptions::default());
        assert!(tape.delta_supported());
        let blocks = tape.delta_index().num_blocks();
        assert!(
            blocks > g.num_nodes(),
            "expected per-equation blocks, got {blocks}"
        );
    }

    #[test]
    fn cold_scratch_falls_back_to_a_full_replay() {
        let g = graph(BRANCHY);
        let prob = take_everywhere(&g, 16);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        let delta = DeltaSet::new();
        let report = solve_delta(&g, &prob, &opts, &mut scratch, &delta);
        assert!(report.full_replay);
        assert_eq!(scratch.export(), solve(&g, &prob, &opts));
    }

    #[test]
    fn incremental_resolve_is_bit_identical_and_skips_ops() {
        let g = graph(BRANCHY);
        let mut prob = take_everywhere(&g, 16);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_batch_into(&g, &prob, &opts, &mut scratch);

        prob.steal(g.root(), 5);
        let mut delta = DeltaSet::new();
        delta.mark_steal(g.root());
        let report = solve_delta(&g, &prob, &opts, &mut scratch, &delta);
        assert!(!report.full_replay, "warm scratch must go incremental");
        assert!(
            report.ops_run < report.ops_total,
            "a one-row delta must not replay the whole tape ({} vs {})",
            report.ops_run,
            report.ops_total
        );
        assert_eq!(scratch.export(), solve(&g, &prob, &opts));
    }

    #[test]
    fn empty_delta_on_a_warm_scratch_runs_nothing() {
        let g = graph(BRANCHY);
        let prob = take_everywhere(&g, 16);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_batch_into(&g, &prob, &opts, &mut scratch);
        let report = solve_delta(&g, &prob, &opts, &mut scratch, &DeltaSet::new());
        assert!(!report.full_replay);
        assert_eq!(report.blocks_run, 0);
        assert_eq!(report.ops_run, 0);
        assert_eq!(scratch.export(), solve(&g, &prob, &opts));
    }

    #[test]
    fn jump_in_tapes_decline_and_still_solve_correctly() {
        // Reversing a graph with a forward goto creates jump-in sources:
        // Eq. 11 then reads GIVEN_out of nodes later in preorder — a
        // forward reference the index refuses.
        let g = graph(BRANCHY);
        let rev = reversed_graph(&g).unwrap();
        assert!(rev.nodes().any(|n| !rev.jump_in_sources(n).is_empty()));
        let opts = SolverOptions::default();
        let tape = ScheduleTape::compile(&rev, &opts);
        assert!(!tape.delta_supported());

        let mut prob = take_everywhere(&rev, 8);
        let mut scratch = SolverScratch::new();
        solve_batch_into(&rev, &prob, &opts, &mut scratch);
        prob.steal(rev.root(), 2);
        let mut delta = DeltaSet::new();
        delta.mark_steal(rev.root());
        let report = solve_delta(&rev, &prob, &opts, &mut scratch, &delta);
        assert!(report.full_replay, "unsupported tape must replay in full");
        assert_eq!(scratch.export(), solve(&rev, &prob, &opts));
    }

    #[test]
    fn changed_universe_width_falls_back() {
        let g = graph(BRANCHY);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_batch_into(&g, &take_everywhere(&g, 64), &opts, &mut scratch);
        let prob = take_everywhere(&g, 65);
        let report = solve_delta(&g, &prob, &opts, &mut scratch, &DeltaSet::new());
        assert!(report.full_replay);
        assert_eq!(scratch.export(), solve(&g, &prob, &opts));
    }
}
