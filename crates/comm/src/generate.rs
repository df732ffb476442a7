//! Running GIVE-N-TAKE on the communication problems and collecting the
//! placed operations.
//!
//! The READ problem is a BEFORE problem: `READ_Send` is its EAGER
//! solution, `READ_Recv` its LAZY solution. The WRITE problem is an AFTER
//! problem: `WRITE_Send` is the LAZY solution (right after the defining
//! code) and `WRITE_Recv` the EAGER one (as late as legal) — §3.1.

use crate::analyze::CommAnalysis;
use gnt_cfg::{EdgeMask, IntervalGraph, NodeId};
use gnt_core::{
    shift_off_synthetic, solve_after_with_scratch, solve_with_pressure_limit_in_place,
    solve_with_scratch, AfterSolution, Flavor, FlavorSolution, PlacementProblem, PressureReport,
    Solution, SolverOptions, SolverScratch,
};
use gnt_dataflow::ItemId;
use std::fmt;

/// The communication operation kinds.
///
/// Sorting order doubles as the emission order when several operations
/// share one program point: writes (and reductions) complete before reads
/// re-communicate, sends precede their receives, and split pairs precede
/// atomic operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Definer sends data back to the owner (LAZY WRITE).
    WriteSend,
    /// Owner receives the write-back (EAGER WRITE).
    WriteRecv,
    /// Definer sends a reduction contribution (LAZY WRITE of a reduction
    /// item).
    ReduceSend,
    /// Owner combines the contribution with its value (EAGER WRITE of a
    /// reduction item).
    ReduceRecv,
    /// Fused write-back, e.g. a library call (atomic placement).
    WriteAtomic,
    /// Fused reduction (atomic placement).
    ReduceAtomic,
    /// Owner sends data to the referencing processor (EAGER READ).
    ReadSend,
    /// Referencing processor receives (LAZY READ).
    ReadRecv,
    /// Fused read (atomic placement).
    ReadAtomic,
}

impl OpKind {
    /// `true` for the kinds that start a transfer (sends).
    pub fn is_send(self) -> bool {
        matches!(
            self,
            OpKind::ReadSend | OpKind::WriteSend | OpKind::ReduceSend
        )
    }

    /// `true` for the fused, blocking kinds.
    pub fn is_atomic(self) -> bool {
        matches!(
            self,
            OpKind::ReadAtomic | OpKind::WriteAtomic | OpKind::ReduceAtomic
        )
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpKind::ReadSend => "READ_send",
            OpKind::ReadRecv => "READ_recv",
            OpKind::ReadAtomic => "READ",
            OpKind::WriteSend => "WRITE_send",
            OpKind::WriteRecv => "WRITE_recv",
            OpKind::WriteAtomic => "WRITE",
            OpKind::ReduceSend => "REDUCE_send",
            OpKind::ReduceRecv => "REDUCE_recv",
            OpKind::ReduceAtomic => "REDUCE",
        })
    }
}

/// Whether operations are split into balanced Send/Recv pairs (the
/// paper's latency-hiding mode) or emitted as single fused operations
/// (e.g. for a communication library without split entry points) — §6:
/// "all of which can be placed either atomically (for example, for a
/// library call), or divided into sends and receives".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PlacementStyle {
    /// EAGER sends, LAZY receives (default).
    #[default]
    Split,
    /// One fused operation at the LAZY placement point.
    Atomic,
}

/// One placed communication operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CommOp {
    /// What kind of transfer.
    pub kind: OpKind,
    /// Which array portion (index into the analysis universe).
    pub item: ItemId,
}

/// A complete communication placement: operations attached before/after
/// every node of the (forward) interval graph, plus the solutions they
/// were emitted from, so consumers (the lint driver) read them instead of
/// reversing the graph and solving again.
#[derive(Clone, Debug)]
pub struct CommPlan {
    /// The analysis this plan was computed from.
    pub analysis: CommAnalysis,
    /// Operations executed immediately before each node (loop headers:
    /// before the `do`, once).
    pub before: Vec<Vec<CommOp>>,
    /// Operations executed immediately after each node (loop headers:
    /// after the `enddo`).
    pub after: Vec<Vec<CommOp>>,
    /// Outcome of the pressure-limited READ solve, when
    /// [`GenerateOptions::max_in_flight`] was set; `None` for unlimited
    /// plans.
    pub read_pressure: Option<PressureReport>,
    /// The READ solution the READ ops were emitted from: `RES_in` and
    /// `RES_out` shifted off synthetic nodes (§5.4), every other variable
    /// as solved. Under a pressure bound it solves the bounded problem.
    pub read: Solution,
    /// The WRITE solution as solved: unshifted, on its own reversed graph
    /// (headers poisoned by the §5.3 fallback included). Emission shifts
    /// copies of its `RES` rows.
    pub write: AfterSolution,
    /// The WRITE problem [`CommPlan::write`] solves, indexed by forward
    /// node ids: the analysis's references plus the placed reads as
    /// destroyers (phase coupling).
    pub write_problem: PlacementProblem,
}

impl CommPlan {
    /// All placed operations with their anchor, `(node, is_before, op)`.
    pub fn ops(&self) -> impl Iterator<Item = (NodeId, bool, CommOp)> + '_ {
        let before = self
            .before
            .iter()
            .enumerate()
            .flat_map(|(i, v)| v.iter().map(move |&op| (NodeId(i as u32), true, op)));
        let after = self
            .after
            .iter()
            .enumerate()
            .flat_map(|(i, v)| v.iter().map(move |&op| (NodeId(i as u32), false, op)));
        before.chain(after)
    }

    /// Number of placed operations of `kind`.
    pub fn count(&self, kind: OpKind) -> usize {
        self.ops().filter(|(_, _, op)| op.kind == kind).count()
    }
}

/// Knobs for [`generate_with_options`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenerateOptions {
    /// Split Send/Recv pairs or fused atomic operations.
    pub style: PlacementStyle,
    /// When set, bound the READ solve's in-flight message count: the
    /// solver re-solves with heuristic `STEAL_init` insertions (§6
    /// pressure extension) until no program point has more than this many
    /// sent-but-unreceived portions. The re-solve rounds run on the
    /// incremental delta engine, so tightening the bound costs far less
    /// than repeated full solves.
    pub max_in_flight: Option<usize>,
    /// Round budget for the pressure heuristic (the bound may be
    /// infeasible).
    pub max_pressure_rounds: usize,
}

impl Default for GenerateOptions {
    fn default() -> GenerateOptions {
        GenerateOptions {
            style: PlacementStyle::Split,
            max_in_flight: None,
            max_pressure_rounds: 32,
        }
    }
}

/// Solves both problems and assembles the plan with the default
/// [`PlacementStyle::Split`].
///
/// # Errors
///
/// Fails if the reversed graph for the WRITE problem cannot be built.
pub fn generate(analysis: CommAnalysis) -> Result<CommPlan, Box<dyn std::error::Error>> {
    generate_styled(analysis, PlacementStyle::Split)
}

/// Solves both problems and assembles the plan in the given style.
///
/// # Errors
///
/// Fails if the reversed graph for the WRITE problem cannot be built.
pub fn generate_styled(
    analysis: CommAnalysis,
    style: PlacementStyle,
) -> Result<CommPlan, Box<dyn std::error::Error>> {
    let mut scratch = SolverScratch::new();
    generate_with_options(
        analysis,
        &GenerateOptions {
            style,
            ..Default::default()
        },
        &mut scratch,
    )
}

/// The fully-parameterized entry point: solves both problems through the
/// caller's `scratch` (sharing its arena with whatever solved before —
/// the lint driver threads one scratch through generation and blame) and
/// assembles the plan. Each problem is solved once, on the interpreter;
/// only the pressure-bounded READ solve, which re-solves one graph round
/// after round, compiles a schedule tape.
///
/// # Errors
///
/// Fails if the reversed graph for the WRITE problem cannot be built.
pub fn generate_with_options(
    analysis: CommAnalysis,
    gen_opts: &GenerateOptions,
    scratch: &mut SolverScratch,
) -> Result<CommPlan, Box<dyn std::error::Error>> {
    let style = gen_opts.style;
    let opts = SolverOptions::default();
    let graph = &analysis.graph;
    let n = graph.num_nodes();
    let mut before: Vec<Vec<CommOp>> = vec![Vec::new(); n];
    let mut after: Vec<Vec<CommOp>> = vec![Vec::new(); n];

    // READ: BEFORE problem on the forward graph, pressure-bounded when
    // asked. One scratch arena backs this solve and the WRITE solves
    // below.
    let mut read_pressure = None;
    let mut read = match gen_opts.max_in_flight {
        Some(limit) => {
            let mut working = analysis.read_problem.clone();
            let (solution, report) = solve_with_pressure_limit_in_place(
                graph,
                &mut working,
                &opts,
                limit,
                gen_opts.max_pressure_rounds,
                scratch,
            );
            read_pressure = Some(report);
            solution
        }
        None => solve_with_scratch(graph, &analysis.read_problem, &opts, scratch),
    };

    // Phase coupling: a *placed* READ operation re-communicates owner
    // data, so every pending write-back of an overlapping portion must
    // complete first — the placed reads join the original references as
    // destroyers of the WRITE problem (this is what makes Figure 14's
    // WRITE_recv adjacent to its WRITE_send instead of sliding further
    // down). This uses the pre-shift placement so steals land on the
    // precise nodes (e.g. a loop-exit split), not on whole loop headers.
    let mut write_problem = analysis.write_problem.clone();
    let items: Vec<_> = analysis
        .universe
        .iter()
        .map(|(id, r)| (id, r.clone()))
        .collect();
    for node in graph.nodes() {
        let i = node.index();
        for flavor in [&read.eager, &read.lazy] {
            for item in flavor.res_in[i].iter().chain(flavor.res_out[i].iter()) {
                let read_ref = analysis
                    .universe
                    .resolve(gnt_dataflow::ItemId(item as u32))
                    .clone();
                for (w, wref) in &items {
                    if read_ref.may_overlap(wref) {
                        write_problem.steal(node, w.index());
                    }
                }
            }
        }
    }

    shift_off_synthetic(graph, &mut read.eager);
    shift_off_synthetic(graph, &mut read.lazy);
    let read_flavors: Vec<(&gnt_core::FlavorSolution, OpKind)> = match style {
        PlacementStyle::Split => vec![
            (&read.eager, OpKind::ReadSend),
            (&read.lazy, OpKind::ReadRecv),
        ],
        PlacementStyle::Atomic => vec![(&read.lazy, OpKind::ReadAtomic)],
    };
    for node in graph.nodes() {
        let i = node.index();
        for (flavor, kind) in &read_flavors {
            for item in flavor.res_in[i].iter() {
                before[i].push(CommOp {
                    kind: *kind,
                    item: ItemId(item as u32),
                });
            }
            for item in flavor.res_out[i].iter() {
                after[i].push(CommOp {
                    kind: *kind,
                    item: ItemId(item as u32),
                });
            }
        }
    }

    // WRITE: AFTER problem on the reversed graph. Reversed RES_in is
    // production after the node in program order; reversed RES_out before.
    // The plan keeps the solution as solved; only copies of the RES rows
    // emission reads are shifted.
    let write = solve_after_with_scratch(graph, &write_problem, &opts, scratch)?;
    let mut write_before: Vec<Vec<CommOp>> = vec![Vec::new(); n];
    let mut write_after: Vec<Vec<CommOp>> = vec![Vec::new(); n];
    let write_flavors: &[(Flavor, bool)] = match style {
        PlacementStyle::Split => &[(Flavor::Lazy, true), (Flavor::Eager, false)],
        PlacementStyle::Atomic => &[(Flavor::Lazy, true)],
    };
    let write_rows: Vec<(FlavorSolution, bool)> = write_flavors
        .iter()
        .map(|&(flavor, is_send)| {
            let solved = write.solution.flavor(flavor);
            let mut rows = FlavorSolution {
                given_in: Vec::new(),
                given: Vec::new(),
                given_out: Vec::new(),
                res_in: solved.res_in.clone(),
                res_out: solved.res_out.clone(),
            };
            shift_off_synthetic(&write.reversed, &mut rows);
            (rows, is_send)
        })
        .collect();
    for node in write.reversed.nodes() {
        let anchor = anchor_in_forward(&write.reversed, node, n);
        for (sol, is_send) in &write_rows {
            let is_send = *is_send;
            for item in sol.res_in[node.index()].iter() {
                let op = CommOp {
                    kind: write_kind(&analysis, style, is_send, item),
                    item: ItemId(item as u32),
                };
                match anchor {
                    Anchor::Node(a) => write_after[a.index()].push(op),
                    Anchor::BeforeOf(a) => write_before[a.index()].push(op),
                }
            }
            for item in sol.res_out[node.index()].iter() {
                let op = CommOp {
                    kind: write_kind(&analysis, style, is_send, item),
                    item: ItemId(item as u32),
                };
                match anchor {
                    Anchor::Node(a) => write_before[a.index()].push(op),
                    Anchor::BeforeOf(a) => write_before[a.index()].push(op),
                }
            }
        }
    }
    // WRITE_send precedes WRITE_recv; both precede READ ops at the same
    // point (Figure 3).
    for i in 0..n {
        write_before[i].sort_by_key(|op| op.kind);
        write_after[i].sort_by_key(|op| op.kind);
        let mut merged = std::mem::take(&mut write_before[i]);
        merged.append(&mut before[i]);
        before[i] = merged;
        let mut merged_after = std::mem::take(&mut write_after[i]);
        merged_after.append(&mut after[i]);
        after[i] = merged_after;
    }

    Ok(CommPlan {
        analysis,
        before,
        after,
        read_pressure,
        read,
        write,
        write_problem,
    })
}

/// Chooses the operation kind for a write-back of `item`.
fn write_kind(
    analysis: &CommAnalysis,
    style: PlacementStyle,
    is_send: bool,
    item: usize,
) -> OpKind {
    let reduction = analysis.reductions.contains_key(&ItemId(item as u32));
    match (style, reduction, is_send) {
        (PlacementStyle::Atomic, true, _) => OpKind::ReduceAtomic,
        (PlacementStyle::Atomic, false, _) => OpKind::WriteAtomic,
        (PlacementStyle::Split, true, true) => OpKind::ReduceSend,
        (PlacementStyle::Split, true, false) => OpKind::ReduceRecv,
        (PlacementStyle::Split, false, true) => OpKind::WriteSend,
        (PlacementStyle::Split, false, false) => OpKind::WriteRecv,
    }
}

enum Anchor {
    /// A node of the forward graph.
    Node(NodeId),
    /// The reversed node is synthetic-only; anchor before this forward
    /// node instead (its unique downstream real neighbor).
    BeforeOf(NodeId),
}

/// Maps a reversed-graph node to a forward-graph anchor. Nodes shared
/// with the forward graph map to themselves; extra synthetic nodes of the
/// reversed graph anchor before their closest real *predecessor in
/// reversed orientation* (which is downstream in program order).
fn anchor_in_forward(reversed: &IntervalGraph, node: NodeId, forward_n: usize) -> Anchor {
    if node.index() < forward_n {
        return Anchor::Node(node);
    }
    // Walk to a real node through reversed predecessors (downstream in
    // program order), so the op runs before it.
    let mut cur = node;
    for _ in 0..reversed.num_nodes() {
        match reversed.preds(cur, EdgeMask::CEFJ).next() {
            Some(p) if p.index() < forward_n => return Anchor::BeforeOf(p),
            Some(p) => cur = p,
            None => break,
        }
    }
    Anchor::BeforeOf(reversed.root())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, CommConfig};
    use gnt_ir::parse;

    fn plan(src: &str, arrays: &[&str]) -> CommPlan {
        let p = parse(src).unwrap();
        let a = analyze(&p, &CommConfig::distributed(arrays)).unwrap();
        generate(a).unwrap()
    }

    #[test]
    fn figure_2_plan_has_one_send_and_two_recvs() {
        let plan = plan(
            "do i = 1, N\n  y(i) = ...\nenddo\n\
             if test then\n  do j = 1, N\n    z(j) = ...\n  enddo\n\
             do k = 1, N\n    ... = x(a(k))\n  enddo\n\
             else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif",
            &["x"],
        );
        assert_eq!(plan.count(OpKind::ReadSend), 1);
        assert_eq!(plan.count(OpKind::ReadRecv), 2);
        assert_eq!(plan.count(OpKind::WriteSend), 0);
        // The send is before the very first node reachable: the i-loop
        // header side of the program (hoisted to ROOT or shifted to the
        // first real node).
        let (send_node, is_before, _) = plan
            .ops()
            .find(|(_, _, op)| op.kind == OpKind::ReadSend)
            .unwrap();
        assert!(is_before);
        let g = &plan.analysis.graph;
        assert!(g.preorder_index(send_node) <= 2, "{}", g.dump());
    }

    #[test]
    fn unlimited_options_match_the_plain_entry_point() {
        let src = "do i = 1, N\n  y(i) = ...\nenddo\ndo k = 1, N\n  ... = x(a(k))\nenddo";
        let p = parse(src).unwrap();
        let a = analyze(&p, &CommConfig::distributed(&["x"])).unwrap();
        let plain = generate(a.clone()).unwrap();
        let mut scratch = SolverScratch::new();
        let opted = generate_with_options(a, &GenerateOptions::default(), &mut scratch).unwrap();
        assert_eq!(plain.before, opted.before);
        assert_eq!(plain.after, opted.after);
        assert!(opted.read_pressure.is_none());
        // Both problems are solved once each, on the interpreter.
        assert!(
            scratch.cached_tape().is_none(),
            "one-shot solves compile no tape"
        );
    }

    #[test]
    fn bounded_in_flight_reports_pressure_and_uses_delta_rounds() {
        // Several independent gathers: unlimited placement hoists every
        // READ_send to the top, so they are all in flight at once and the
        // bound forces re-solve rounds.
        let src = "... = x(1)\n... = x(11)\n... = x(21)\n... = x(31)";
        let p = parse(src).unwrap();
        let a = analyze(&p, &CommConfig::distributed(&["x"])).unwrap();
        let mut scratch = SolverScratch::new();
        let opts = GenerateOptions {
            max_in_flight: Some(1),
            ..Default::default()
        };
        let plan = generate_with_options(a, &opts, &mut scratch).unwrap();
        assert!(
            scratch.cached_tape().is_some(),
            "the pressure loop replays a tape"
        );
        let report = plan
            .read_pressure
            .clone()
            .expect("bounded solve reports pressure");
        assert!(report.initial_max > 1, "{report:?}");
        assert!(report.final_max <= 1, "{report:?}");
        assert_eq!(
            report.delta_rounds, report.rounds,
            "re-solve rounds must run incrementally: {report:?}"
        );
        // The plan still communicates every portion.
        assert_eq!(plan.count(OpKind::ReadRecv), 4);
    }

    #[test]
    fn write_after_loop_is_placed_once() {
        let plan = plan("do i = 1, N\n  x(a(i)) = ...\nenddo\nb = 1", &["x"]);
        assert_eq!(plan.count(OpKind::WriteSend), 1);
        assert_eq!(plan.count(OpKind::WriteRecv), 1);
        // The write-send is attached after the loop (header's after slot)
        // or before a later node — not inside the loop body.
        let g = &plan.analysis.graph;
        for (node, _, op) in plan.ops() {
            if op.kind == OpKind::WriteSend {
                assert!(
                    g.level(node) <= 1,
                    "write should not be inside the loop: {}",
                    g.dump()
                );
            }
        }
    }

    #[test]
    fn read_after_local_def_is_free() {
        // Non-strict owner computes: the local definition covers the
        // later read of the same portion; no READ ops at all.
        let plan = plan("x(1) = 2\n... = x(1)", &["x"]);
        assert_eq!(plan.count(OpKind::ReadSend), 0);
        assert_eq!(plan.count(OpKind::ReadRecv), 0);
        // But the definition still writes back.
        assert_eq!(plan.count(OpKind::WriteSend), 1);
    }

    #[test]
    fn figure_3_write_precedes_read_at_same_point() {
        let plan = plan(
            "if test then\n  do i = 1, N\n    x(a(i)) = ...\n  enddo\n\
             \u{20} do j = 1, N\n    ... = x(j+5)\n  enddo\nendif\n\
             do k = 1, N\n  ... = x(k+5)\nenddo",
            &["x"],
        );
        assert!(plan.count(OpKind::WriteSend) >= 1);
        assert!(plan.count(OpKind::ReadSend) >= 1);
        // Wherever both write and read ops share a before-slot, writes
        // come first.
        for slot in plan.before.iter().chain(plan.after.iter()) {
            let first_read = slot
                .iter()
                .position(|op| matches!(op.kind, OpKind::ReadSend | OpKind::ReadRecv));
            let last_write = slot
                .iter()
                .rposition(|op| matches!(op.kind, OpKind::WriteSend | OpKind::WriteRecv));
            if let (Some(r), Some(w)) = (first_read, last_write) {
                assert!(w < r, "writes must precede reads in a slot");
            }
        }
    }
}

#[cfg(test)]
mod reduction_tests {
    use super::*;
    use crate::analyze::{analyze, CommConfig};
    use gnt_ir::parse;

    #[test]
    fn accumulation_becomes_a_reduction() {
        // x(a(i)) = x(a(i)) + w(i): communicated as a vectorized REDUCE,
        // and crucially *no READ* of the gather is generated.
        let p = parse("do i = 1, N\n  x(a(i)) = x(a(i)) + w(i)\nenddo\nb = 1").unwrap();
        let a = analyze(&p, &CommConfig::distributed(&["x"])).unwrap();
        assert_eq!(a.reductions.len(), 1);
        let plan = generate(a).unwrap();
        assert_eq!(plan.count(OpKind::ReduceSend), 1);
        assert_eq!(plan.count(OpKind::ReduceRecv), 1);
        assert_eq!(plan.count(OpKind::ReadSend), 0, "no gather needed");
        assert_eq!(plan.count(OpKind::WriteSend), 0);
    }

    #[test]
    fn mixed_plain_and_accumulating_defs_disqualify_the_reduction() {
        let p = parse(
            "do i = 1, N\n  x(a(i)) = x(a(i)) + w(i)\nenddo\n\
             do j = 1, N\n  x(a(j)) = w(j)\nenddo",
        )
        .unwrap();
        let a = analyze(&p, &CommConfig::distributed(&["x"])).unwrap();
        assert!(a.reductions.is_empty());
        let plan = generate(a).unwrap();
        assert_eq!(plan.count(OpKind::ReduceSend), 0);
        // The self-reference read is back: a gather is needed.
        assert!(plan.count(OpKind::ReadSend) >= 1);
        assert!(plan.count(OpKind::WriteSend) >= 1);
    }

    #[test]
    fn later_read_of_reduced_item_waits_for_the_reduction() {
        // The combined value only exists at the owner: a read after the
        // accumulation loop must re-communicate.
        let p = parse(
            "do i = 1, N\n  x(a(i)) = x(a(i)) + w(i)\nenddo\n\
             do k = 1, N\n  ... = x(a(k))\nenddo",
        )
        .unwrap();
        let plan = generate(analyze(&p, &CommConfig::distributed(&["x"])).unwrap()).unwrap();
        assert_eq!(plan.count(OpKind::ReduceSend), 1);
        assert_eq!(plan.count(OpKind::ReadSend), 1, "re-fetch after reduce");
        // And the reduce completes before the read starts wherever they
        // share a slot.
        for slot in plan.before.iter().chain(plan.after.iter()) {
            let first_read = slot
                .iter()
                .position(|op| matches!(op.kind, OpKind::ReadSend | OpKind::ReadRecv));
            let last_reduce = slot
                .iter()
                .rposition(|op| matches!(op.kind, OpKind::ReduceSend | OpKind::ReduceRecv));
            if let (Some(r), Some(w)) = (first_read, last_reduce) {
                assert!(w < r);
            }
        }
    }

    #[test]
    fn atomic_style_emits_single_fused_operations() {
        let p =
            parse("do i = 1, N\n  y(i) = ...\nenddo\ndo k = 1, N\n  ... = x(a(k))\nenddo").unwrap();
        let a = analyze(&p, &CommConfig::distributed(&["x"])).unwrap();
        let plan = generate_styled(a, PlacementStyle::Atomic).unwrap();
        assert_eq!(plan.count(OpKind::ReadAtomic), 1);
        assert_eq!(plan.count(OpKind::ReadSend), 0);
        assert_eq!(plan.count(OpKind::ReadRecv), 0);
    }

    #[test]
    fn atomic_reduction_is_one_op() {
        let p = parse("do i = 1, N\n  x(a(i)) = x(a(i)) + w(i)\nenddo\nb = 1").unwrap();
        let a = analyze(&p, &CommConfig::distributed(&["x"])).unwrap();
        let plan = generate_styled(a, PlacementStyle::Atomic).unwrap();
        assert_eq!(plan.count(OpKind::ReduceAtomic), 1);
        assert_eq!(plan.count(OpKind::ReduceSend), 0);
    }
}
