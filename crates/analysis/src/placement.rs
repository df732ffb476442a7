//! Placement lints: the paper's correctness criteria C1/C2/C3 and
//! optimality criteria O1/O2/O3/O3' as `GNT00x` diagnostics.
//!
//! The correctness checks wrap the independent verifiers of `gnt-core`
//! ([`gnt_core::check_sufficiency`], [`gnt_core::check_balance`]) and two
//! definite-violation dataflow analyses (no consumer reachable from a
//! production; item must-available at a production point), so a placement
//! that satisfies the criteria — in particular anything [`gnt_core::solve`]
//! returns — lints clean. The optimality checks compare the given
//! placement per item against the solver's own optimum for the same
//! problem: one stable code per failure shape of Figures 4–10.

use crate::diag::Diagnostic;
use gnt_cfg::{CfgFlow, IntervalGraph, NodeId};
use gnt_core::{
    check_balance, check_path, check_sufficiency, enumerate_paths, path_has_zero_trip,
    shift_off_synthetic, solve_with_scratch, FlavorSolution, PlacementProblem, ScratchPool,
    SolverOptions, SolverScratch, Violation,
};
use gnt_dataflow::{BitSet, Direction, FlowGraph, GenKillProblem, Meet};
use std::collections::BTreeSet;

/// Options for [`lint_placement`].
#[derive(Clone, Debug)]
pub struct PlacementLintOptions {
    /// Verify sufficiency under the paper's ≥1-trip worldview (§2).
    /// `true` matches [`SolverOptions::default`].
    pub assume_one_trip: bool,
    /// Compare against the solver's own optimum (O2/O3/O3'). Skipped
    /// automatically when any correctness diagnostic fired.
    pub check_optimality: bool,
    /// Solver options used to compute the optimum for the comparison.
    pub solver_options: SolverOptions,
    /// Additionally check zero-trip execution paths strictly, reporting
    /// productions wasted there as *warnings* (the paper deliberately
    /// accepts these under the ≥1-trip assumption, §5.2).
    pub zero_trip: bool,
    /// Path-enumeration bound: maximum visits per edge.
    pub max_edge_visits: usize,
    /// Path-enumeration bound: maximum number of paths.
    pub max_paths: usize,
    /// Human-readable item names (index-aligned with the problem's
    /// universe); items without a name render as `item N`.
    pub item_names: Vec<String>,
}

impl Default for PlacementLintOptions {
    fn default() -> Self {
        PlacementLintOptions {
            assume_one_trip: true,
            check_optimality: true,
            solver_options: SolverOptions::default(),
            zero_trip: false,
            max_edge_visits: 2,
            max_paths: 256,
            item_names: Vec::new(),
        }
    }
}

impl PlacementLintOptions {
    fn name(&self, item: usize) -> String {
        self.item_names
            .get(item)
            .cloned()
            .unwrap_or_else(|| format!("item {item}"))
    }
}

/// Converts one core-verifier [`Violation`] into its registry
/// diagnostic (`GNT001`–`GNT004`), without deduplication.
pub fn violation_to_diag(v: &Violation, item_names: &[String]) -> Diagnostic {
    let name = |item: usize| {
        item_names
            .get(item)
            .cloned()
            .unwrap_or_else(|| format!("item {item}"))
    };
    match *v {
        Violation::Insufficient { node, item } => Diagnostic::error(
            "GNT001",
            format!(
                "{} may reach this consumer unproduced on some path",
                name(item)
            ),
        )
        .at(node)
        .for_item(item),
        Violation::Unbalanced { node, item } => Diagnostic::error(
            "GNT002",
            format!(
                "eager/lazy productions of {} do not pair up at this point",
                name(item)
            ),
        )
        .at(node)
        .for_item(item),
        Violation::Unsafe { node, item } => Diagnostic::error(
            "GNT003",
            format!(
                "{} is produced here but never consumed afterwards",
                name(item)
            ),
        )
        .at(node)
        .for_item(item),
        Violation::Redundant { node, item } => Diagnostic::warning(
            "GNT004",
            format!(
                "{} is re-produced here although it is still available",
                name(item)
            ),
        )
        .at(node)
        .for_item(item),
    }
}

/// A production point: a node plus the slot the production fires in.
/// The position key orders points in program order (`RES_in` before the
/// node's own consumption, `RES_out` after it).
type Point = (usize, bool); // (preorder position * 2 + out?, is res_out)

fn production_points(
    graph: &IntervalGraph,
    flavor: &FlavorSolution,
    item: usize,
) -> BTreeSet<Point> {
    let mut points = BTreeSet::new();
    for n in graph.nodes() {
        let i = n.index();
        if flavor.res_in[i].contains(item) {
            points.insert((graph.preorder_index(n) * 2, false));
        }
        if flavor.res_out[i].contains(item) {
            points.insert((graph.preorder_index(n) * 2 + 1, true));
        }
    }
    points
}

fn node_at_position(graph: &IntervalGraph, pos: usize) -> NodeId {
    graph.preorder()[pos / 2]
}

/// Lints a placement pair (`eager`, `lazy`) for `problem` over `graph`.
///
/// Emits `GNT001` (insufficient, C3), `GNT002` (unbalanced, C1),
/// `GNT003` (unsafe, C2), `GNT004` (redundant, O1) and — when the
/// placement is otherwise clean — `GNT005`/`GNT006`/`GNT007`
/// (O2/O3/O3' against the solver's optimum). Diagnostics are anchored
/// to graph nodes; use [`crate::diag::attach_spans`] to resolve source
/// spans.
pub fn lint_placement(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    eager: &FlavorSolution,
    lazy: &FlavorSolution,
    opts: &PlacementLintOptions,
) -> Vec<Diagnostic> {
    let mut scratch = ScratchPool::global().checkout();
    lint_placement_with_scratch(graph, problem, eager, lazy, opts, &mut scratch)
}

/// [`lint_placement`] with a caller-provided solver scratch: the arena
/// the optimality comparison (O2/O3/O3') solves its one-shot optimum in.
pub fn lint_placement_with_scratch(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    eager: &FlavorSolution,
    lazy: &FlavorSolution,
    opts: &PlacementLintOptions,
    scratch: &mut SolverScratch,
) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut seen = BTreeSet::new();
    let mut push = |out: &mut Vec<Diagnostic>, d: Diagnostic, item: usize| {
        let key = (d.code, d.node.map(|n| n.index()), item);
        if seen.insert(key) {
            out.push(d.for_item(item));
        }
    };

    // C3: every consumer fed on every (≥1-trip) path, in both flavors.
    for flavor in [eager, lazy] {
        for v in check_sufficiency(graph, problem, flavor, opts.assume_one_trip) {
            if let Violation::Insufficient { node, item } = v {
                let d = Diagnostic::error(
                    "GNT001",
                    format!(
                        "{} may reach this consumer unproduced on some path",
                        opts.name(item)
                    ),
                )
                .at(node);
                push(&mut out, d, item);
            }
        }
    }

    // C1: eager and lazy productions alternate on every path.
    for v in check_balance(graph, problem, eager, lazy) {
        if let Violation::Unbalanced { node, item } = v {
            let d = Diagnostic::error(
                "GNT002",
                format!(
                    "eager/lazy productions of {} do not pair up at this point",
                    opts.name(item)
                ),
            )
            .at(node);
            push(&mut out, d, item);
        }
    }

    let flow = CfgFlow::from_interval(graph);
    let n = flow.num_nodes();
    let cap = problem.universe_size;

    // C2: from every production start (eager point), some consumer must
    // be reachable before the item is stolen. Backward may-analysis:
    // reach_in = TAKE ∪ (reach_out − STEAL).
    let reach = GenKillProblem {
        direction: Direction::Backward,
        meet: Meet::Union,
        gen: problem.take_init.clone(),
        kill: problem.steal_init.clone(),
        boundary: BitSet::new(cap),
    }
    .solve(&flow);
    for i in 0..n {
        for item in eager.res_in[i].iter() {
            // `after` is the entry side of a backward problem.
            if !reach.after[i].contains(item) {
                let d = Diagnostic::error(
                    "GNT003",
                    format!(
                        "{} is produced here but never consumed afterwards",
                        opts.name(item)
                    ),
                )
                .at(NodeId(i as u32));
                push(&mut out, d, item);
            }
        }
        for item in eager.res_out[i].iter() {
            if !reach.before[i].contains(item) {
                let d = Diagnostic::error(
                    "GNT003",
                    format!(
                        "{} is produced here but never consumed afterwards",
                        opts.name(item)
                    ),
                )
                .at(NodeId(i as u32));
                push(&mut out, d, item);
            }
        }
    }

    // O1: no production start while the item is must-available. This
    // replays the edge-aware slot semantics of [`check_path`] as a
    // forward must-dataflow over the interval-graph *edges*: `avail` is
    // set by completed (lazy) productions and GIVEs, killed only by
    // STEALs, a header's `RES_in` does not re-fire on its CYCLE edge,
    // and a header's `RES_out` fires only toward FORWARD/JUMP
    // successors — so a header's production never leaks into its own
    // body as availability. A production point is flagged only when
    // *every* firing occurrence of it is redundant.
    {
        use gnt_cfg::EdgeClass;
        let exits =
            |c: EdgeClass| matches!(c, EdgeClass::Forward | EdgeClass::Jump | EdgeClass::JumpIn);
        // Edge list mirroring `CfgFlow::from_interval` (no synthetic
        // edges, no virtual CYCLE edge into the root).
        let mut edges: Vec<(usize, usize, EdgeClass)> = Vec::new();
        let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for m in graph.nodes() {
            for (s, c) in graph.succ_edges(m) {
                if c == EdgeClass::Synthetic || (c == EdgeClass::Cycle && s == graph.root()) {
                    continue;
                }
                let id = edges.len();
                edges.push((m.index(), s.index(), c));
                out_edges[m.index()].push(id);
                in_edges[s.index()].push(id);
            }
        }
        // Availability right after node `i`'s statement when entered in
        // `state`: lazy RES_in (unless re-entered on the CYCLE edge),
        // then TAKE and STEAL both end it. Killing at TAKE is stricter
        // than `check_path`'s replay on purpose: consumption re-justifies
        // later production, so only productions that no consumer
        // separates from prior availability are *definitely* redundant.
        let mid = |i: usize, state: &BitSet, on_cycle: bool| {
            let mut s = state.clone();
            if !on_cycle {
                s.union_with(&lazy.res_in[i]);
            }
            s.subtract_with(&problem.take_init[i]);
            s.subtract_with(&problem.steal_init[i]);
            s
        };
        // Meet over all entries of `i` of the post-statement state; the
        // root's boundary is "nothing available".
        let mid_meet = |i: usize, state: &[BitSet]| {
            if in_edges[i].is_empty() {
                return mid(i, &BitSet::new(cap), false);
            }
            let mut acc = BitSet::full(cap);
            for &e in &in_edges[i] {
                acc.intersect_with(&mid(i, &state[e], edges[e].2 == EdgeClass::Cycle));
            }
            acc
        };
        // Optimistic fixpoint: start full, intersect downwards.
        let mut state: Vec<BitSet> = vec![BitSet::full(cap); edges.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for (i, oes) in out_edges.iter().enumerate() {
                let m = mid_meet(i, &state);
                for &e in oes {
                    let mut s = m.clone();
                    if exits(edges[e].2) {
                        s.union_with(&lazy.res_out[i]);
                    }
                    if s != state[e] {
                        state[e] = s;
                        changed = true;
                    }
                }
            }
        }
        for i in 0..n {
            for item in eager.res_in[i].iter() {
                // RES_in fires on every non-CYCLE entry; redundant only
                // if the item is available on all of them.
                let firing: Vec<usize> = in_edges[i]
                    .iter()
                    .copied()
                    .filter(|&e| edges[e].2 != EdgeClass::Cycle)
                    .collect();
                if !firing.is_empty() && firing.iter().all(|&e| state[e].contains(item)) {
                    let d = Diagnostic::warning(
                        "GNT004",
                        format!(
                            "{} is re-produced here although it is still available",
                            opts.name(item)
                        ),
                    )
                    .at(NodeId(i as u32));
                    push(&mut out, d, item);
                }
            }
            for item in eager.res_out[i].iter() {
                // RES_out fires toward FORWARD/JUMP successors, over the
                // post-statement state of whichever entry was taken.
                if out_edges[i].iter().any(|&e| exits(edges[e].2))
                    && mid_meet(i, &state).contains(item)
                {
                    let d = Diagnostic::warning(
                        "GNT004",
                        format!(
                            "{} is re-produced here although it is still available",
                            opts.name(item)
                        ),
                    )
                    .at(NodeId(i as u32));
                    push(&mut out, d, item);
                }
            }
        }
    }

    // Zero-trip advisory pass: strict replay of zero-trip paths. The
    // paper's ≥1-trip assumption (§2) makes these legal; report them as
    // warnings so `gnt-lint --zero-trip` can surface the reliance.
    if opts.zero_trip {
        for path in enumerate_paths(graph, opts.max_edge_visits, opts.max_paths) {
            if !path_has_zero_trip(graph, &path) {
                continue;
            }
            for v in check_path(graph, &path, problem, eager, lazy, true) {
                let (code, node, item, what) = match v {
                    Violation::Unsafe { node, item } => {
                        ("GNT003", node, item, "produced but never consumed")
                    }
                    Violation::Insufficient { node, item } => {
                        ("GNT001", node, item, "consumed without production")
                    }
                    _ => continue,
                };
                let d = Diagnostic::warning(
                    code,
                    format!("{} is {what} when a loop runs zero iterations", opts.name(item)),
                )
                .at(node)
                .note("legal under the paper's \u{2265}1-trip assumption (\u{a7}2); shown because --zero-trip is set");
                push(&mut out, d, item);
            }
        }
    }

    // Optimality (O2/O3/O3') — only meaningful for placements that are
    // otherwise clean, and compared against the solver's own optimum.
    if opts.check_optimality && out.is_empty() {
        let mut opt = solve_with_scratch(graph, problem, &opts.solver_options, scratch);
        shift_off_synthetic(graph, &mut opt.eager);
        shift_off_synthetic(graph, &mut opt.lazy);
        for item in 0..cap {
            let ge = production_points(graph, eager, item);
            let oe = production_points(graph, &opt.eager, item);
            let gl = production_points(graph, lazy, item);
            let ol = production_points(graph, &opt.lazy, item);
            if ge.len() > oe.len() {
                // O2: more production points than the optimum needs.
                let &(pos, _) = ge
                    .difference(&oe)
                    .next()
                    .expect("larger set has extra point");
                let d = Diagnostic::warning(
                    "GNT005",
                    format!(
                        "{} uses {} eager production points where {} suffice",
                        opts.name(item),
                        ge.len(),
                        oe.len()
                    ),
                )
                .at(node_at_position(graph, pos));
                push(&mut out, d, item);
                continue;
            }
            if ge.len() != oe.len() {
                continue; // fewer points than the optimum: different regime, not a lint
            }
            // O3: an eager point strictly later than the optimum's earliest.
            if let Some(&(first_opt, _)) = oe.iter().next() {
                if let Some(&(pos, _)) = ge.difference(&oe).find(|&&(p, _)| p > first_opt) {
                    let d = Diagnostic::warning(
                        "GNT006",
                        format!(
                            "eager production of {} is later than necessary",
                            opts.name(item)
                        ),
                    )
                    .at(node_at_position(graph, pos))
                    .note(format!(
                        "the solver hoists it to node {}",
                        node_at_position(graph, first_opt)
                    ));
                    push(&mut out, d, item);
                }
            }
            // O3': a lazy point strictly earlier than the optimum's latest.
            if let Some(&(last_opt, _)) = ol.iter().next_back() {
                if let Some(&(pos, _)) = gl.difference(&ol).find(|&&(p, _)| p < last_opt) {
                    let d = Diagnostic::warning(
                        "GNT007",
                        format!(
                            "lazy production of {} is earlier than necessary",
                            opts.name(item)
                        ),
                    )
                    .at(node_at_position(graph, pos))
                    .note(format!(
                        "the solver delays it to node {}",
                        node_at_position(graph, last_opt)
                    ));
                    push(&mut out, d, item);
                }
            }
        }
    }

    out.sort_by_key(|d| {
        (
            d.code,
            d.node.map_or(usize::MAX, |n| graph.preorder_index(n)),
        )
    });
    out
}
