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
use gnt_cfg::{CfgFlow, EdgeClass, IntervalGraph, NodeId};
use gnt_core::{
    check_balance, check_path, check_sufficiency, enumerate_paths, path_has_zero_trip,
    shift_off_synthetic, solve_with_scratch, FlavorSolution, PlacementProblem, ScratchPool,
    SolverOptions, SolverScratch, Violation,
};
use gnt_dataflow::{BitSet, Direction, FlowGraph, GenKillProblem, Meet};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

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

    // O1: no production start while the item is must-available.
    let (redundant, _) = redundant_productions(graph, problem, eager, lazy);
    for (node, item) in redundant {
        let d = Diagnostic::warning(
            "GNT004",
            format!(
                "{} is re-produced here although it is still available",
                opts.name(item)
            ),
        )
        .at(node);
        push(&mut out, d, item);
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

/// `true` for the interval-graph edges [`CfgFlow::from_interval`] keeps:
/// no synthetic edges and no virtual CYCLE edge into the root. `into`
/// is the edge's sink.
fn is_real(graph: &IntervalGraph, into: NodeId, class: EdgeClass) -> bool {
    class != EdgeClass::Synthetic && !(class == EdgeClass::Cycle && into == graph.root())
}

/// `true` for the edge classes a header's `RES_out` fires toward.
fn exits(class: EdgeClass) -> bool {
    matches!(
        class,
        EdgeClass::Forward | EdgeClass::Jump | EdgeClass::JumpIn
    )
}

/// `true` if bit `item` is set in `words`.
fn has(words: &[u64], item: usize) -> bool {
    words[item / 64] >> (item % 64) & 1 != 0
}

/// The O1 (GNT004) pass: eager production points that fire while their
/// item is must-available, as `(node, item)` in node-index order with a
/// node's `RES_in` items before its `RES_out` items, plus the number of
/// node evaluations the fixpoint took.
///
/// This replays the edge-aware slot semantics of [`check_path`] as a
/// forward must-dataflow over the real interval-graph edges.
/// Availability is set by completed (lazy) productions and killed by
/// STEALs. A header's `RES_in` does not re-fire on its CYCLE edge, and a
/// header's `RES_out` fires only toward FORWARD/JUMP successors, so a
/// header's production never leaks into its own body as availability.
/// A production point is flagged only when *every* firing occurrence of
/// it is redundant.
///
/// The state kept is `mid[i]`: availability right after node `i`'s
/// statement, met over all entries of `i`. An edge `i → s` carries
/// `mid[i]`, plus `lazy.res_out[i]` on a FORWARD/JUMP edge, so edge
/// states are never stored. Entering `i` adds `lazy.res_in[i]` unless
/// the edge is a CYCLE edge; then TAKE and STEAL both end availability.
/// Killing at TAKE is stricter than `check_path`'s replay on purpose:
/// consumption re-justifies later production, so only productions that
/// no consumer separates from prior availability are *definitely*
/// redundant. The root's boundary is "nothing available".
///
/// Every `mid` starts full and every transfer is monotone, so any
/// chaotic iteration reaches the same greatest fixpoint. Each node is
/// evaluated once in preorder; after that a node is re-evaluated only
/// when one of its in-edge states changed, lowest preorder position
/// first. All buffers are allocated once per call.
fn redundant_productions(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    eager: &FlavorSolution,
    lazy: &FlavorSolution,
) -> (Vec<(NodeId, usize)>, usize) {
    let n = graph.num_nodes();
    let full = BitSet::full(problem.universe_size);
    let full = full.words();
    let words = full.len();
    let mut mids: Vec<u64> = full.repeat(n);
    let mut acc = vec![0u64; words];
    let mut flipped = vec![0u64; words];

    // Pending nodes by preorder position: every position at or past
    // `next` (the first sweep), plus those in `heap` (all below `next`).
    let order = graph.preorder();
    let mut queued = vec![true; n];
    let mut heap: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    let mut next = 0;
    let mut evaluations = 0;
    loop {
        let pos = match heap.pop() {
            Some(Reverse(pos)) => pos,
            None if next < n => {
                next += 1;
                next - 1
            }
            None => break,
        };
        queued[pos] = false;
        evaluations += 1;
        let v = order[pos];
        let i = v.index();
        let res_in = lazy.res_in[i].words();
        acc.copy_from_slice(full);
        let mut entered = false;
        for (p, c) in graph.pred_edges(v) {
            if !is_real(graph, v, c) {
                continue;
            }
            entered = true;
            let pm = &mids[p.index() * words..][..words];
            let out = lazy.res_out[p.index()].words();
            for k in 0..words {
                let mut e = pm[k];
                if exits(c) {
                    e |= out[k];
                }
                if c != EdgeClass::Cycle {
                    e |= res_in[k];
                }
                acc[k] &= e;
            }
        }
        if !entered {
            acc.copy_from_slice(res_in);
        }
        let take = problem.take_init[i].words();
        let steal = problem.steal_init[i].words();
        for k in 0..words {
            acc[k] &= !(take[k] | steal[k]);
        }
        let mid = &mut mids[i * words..][..words];
        if *mid == *acc {
            continue;
        }
        for k in 0..words {
            flipped[k] = mid[k] ^ acc[k];
        }
        mid.copy_from_slice(&acc);
        let out = lazy.res_out[i].words();
        for (s, c) in graph.succ_edges(v) {
            if !is_real(graph, s, c) {
                continue;
            }
            // A FORWARD/JUMP edge changes only where RES_out does not
            // cover the flipped bits.
            let changed = !exits(c) || flipped.iter().zip(out).any(|(f, o)| f & !o != 0);
            let q = graph.preorder_index(s);
            if changed && !queued[q] {
                queued[q] = true;
                heap.push(Reverse(q));
            }
        }
    }

    let mut flagged = Vec::new();
    for v in graph.nodes() {
        let i = v.index();
        if !eager.res_in[i].is_empty() {
            // RES_in fires on every non-CYCLE entry; redundant only if
            // the item is available on all of them.
            acc.copy_from_slice(full);
            let mut firing = false;
            for (p, c) in graph.pred_edges(v) {
                if !is_real(graph, v, c) || c == EdgeClass::Cycle {
                    continue;
                }
                firing = true;
                let pm = &mids[p.index() * words..][..words];
                let out = lazy.res_out[p.index()].words();
                for k in 0..words {
                    acc[k] &= if exits(c) { pm[k] | out[k] } else { pm[k] };
                }
            }
            if firing {
                flagged.extend(
                    eager.res_in[i]
                        .iter()
                        .filter(|&item| has(&acc, item))
                        .map(|item| (v, item)),
                );
            }
        }
        // RES_out fires toward FORWARD/JUMP successors, over the
        // post-statement state of whichever entry was taken.
        if !eager.res_out[i].is_empty() && graph.succ_edges(v).any(|(_, c)| exits(c)) {
            let mid = &mids[i * words..][..words];
            flagged.extend(
                eager.res_out[i]
                    .iter()
                    .filter(|&item| has(mid, item))
                    .map(|item| (v, item)),
            );
        }
    }
    (flagged, evaluations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_cfg::{Cfg, NodeKind, SynthKind};
    use gnt_core::sized_program;

    /// A `do` nest of `depth` loops shaped as the lowering shapes it,
    /// built as a raw `Cfg`: header `h_k` → statement `s_k` → `h_{k+1}`,
    /// the inner header exiting back to the outer one.
    fn do_nest_cfg(depth: usize) -> Cfg {
        let mut cfg = Cfg::new();
        let stmt = NodeKind::Synthetic(SynthKind::EdgeSplit);
        let mut headers: Vec<NodeId> = Vec::with_capacity(depth);
        let mut prev = cfg.entry();
        for _ in 0..depth {
            let h = cfg.add_node(stmt);
            let s = cfg.add_node(stmt);
            cfg.add_edge(prev, h);
            cfg.add_edge(h, s);
            headers.push(h);
            prev = s;
        }
        cfg.add_edge(prev, headers[depth - 1]);
        for k in (1..depth).rev() {
            cfg.add_edge(headers[k], headers[k - 1]);
        }
        cfg.add_edge(headers[0], cfg.exit());
        cfg
    }

    /// `loops` sequential one-statement-body `do` loops, parsed.
    fn flat_chain(loops: usize) -> IntervalGraph {
        let src: String = (0..loops)
            .map(|k| format!("do i{k} = 1, N\n  y(i{k}) = ...\n  ... = x(a(i{k}))\nenddo\n"))
            .collect();
        IntervalGraph::from_program(&gnt_ir::parse(&src).unwrap()).unwrap()
    }

    fn empty_flavor(n: usize, cap: usize) -> FlavorSolution {
        let sets = vec![BitSet::new(cap); n];
        FlavorSolution {
            given_in: sets.clone(),
            given: sets.clone(),
            given_out: sets.clone(),
            res_in: sets.clone(),
            res_out: sets,
        }
    }

    /// Node evaluations of the O1 pass, and `N + E` over the real edges.
    /// Every item is produced at the root. Item 0 is consumed only at
    /// the last node in preorder (in a nest, the innermost statement), so
    /// its loss must travel back around every enclosing loop: a
    /// round-robin sweep needs one pass per nesting level for that.
    /// Items 1 and 2 are cut at scattered consumers, kills and header
    /// exits.
    fn evaluations(graph: &IntervalGraph) -> (usize, usize) {
        let n = graph.num_nodes();
        let cap = 3;
        let mut problem = PlacementProblem::new(n, cap);
        let mut eager = empty_flavor(n, cap);
        let mut lazy = empty_flavor(n, cap);
        for item in 0..cap {
            eager.res_in[graph.root().index()].insert(item);
            lazy.res_in[graph.root().index()].insert(item);
        }
        let last = graph.preorder()[n - 1];
        problem.take_init[last.index()].insert(0);
        for v in graph.nodes() {
            let i = v.index();
            if i % 7 == 3 {
                problem.take_init[i].insert(1);
            }
            if i % 13 == 5 {
                problem.steal_init[i].insert(1);
            }
            if graph.is_loop_header(v) {
                lazy.res_out[i].insert(2);
                eager.res_out[i].insert(2);
                if i % 3 == 0 {
                    problem.take_init[i].insert(2);
                }
            }
        }
        let (_, evaluations) = redundant_productions(graph, &problem, &eager, &lazy);
        let edges = graph
            .nodes()
            .flat_map(|v| graph.succ_edges(v))
            .filter(|&(s, c)| is_real(graph, s, c))
            .count();
        (evaluations, n + edges)
    }

    #[test]
    fn o1_pass_evaluates_each_node_a_bounded_number_of_times() {
        let shapes = [
            (
                "2 000-deep nest",
                IntervalGraph::from_cfg(do_nest_cfg(2_000)).unwrap(),
            ),
            ("3 000-loop chain", flat_chain(3_000)),
            (
                "sized_program(3200)",
                IntervalGraph::from_program(&sized_program(3_200)).unwrap(),
            ),
        ];
        for (name, graph) in &shapes {
            let (evaluations, size) = evaluations(graph);
            assert!(
                evaluations >= graph.num_nodes(),
                "{name}: every node is evaluated"
            );
            assert!(
                evaluations <= 3 * size,
                "{name}: {evaluations} evaluations for N+E = {size}"
            );
        }
    }
}
