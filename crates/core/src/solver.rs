//! The GIVE-N-TAKE equations (Figure 13) and the four-pass elimination
//! schedule that solves them (Figure 15).
//!
//! The solver evaluates every equation exactly once per node:
//!
//! 1. walking the graph in REVERSEPREORDER, it evaluates Equations 9–10
//!    for the children of each interval header (in FORWARD order) and then
//!    Equations 1–8 for the node itself — consumption flows *up and back*;
//! 2. walking in PREORDER, it evaluates Equations 11–13 — availability of
//!    production flows *forward and down* — once for the EAGER and once
//!    for the LAZY flavor (they differ only in Equation 12);
//! 3. Equations 14–15 then read off the result variables `RES_in`/`RES_out`.
//!
//! Total complexity is O(E) set operations (§5.2).
//!
//! # Data plane
//!
//! All variables live in a [`SolverScratch`] arena (one contiguous word
//! vector, one strided row per `(family, node)` pair) and every equation
//! is evaluated by fused word-level kernels — no per-equation temporaries,
//! no allocation inside the passes. This interpreter is the engine for
//! one-shot solves; sessions that re-solve one graph many times replay a
//! compiled [`crate::ScheduleTape`] instead.

use crate::problem::{Flavor, PlacementProblem, SolverOptions};
use crate::scratch::{
    flavor_offset, SolverScratch, F_BLOCK, F_BLOCK_LOC, F_GIVE, F_GIVEN, F_GIVEN_IN, F_GIVEN_OUT,
    F_GIVE_LOC, F_RES_IN, F_RES_OUT, F_STEAL, F_STEAL_LOC, F_TAKE, F_TAKEN_IN, F_TAKEN_OUT,
    F_TAKE_LOC, NUM_FAMILIES,
};
use gnt_cfg::{EdgeMask, IntervalGraph, NodeId};
use gnt_dataflow::BitSet;

/// The consumption-analysis variables of §4.2–4.3 (identical for both
/// flavors), exposed for inspection, verification, and the golden tests
/// that reproduce the paper's §4 example values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsumptionVars {
    /// Eq. 1 — production voided at `n` or within `T(n)`.
    pub steal: Vec<BitSet>,
    /// Eq. 2 — produced for free at `n` or within `T(n)`.
    pub give: Vec<BitSet>,
    /// Eq. 3 — production cannot be hoisted across `n`.
    pub block: Vec<BitSet>,
    /// Eq. 4 — consumed on all paths leaving `n`.
    pub taken_out: Vec<BitSet>,
    /// Eq. 5 — consumed at `n` (including hoisted loop-body consumption).
    pub take: Vec<BitSet>,
    /// Eq. 6 — like `taken_out` but including `n` itself.
    pub taken_in: Vec<BitSet>,
    /// Eq. 7 — blocked by `n` or later same-interval nodes, unconsumed.
    pub block_loc: Vec<BitSet>,
    /// Eq. 8 — taken by `n`, later same-interval nodes, or within `T(n)`.
    pub take_loc: Vec<BitSet>,
    /// Eq. 9 — produced by `n` or earlier same-interval nodes.
    pub give_loc: Vec<BitSet>,
    /// Eq. 10 — stolen by `n` or earlier same-interval nodes, unresupplied.
    pub steal_loc: Vec<BitSet>,
}

/// The production-placement variables of §4.4–4.5 for one flavor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlavorSolution {
    /// Eq. 11 — available at the entry of `n`.
    pub given_in: Vec<BitSet>,
    /// Eq. 12 — available at `n` itself.
    pub given: Vec<BitSet>,
    /// Eq. 13 — available at the exit of `n`.
    pub given_out: Vec<BitSet>,
    /// Eq. 14 — production generated at the entry of `n`.
    pub res_in: Vec<BitSet>,
    /// Eq. 15 — production generated at the exit of `n`.
    pub res_out: Vec<BitSet>,
}

impl FlavorSolution {
    /// Total number of `(node, item)` production points.
    pub fn num_productions(&self) -> usize {
        self.res_in.iter().map(BitSet::len).sum::<usize>()
            + self.res_out.iter().map(BitSet::len).sum::<usize>()
    }
}

/// A complete GIVE-N-TAKE solution: both flavors plus the shared
/// consumption analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    /// Shared consumption variables (passes S1–S2).
    pub vars: ConsumptionVars,
    /// The EAGER placement.
    pub eager: FlavorSolution,
    /// The LAZY placement.
    pub lazy: FlavorSolution,
}

impl Solution {
    /// The placement for `flavor`.
    pub fn flavor(&self, flavor: Flavor) -> &FlavorSolution {
        match flavor {
            Flavor::Eager => &self.eager,
            Flavor::Lazy => &self.lazy,
        }
    }

    /// An all-empty solution over `n` nodes and `cap` items, ready to be
    /// filled by [`SolverScratch::write_into`].
    pub(crate) fn empty(n: usize, cap: usize) -> Solution {
        let empty = BitSet::new(cap);
        let fs = || FlavorSolution {
            given_in: vec![empty.clone(); n],
            given: vec![empty.clone(); n],
            given_out: vec![empty.clone(); n],
            res_in: vec![empty.clone(); n],
            res_out: vec![empty.clone(); n],
        };
        Solution {
            vars: ConsumptionVars {
                steal: vec![empty.clone(); n],
                give: vec![empty.clone(); n],
                block: vec![empty.clone(); n],
                taken_out: vec![empty.clone(); n],
                take: vec![empty.clone(); n],
                taken_in: vec![empty.clone(); n],
                block_loc: vec![empty.clone(); n],
                take_loc: vec![empty.clone(); n],
                give_loc: vec![empty.clone(); n],
                steal_loc: vec![empty.clone(); n],
            },
            eager: fs(),
            lazy: fs(),
        }
    }

    /// Re-shapes `self` for `n` nodes × `cap` items *without zeroing* rows
    /// whose capacity already matches: callers guarantee every word of
    /// every row is about to be overwritten, so stale contents never
    /// survive. This is the reuse fast
    /// path of [`crate::solve_batch`] — a warm output buffer costs no
    /// allocation and no clearing.
    pub(crate) fn reshape_for_overwrite(&mut self, n: usize, cap: usize) {
        let shape = |sets: &mut Vec<BitSet>| {
            sets.resize_with(n, || BitSet::new(cap));
            for s in sets.iter_mut().filter(|s| s.capacity() != cap) {
                s.reset(cap);
            }
        };
        let ConsumptionVars {
            steal,
            give,
            block,
            taken_out,
            take,
            taken_in,
            block_loc,
            take_loc,
            give_loc,
            steal_loc,
        } = &mut self.vars;
        for sets in [
            steal, give, block, taken_out, take, taken_in, block_loc, take_loc, give_loc, steal_loc,
        ] {
            shape(sets);
        }
        for fs in [&mut self.eager, &mut self.lazy] {
            let FlavorSolution {
                given_in,
                given,
                given_out,
                res_in,
                res_out,
            } = fs;
            for sets in [given_in, given, given_out, res_in, res_out] {
                shape(sets);
            }
        }
    }
}

impl Default for Solution {
    /// An empty zero-node solution — the natural seed for the reusable
    /// output buffer of [`crate::solve_batch`].
    fn default() -> Solution {
        Solution::empty(0, 0)
    }
}

/// Solves a BEFORE problem over `graph`.
///
/// For AFTER problems use [`crate::solve_after`], which runs this solver
/// on the reversed graph.
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`.
///
/// # Examples
///
/// ```
/// use gnt_core::{solve, PlacementProblem, SolverOptions};
/// use gnt_cfg::IntervalGraph;
///
/// let p = gnt_ir::parse("do i = 1, N\n  ... = x(a(i))\nenddo")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let body = g.nodes().find(|&n| g.level(n) == 2).unwrap();
/// let mut problem = PlacementProblem::new(g.num_nodes(), 1);
/// problem.take(body, 0);
/// let solution = solve(&g, &problem, &SolverOptions::default());
/// // The eager production is hoisted all the way to ROOT.
/// assert!(solution.eager.res_in[g.root().index()].contains(0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve(graph: &IntervalGraph, problem: &PlacementProblem, opts: &SolverOptions) -> Solution {
    let mut scratch = SolverScratch::new();
    solve_into(graph, problem, opts, &mut scratch);
    scratch.export()
}

/// Solves sequentially into a caller-provided [`SolverScratch`], leaving
/// every Figure-13 variable readable in place (zero-copy views, no
/// allocation after warm-up). Use this for re-solve loops; call
/// [`SolverScratch::export`] when an owned [`Solution`] is needed.
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`.
pub fn solve_into(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
) {
    check_coverage(graph, problem);
    solve_core(graph, problem, opts, scratch);
}

/// [`solve_into`] followed by [`SolverScratch::export`]: the drop-in
/// replacement for [`solve`] when a scratch is being reused across calls.
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`.
pub fn solve_with_scratch(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
) -> Solution {
    solve_into(graph, problem, opts, scratch);
    scratch.export()
}

pub(crate) fn check_coverage(graph: &IntervalGraph, problem: &PlacementProblem) {
    assert_eq!(
        problem.num_nodes(),
        graph.num_nodes(),
        "problem must cover every graph node"
    );
}

/// Runs the four-pass schedule over the whole universe, leaving every
/// variable in `scratch`. This is the entire data plane:
/// all set algebra below is fused slab kernels over arena rows.
fn solve_core(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
) {
    let n = graph.num_nodes();
    scratch.prepare(n, problem.universe_size);
    let slab = &mut scratch.slab;
    let fam = |f: usize, i: usize| f * n + i;
    let tmp0 = NUM_FAMILIES * n;
    let tmp1 = tmp0 + 1;

    // Headers where the *user* disabled hoisting (zero-trip safety, §3.2
    // C2 / §4.1). Following the paper's suggested mechanism, these get
    // STEAL_init = ⊤: nothing is hoisted out of the loop, nothing
    // survives across it, so both placement flavors stay inside the loop
    // and remain balanced, and downstream consumers get their own
    // production even on zero-trip paths.
    let user_no_hoist = |h: NodeId| -> bool {
        opts.no_hoist_headers.contains(&h) || (opts.no_zero_trip_hoist && graph.is_loop_header(h))
    };
    // Headers explicitly poisoned on the graph get the same treatment.
    let poisoned = |h: NodeId| -> bool { graph.is_poisoned(h) || user_no_hoist(h) };

    // ---- Pass 1: S2 (Eqs. 9–10) per header's children, then S1
    // (Eqs. 1–8), in REVERSEPREORDER. -------------------------------------
    for &node in graph.preorder().iter().rev() {
        let ni = node.index();
        for &c in graph.children(node) {
            let ci = c.index();
            // Eq. 9: GIVE_loc(c) =
            //   (GIVE(c) ∪ TAKE(c) ∪ ∩_{p ∈ PREDS^FJ} GIVE_loc(p)) − STEAL(c)
            slab.copy_or(tmp0, fam(F_GIVE, ci), fam(F_TAKE, ci));
            let mut first = true;
            for p in graph.preds(c, EdgeMask::FJ) {
                if first {
                    slab.copy(tmp1, fam(F_GIVE_LOC, p.index()));
                    first = false;
                } else {
                    slab.and(tmp1, fam(F_GIVE_LOC, p.index()));
                }
            }
            if !first {
                slab.or(tmp0, tmp1);
            }
            slab.copy_andnot(fam(F_GIVE_LOC, ci), tmp0, fam(F_STEAL, ci));

            // Eq. 10: STEAL_loc(c) = STEAL(c)
            //   ∪ ⋃_{p ∈ PREDS^FJ} (STEAL_loc(p) − GIVE_loc(p))
            //   ∪ ⋃_{p ∈ PREDS^S} STEAL_loc(p)
            slab.copy(tmp0, fam(F_STEAL, ci));
            for p in graph.preds(c, EdgeMask::FJ) {
                slab.or_andnot(
                    tmp0,
                    fam(F_STEAL_LOC, p.index()),
                    fam(F_GIVE_LOC, p.index()),
                );
            }
            for p in graph.preds(c, EdgeMask::S) {
                slab.or(tmp0, fam(F_STEAL_LOC, p.index()));
            }
            slab.copy(fam(F_STEAL_LOC, ci), tmp0);
        }

        // Eq. 1 / Eq. 2: fold in the interval summary via LASTCHILD.
        if poisoned(node) {
            slab.fill(fam(F_STEAL, ni));
        } else {
            slab.load(fam(F_STEAL, ni), problem.steal_init[ni].words());
        }
        slab.load(fam(F_GIVE, ni), problem.give_init[ni].words());
        if let Some(lc) = graph.last_child(node) {
            slab.or(fam(F_STEAL, ni), fam(F_STEAL_LOC, lc.index()));
            slab.or(fam(F_GIVE, ni), fam(F_GIVE_LOC, lc.index()));
        }

        // Eq. 3: BLOCK(n) = STEAL ∪ GIVE ∪ ⋃_{s ∈ SUCCS^E} BLOCK_loc(s)
        slab.copy_or(fam(F_BLOCK, ni), fam(F_STEAL, ni), fam(F_GIVE, ni));
        for s in graph.succs(node, EdgeMask::E) {
            slab.or(fam(F_BLOCK, ni), fam(F_BLOCK_LOC, s.index()));
        }

        // Eq. 4: TAKEN_out(n) = ∩_{s ∈ SUCCS^FJS} TAKEN_in(s)
        let mut first = true;
        for s in graph.succs(node, EdgeMask::FJS) {
            if first {
                slab.copy(fam(F_TAKEN_OUT, ni), fam(F_TAKEN_IN, s.index()));
                first = false;
            } else {
                slab.and(fam(F_TAKEN_OUT, ni), fam(F_TAKEN_IN, s.index()));
            }
        }
        if first {
            slab.clear(fam(F_TAKEN_OUT, ni));
        }

        // Eq. 5: TAKE(n) = TAKE_init
        //   ∪ (⋃_{s ∈ SUCCS^E} TAKEN_in(s) − STEAL(n))
        //   ∪ ((TAKEN_out(n) ∩ ⋃_{s ∈ SUCCS^E} TAKE_loc(s)) − BLOCK(n))
        slab.load(fam(F_TAKE, ni), problem.take_init[ni].words());
        if !poisoned(node) {
            slab.clear(tmp0);
            for s in graph.succs(node, EdgeMask::E) {
                slab.or(tmp0, fam(F_TAKEN_IN, s.index()));
            }
            slab.or_andnot(fam(F_TAKE, ni), tmp0, fam(F_STEAL, ni));

            slab.clear(tmp0);
            for s in graph.succs(node, EdgeMask::E) {
                slab.or(tmp0, fam(F_TAKE_LOC, s.index()));
            }
            slab.and(tmp0, fam(F_TAKEN_OUT, ni));
            slab.andnot(tmp0, fam(F_BLOCK, ni));
            slab.or(fam(F_TAKE, ni), tmp0);
        }

        // Eq. 6: TAKEN_in(n) = TAKE(n) ∪ (TAKEN_out(n) − BLOCK(n))
        slab.copy_andnot(fam(F_TAKEN_IN, ni), fam(F_TAKEN_OUT, ni), fam(F_BLOCK, ni));
        slab.or(fam(F_TAKEN_IN, ni), fam(F_TAKE, ni));

        // Eq. 7: BLOCK_loc(n) = (BLOCK(n) ∪ ⋃_{s ∈ SUCCS^F} BLOCK_loc(s))
        //                        − TAKE(n)
        slab.copy(fam(F_BLOCK_LOC, ni), fam(F_BLOCK, ni));
        for s in graph.succs(node, EdgeMask::F) {
            slab.or(fam(F_BLOCK_LOC, ni), fam(F_BLOCK_LOC, s.index()));
        }
        slab.andnot(fam(F_BLOCK_LOC, ni), fam(F_TAKE, ni));

        // Eq. 8: TAKE_loc(n) = TAKE(n)
        //   ∪ (⋃_{s ∈ SUCCS^EF} TAKE_loc(s) − BLOCK(n))
        slab.clear(fam(F_TAKE_LOC, ni));
        for s in graph.succs(node, EdgeMask::EF) {
            slab.or(fam(F_TAKE_LOC, ni), fam(F_TAKE_LOC, s.index()));
        }
        slab.andnot(fam(F_TAKE_LOC, ni), fam(F_BLOCK, ni));
        slab.or(fam(F_TAKE_LOC, ni), fam(F_TAKE, ni));
    }

    // ---- Passes 2–3: S3 (Eqs. 11–13) in PREORDER, then S4 (Eqs. 14–15),
    // once per flavor. -----------------------------------------------------
    place_pass(graph, slab, n, tmp0, Flavor::Eager);
    place_pass(graph, slab, n, tmp0, Flavor::Lazy);
}

fn place_pass(
    graph: &IntervalGraph,
    slab: &mut gnt_dataflow::BitSlab,
    n: usize,
    tmp0: usize,
    flavor: Flavor,
) {
    let off = flavor_offset(flavor);
    let fam = |f: usize, i: usize| f * n + i;
    let (f_gin, f_given, f_gout) = (F_GIVEN_IN + off, F_GIVEN + off, F_GIVEN_OUT + off);

    for &node in graph.preorder() {
        let ni = node.index();
        // Eq. 11: GIVEN_in(n) = (GIVEN(HEADER(n)) − STEAL(HEADER(n)))
        //   ∪ ∩_{p ∈ PREDS^FJ} GIVEN_out(p)
        //   ∪ (TAKEN_in(n) ∩ ⋃_{q ∈ PREDS^FJ} GIVEN_out(q))
        //
        // Deviation from the paper, which writes just GIVEN(HEADER(n)):
        // the header's availability only describes *loop entry*. An item
        // stolen inside the loop without resupply (∈ STEAL(h)) is gone on
        // iteration 2+, so propagating it into the body lets a JUMP out
        // of the loop escape with stale availability and breaks C3
        // (counterexample: take x; do { if t goto 99; steal x }; 99 take
        // x — the jump path on iteration 2 has x destroyed). Subtracting
        // STEAL(h) restores must-availability over all iterations and is
        // consistent with every §4 example value.
        match graph.header_of(node) {
            Some(h) => {
                slab.copy_andnot(
                    fam(f_gin, ni),
                    fam(f_given, h.index()),
                    fam(F_STEAL, h.index()),
                );
            }
            None => slab.clear(fam(f_gin, ni)),
        }
        // On reversed graphs a jump may enter this node's interval
        // *bypassing* it (§5.3). Availability at the header must then
        // also hold along those entries, so the jump-in sources join the
        // predecessor set for both the must-intersection and the
        // partial-availability term — the RES_out mechanism (Eq. 15)
        // then places production on the deficient jump path, exactly the
        // pad placements of Figure 14.
        let eq11_preds = || {
            graph
                .preds(node, EdgeMask::FJ)
                .chain(graph.jump_in_sources(node).iter().copied())
        };
        let mut first = true;
        for p in eq11_preds() {
            if first {
                slab.copy(tmp0, fam(f_gout, p.index()));
                first = false;
            } else {
                slab.and(tmp0, fam(f_gout, p.index()));
            }
        }
        if !first {
            slab.or(fam(f_gin, ni), tmp0);
        }
        slab.clear(tmp0);
        for q in eq11_preds() {
            slab.or(tmp0, fam(f_gout, q.index()));
        }
        slab.and(tmp0, fam(F_TAKEN_IN, ni));
        slab.or(fam(f_gin, ni), tmp0);

        // Eq. 12: GIVEN(n) = GIVEN_in(n) ∪ TAKEN_in(n)   (EAGER)
        //                  = GIVEN_in(n) ∪ TAKE(n)       (LAZY)
        let consumed = match flavor {
            Flavor::Eager => F_TAKEN_IN,
            Flavor::Lazy => F_TAKE,
        };
        slab.copy_or(fam(f_given, ni), fam(f_gin, ni), fam(consumed, ni));

        // Eq. 13: GIVEN_out(n) = (GIVE(n) ∪ GIVEN(n)) − STEAL(n)
        slab.copy_or_andnot(
            fam(f_gout, ni),
            fam(F_GIVE, ni),
            fam(f_given, ni),
            fam(F_STEAL, ni),
        );
    }

    // S4: Eqs. 14–15.
    let (f_rin, f_rout) = (F_RES_IN + off, F_RES_OUT + off);
    for node in graph.nodes() {
        let ni = node.index();
        // Eq. 14: RES_in(n) = GIVEN(n) − GIVEN_in(n)
        slab.copy_andnot(fam(f_rin, ni), fam(f_given, ni), fam(f_gin, ni));

        // Eq. 15: RES_out(n) = ⋃_{s ∈ SUCCS^FJ} GIVEN_in(s) − GIVEN_out(n)
        slab.clear(fam(f_rout, ni));
        for s in graph.succs(node, EdgeMask::FJ) {
            slab.or(fam(f_rout, ni), fam(f_gin, s.index()));
        }
        slab.andnot(fam(f_rout, ni), fam(f_gout, ni));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_cfg::{IntervalGraph, NodeKind};
    use gnt_ir::{parse, StmtKind};

    fn graph(src: &str) -> IntervalGraph {
        IntervalGraph::from_program(&parse(src).unwrap()).unwrap()
    }

    /// Finds the node lowered from the statement whose pretty-printed RHS
    /// (or LHS for loop/branch) contains `needle`.
    fn stmt_node(g: &IntervalGraph, p: &gnt_ir::Program, needle: &str) -> NodeId {
        g.nodes()
            .find(|&n| match g.kind(n) {
                NodeKind::Stmt(s) | NodeKind::LoopHeader(s) | NodeKind::Branch(s) => {
                    let stmt = p.stmt(s);
                    let text = match &stmt.kind {
                        StmtKind::Assign { lhs, rhs } => format!("{lhs} = {rhs}"),
                        StmtKind::Do { var, .. } => format!("do {var}"),
                        StmtKind::If { cond, .. } => format!("if {cond}"),
                        StmtKind::IfGoto { cond, target } => {
                            format!("if {cond} goto {target}")
                        }
                        StmtKind::Goto(t) => format!("goto {t}"),
                        StmtKind::Continue => "continue".to_string(),
                    };
                    text.contains(needle)
                }
                _ => false,
            })
            .unwrap_or_else(|| panic!("no node for {needle}"))
    }

    #[test]
    fn straight_line_consumer_gets_local_production() {
        // x consumed at one node; no hoisting opportunity beyond ROOT.
        let src = "a = 1\n... = x(1)\nb = 2";
        let p = parse(src).unwrap();
        let g = graph(src);
        let consumer = stmt_node(&g, &p, "x(1)");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(consumer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        // Guaranteed consumption from the start: eager production at ROOT.
        assert!(sol.eager.res_in[g.root().index()].contains(0));
        // Lazy production exactly at the consumer.
        assert!(sol.lazy.res_in[consumer.index()].contains(0));
        // Neither places anything anywhere else.
        assert_eq!(sol.eager.num_productions(), 1);
        assert_eq!(sol.lazy.num_productions(), 1);
    }

    #[test]
    fn loop_consumption_is_hoisted_and_not_repeated() {
        let src = "do i = 1, N\n  ... = x(a(i))\nenddo";
        let p = parse(src).unwrap();
        let g = graph(src);
        let consumer = stmt_node(&g, &p, "x(a(i))");
        let header = stmt_node(&g, &p, "do i");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(consumer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        // Zero-trip hoisting (§3.2): consumption reaches TAKE(header) and
        // TAKEN_in(ROOT); eager production at ROOT, lazy right before the
        // loop (RES_in at the header).
        assert!(sol.vars.take[header.index()].contains(0));
        assert!(sol.eager.res_in[g.root().index()].contains(0));
        assert!(sol.lazy.res_in[header.index()].contains(0));
        // O1: nothing is produced inside the loop.
        assert!(sol.eager.res_in[consumer.index()].is_empty());
        assert!(sol.lazy.res_in[consumer.index()].is_empty());
        assert_eq!(sol.eager.num_productions(), 1);
        assert_eq!(sol.lazy.num_productions(), 1);
    }

    #[test]
    fn no_zero_trip_hoist_keeps_production_inside_loop() {
        let src = "do i = 1, N\n  ... = x(a(i))\nenddo";
        let p = parse(src).unwrap();
        let g = graph(src);
        let consumer = stmt_node(&g, &p, "x(a(i))");
        let header = stmt_node(&g, &p, "do i");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(consumer, 0);
        let opts = SolverOptions {
            no_zero_trip_hoist: true,
            ..Default::default()
        };
        let sol = solve(&g, &prob, &opts);
        assert!(!sol.vars.take[header.index()].contains(0));
        assert!(sol.eager.res_in[g.root().index()].is_empty());
        // Production stays inside the loop body.
        assert!(sol.lazy.res_in[consumer.index()].contains(0));
    }

    #[test]
    fn steal_blocks_hoisting_past_the_destroyer() {
        // x destroyed between two consumers: the second consumer needs a
        // second production placed after the steal.
        let src = "... = x(1)\nz = 0\n... = x(1)";
        let p = parse(src).unwrap();
        let g = graph(src);
        let c1 = stmt_node(&g, &p, "x(1)");
        let killer = stmt_node(&g, &p, "z = 0");
        // second consumer: find the *other* node taking x(1)
        let c2 = g
            .nodes()
            .filter(|&n| matches!(g.kind(n), NodeKind::Stmt(_)))
            .find(|&n| n != c1 && n != killer)
            .unwrap();
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(c1, 0).take(c2, 0).steal(killer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        // Two eager productions: one before c1 (hoisted to ROOT), one
        // after the steal.
        assert_eq!(sol.eager.num_productions(), 2);
        assert!(sol.eager.res_in[g.root().index()].contains(0));
        // The second is not placed before the killer.
        assert!(sol.lazy.res_in[c2.index()].contains(0));
    }

    #[test]
    fn give_makes_production_free() {
        // A side effect produces x before the consumer: no production at
        // all is needed (O2 via GIVE, §3.1).
        let src = "y = 1\n... = x(1)";
        let p = parse(src).unwrap();
        let g = graph(src);
        let giver = stmt_node(&g, &p, "y = 1");
        let consumer = stmt_node(&g, &p, "x(1)");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.give(giver, 0).take(consumer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        assert_eq!(
            sol.eager.num_productions(),
            0,
            "eager should ride the free production"
        );
        assert_eq!(sol.lazy.num_productions(), 0);
    }

    #[test]
    fn partially_free_production_is_balanced_on_the_other_branch() {
        // GIVE on the then-branch only: the else branch must produce, and
        // the join must NOT produce again (Eq. 11's partial-availability
        // term plus RES_out balance the paths).
        let src = "if t then\n  y = 1\nelse\n  z = 2\nendif\n... = x(1)";
        let p = parse(src).unwrap();
        let g = graph(src);
        let giver = stmt_node(&g, &p, "y = 1");
        let other = stmt_node(&g, &p, "z = 2");
        let consumer = stmt_node(&g, &p, "x(1)");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.give(giver, 0).take(consumer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        // Exactly one production (on the else side), for each flavor.
        assert_eq!(sol.eager.num_productions(), 1, "{}", g.dump());
        assert_eq!(sol.lazy.num_productions(), 1);
        // And it is on the else path: either at `z = 2` itself or on its
        // exit edge, never at or before the branch, never after the join.
        let eager_at_other = sol.eager.res_in[other.index()].contains(0)
            || sol.eager.res_out[other.index()].contains(0);
        assert!(eager_at_other, "{}", g.dump());
        assert!(sol.lazy.res_in[consumer.index()].is_empty());
    }

    #[test]
    fn two_branch_consumers_meet_at_shared_hoist_point() {
        // Figure 1/2 shape: both branches consume x; production hoists
        // above the branch, once.
        let src = "if t then\n  ... = x(1)\nelse\n  ... = x(1)\nendif";
        let g = graph(src);
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        for n in g.nodes() {
            if matches!(g.kind(n), NodeKind::Stmt(_)) {
                prob.take(n, 0);
            }
        }
        let sol = solve(&g, &prob, &SolverOptions::default());
        assert_eq!(sol.eager.num_productions(), 1);
        assert!(sol.eager.res_in[g.root().index()].contains(0));
    }

    #[test]
    fn consumer_on_one_branch_only_is_not_hoisted_above_branch() {
        // Safety (C2): production must not be placed on paths that do not
        // consume.
        let src = "if t then\n  ... = x(1)\nelse\n  z = 2\nendif";
        let p = parse(src).unwrap();
        let g = graph(src);
        let consumer = stmt_node(&g, &p, "x(1)");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(consumer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        assert!(sol.eager.res_in[g.root().index()].is_empty());
        assert!(
            sol.eager.res_in[consumer.index()].contains(0),
            "{}",
            g.dump()
        );
        assert_eq!(sol.eager.num_productions(), 1);
    }

    #[test]
    fn empty_problem_produces_nothing() {
        let g = graph("a = 1\nb = 2");
        let prob = PlacementProblem::new(g.num_nodes(), 3);
        let sol = solve(&g, &prob, &SolverOptions::default());
        assert_eq!(sol.eager.num_productions(), 0);
        assert_eq!(sol.lazy.num_productions(), 0);
    }

    #[test]
    fn nested_loop_consumption_hoists_through_both_levels() {
        let src = "do i = 1, N\n  do j = 1, M\n    ... = x(a(j))\n  enddo\nenddo";
        let p = parse(src).unwrap();
        let g = graph(src);
        let consumer = stmt_node(&g, &p, "x(a(j))");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(consumer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        assert!(sol.eager.res_in[g.root().index()].contains(0));
        assert_eq!(sol.eager.num_productions(), 1);
        // Lazy sits right before the *outer* loop: hoisted consumption
        // surfaces at the outer header.
        let outer = stmt_node(&g, &p, "do i");
        assert!(sol.lazy.res_in[outer.index()].contains(0), "{}", g.dump());
    }

    #[test]
    fn steal_inside_loop_forces_per_iteration_production() {
        // x consumed then destroyed every iteration: production cannot be
        // hoisted out (BLOCK at the header) and must happen each trip.
        let src = "do i = 1, N\n  ... = x(a(i))\n  z = 0\nenddo";
        let p = parse(src).unwrap();
        let g = graph(src);
        let consumer = stmt_node(&g, &p, "x(a(i))");
        let killer = stmt_node(&g, &p, "z = 0");
        let header = stmt_node(&g, &p, "do i");
        let mut prob = PlacementProblem::new(g.num_nodes(), 1);
        prob.take(consumer, 0).steal(killer, 0);
        let sol = solve(&g, &prob, &SolverOptions::default());
        assert!(sol.vars.steal[header.index()].contains(0));
        assert!(sol.vars.block[header.index()].contains(0));
        // Lazy production at the consumer, every iteration.
        assert!(sol.lazy.res_in[consumer.index()].contains(0));
        assert!(sol.eager.res_in[g.root().index()].is_empty());
    }

    #[test]
    fn scratch_reuse_is_stable_across_solves() {
        // Two different problems through one scratch: results match the
        // fresh-scratch path, and the arena is reshaped, not corrupted.
        let src = "do i = 1, N\n  ... = x(a(i))\nenddo\n... = x(1)";
        let g = graph(src);
        let mut scratch = SolverScratch::new();
        for items in [1usize, 3, 70] {
            let p = parse(src).unwrap();
            let consumer = stmt_node(&g, &p, "x(a(i))");
            let mut prob = PlacementProblem::new(g.num_nodes(), items);
            prob.take(consumer, items - 1);
            let fresh = solve(&g, &prob, &SolverOptions::default());
            let reused = solve_with_scratch(&g, &prob, &SolverOptions::default(), &mut scratch);
            assert_eq!(fresh, reused, "items = {items}");
            assert_eq!(
                scratch.num_productions(Flavor::Eager),
                fresh.eager.num_productions()
            );
        }
    }
}
