//! Solving AFTER problems (§5.3): production placed *after* consumption.
//!
//! An AFTER problem — the paper's example is placing global WRITEs after
//! the definitions they communicate — is a BEFORE problem with reversed
//! flow of control. [`solve_after`] reverses the interval graph (keeping
//! the interval structure, poisoning loops entered by reversed jumps) and
//! runs the ordinary solver; the result is re-interpreted in original
//! orientation: a reversed-`RES_in` is production placed *at the exit* of
//! the original node, a reversed-`RES_out` production *at the entry*.
//!
//! Flavor naming follows the paper: for an AFTER problem "early" and
//! "late" are interchanged, so the EAGER solution is the one *furthest
//! after* the consumer (e.g. `WRITE_Recv`) and the LAZY solution the one
//! *immediately after* it (e.g. `WRITE_Send`).

use crate::problem::{Flavor, PlacementProblem, SolverOptions};
use crate::solver::{solve_with_scratch, Solution};
use gnt_cfg::{reversed_graph, GraphError, IntervalGraph, NodeId};
use gnt_dataflow::BitSet;

/// The result of an AFTER problem: a solution over the reversed graph,
/// with accessors that translate back to original program order.
#[derive(Clone, Debug)]
pub struct AfterSolution {
    /// The reversed interval graph the solution lives on. Node ids of the
    /// original graph are preserved; extra synthetic nodes may follow.
    pub reversed: IntervalGraph,
    /// The GIVE-N-TAKE solution over [`AfterSolution::reversed`].
    pub solution: Solution,
}

impl AfterSolution {
    /// Production placed immediately *after* node `n` in original program
    /// order (the reversed solution's `RES_in`).
    pub fn res_after(&self, flavor: Flavor, n: NodeId) -> &BitSet {
        &self.solution.flavor(flavor).res_in[n.index()]
    }

    /// Production placed immediately *before* node `n` in original program
    /// order (the reversed solution's `RES_out`).
    pub fn res_before(&self, flavor: Flavor, n: NodeId) -> &BitSet {
        &self.solution.flavor(flavor).res_out[n.index()]
    }

    /// Total number of `(node, item)` production points for `flavor`.
    pub fn num_productions(&self, flavor: Flavor) -> usize {
        self.solution.flavor(flavor).num_productions()
    }
}

/// Solves an AFTER problem over `graph`.
///
/// `problem`'s node arrays are indexed by the *original* graph's node ids;
/// they are extended with empty sets for any synthetic nodes the reversal
/// introduces.
///
/// # Errors
///
/// Returns [`GraphError`] if the reversed graph cannot be built.
///
/// # Examples
///
/// ```
/// use gnt_core::{solve_after, Flavor, PlacementProblem, SolverOptions};
/// use gnt_cfg::IntervalGraph;
///
/// // x(a(i)) is defined in the loop; the WRITE back to the owner is the
/// // production, placed after the definitions.
/// let p = gnt_ir::parse("do i = 1, N\n  x(a(i)) = ...\nenddo\nb = 1")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let def = g.nodes().find(|&n| g.level(n) == 2).unwrap();
/// let mut problem = PlacementProblem::new(g.num_nodes(), 1);
/// problem.take(def, 0);
/// let after = solve_after(&g, &problem, &SolverOptions::default())?;
/// // One LAZY production right after the loop, not one per iteration.
/// assert_eq!(after.num_productions(Flavor::Lazy), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_after(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
) -> Result<AfterSolution, GraphError> {
    let mut scratch = crate::scratch::SolverScratch::new();
    solve_after_with_scratch(graph, problem, opts, &mut scratch)
}

/// [`solve_after`] reusing a caller-provided scratch arena — the
/// optimistic attempt and the poisoned fallback (and any further AFTER
/// solves through the same scratch) share one allocation. Both attempts
/// are one-shot solves and run on the interpreter: the fallback poisons
/// headers, which changes the schedule, so a compiled tape would never
/// be replayed.
///
/// # Errors
///
/// Fails if the reversed graph for the AFTER problem cannot be built.
pub fn solve_after_with_scratch(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut crate::scratch::SolverScratch,
) -> Result<AfterSolution, GraphError> {
    let mut reversed = reversed_graph(graph)?;
    let mut p = problem.clone();
    p.resize_nodes(reversed.num_nodes());

    // Optimistic attempt: loops entered by reversed jumps participate
    // fully (Eq. 11 extended with the jump-in sources), which yields the
    // paper's Figure 14 placement — the production region spans the jump
    // and the jump path gets its own balanced production at the landing
    // pad. This is sound whenever consumption on the jump path occurs
    // before the back edge; the independent verifiers decide.
    let solution = solve_with_scratch(&reversed, &p, opts, scratch);
    let jump_entered: Vec<_> = reversed
        .nodes()
        .filter(|&h| !reversed.jump_in_sources(h).is_empty())
        .collect();
    if !jump_entered.is_empty() {
        let ok = crate::verify::check_sufficiency(&reversed, &p, &solution.eager, true).is_empty()
            && crate::verify::check_sufficiency(&reversed, &p, &solution.lazy, true).is_empty()
            && crate::verify::check_balance(&reversed, &p, &solution.eager, &solution.lazy)
                .is_empty();
        if !ok {
            // Conservative fallback (§5.3's first mechanism): poison the
            // jump-entered loops; nothing is hoisted out of or across
            // them. "While our current approach prevents unsafe code
            // generation, it may miss some otherwise legal
            // optimizations" — the paper's own assessment.
            for h in jump_entered {
                reversed.poison(h);
            }
            let solution = solve_with_scratch(&reversed, &p, opts, scratch);
            return Ok(AfterSolution { reversed, solution });
        }
    }
    Ok(AfterSolution { reversed, solution })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_cfg::NodeKind;
    use gnt_ir::{parse, StmtKind};

    fn graph(src: &str) -> (gnt_ir::Program, IntervalGraph) {
        let p = parse(src).unwrap();
        let g = IntervalGraph::from_program(&p).unwrap();
        (p, g)
    }

    fn stmt_node(g: &IntervalGraph, p: &gnt_ir::Program, needle: &str) -> NodeId {
        g.nodes()
            .find(|&n| match g.kind(n) {
                NodeKind::Stmt(s) | NodeKind::LoopHeader(s) | NodeKind::Branch(s) => {
                    match &p.stmt(s).kind {
                        StmtKind::Assign { lhs, rhs } => format!("{lhs} = {rhs}").contains(needle),
                        StmtKind::Do { var, .. } => format!("do {var}").contains(needle),
                        _ => false,
                    }
                }
                _ => false,
            })
            .unwrap_or_else(|| panic!("no node for {needle}"))
    }

    #[test]
    fn write_after_loop_is_vectorized() {
        // Definitions inside a loop; the write-back is sunk below the
        // loop and executed once (the AFTER mirror of Figure 2).
        let (p, g) = graph("do i = 1, N\n  x(a(i)) = ...\nenddo\nb = 1");
        let def = stmt_node(&g, &p, "x(a(i))");
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        problem.take(def, 0);
        let after = solve_after(&g, &problem, &SolverOptions::default()).unwrap();
        // Lazy (WRITE_Send): once, just after the loop — i.e. at the
        // reversed graph's loop-header RES_in or equivalent; crucially not
        // at the in-loop definition.
        assert_eq!(after.num_productions(Flavor::Lazy), 1);
        assert!(after.res_after(Flavor::Lazy, def).is_empty());
        // Eager (WRITE_Recv): once, at the reversed ROOT (= original
        // exit): as late as possible in original order.
        assert_eq!(after.num_productions(Flavor::Eager), 1);
        assert!(after.res_after(Flavor::Eager, g.exit()).contains(0));
    }

    #[test]
    fn straight_line_write_sits_after_the_definition() {
        let (p, g) = graph("x(1) = 2\nb = 1");
        let def = stmt_node(&g, &p, "x(1) = 2");
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        problem.take(def, 0);
        let after = solve_after(&g, &problem, &SolverOptions::default()).unwrap();
        // Lazy production immediately after the definition.
        assert!(after.res_after(Flavor::Lazy, def).contains(0));
        assert_eq!(after.num_productions(Flavor::Lazy), 1);
    }

    #[test]
    fn steal_after_definition_blocks_sinking() {
        // A redefinition-by-others (steal) between def and program end:
        // the write must happen before the steal.
        let (p, g) = graph("x(1) = 2\nz = 0\nb = 1");
        let def = stmt_node(&g, &p, "x(1) = 2");
        let killer = stmt_node(&g, &p, "z = 0");
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        problem.take(def, 0);
        problem.steal(killer, 0);
        let after = solve_after(&g, &problem, &SolverOptions::default()).unwrap();
        // Eager (furthest after the def) stops before the steal: it may
        // not slide past `z = 0`.
        assert!(after.res_after(Flavor::Eager, killer).is_empty());
        assert!(
            after.res_after(Flavor::Eager, def).contains(0)
                || after.res_before(Flavor::Eager, killer).contains(0)
        );
    }

    #[test]
    fn defs_on_both_branches_meet_below_join() {
        let (_, g) = graph("if t then\n  x(1) = 1\nelse\n  x(1) = 2\nendif\nb = 1");
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        // Statement nodes in construction order: x(1)=1, x(1)=2, b=1.
        let defs: Vec<NodeId> = g
            .nodes()
            .filter(|&n| matches!(g.kind(n), NodeKind::Stmt(_)))
            .collect();
        problem.take(defs[0], 0);
        problem.take(defs[1], 0);
        let after = solve_after(&g, &problem, &SolverOptions::default()).unwrap();
        // One eager production at the reversed root (original exit).
        assert_eq!(after.num_productions(Flavor::Eager), 1);
        assert!(after.res_after(Flavor::Eager, g.exit()).contains(0));
    }

    #[test]
    fn jump_out_of_loop_still_vectorizes_the_write() {
        // With a goto out of the loop the reversed graph has a jump-in
        // edge. The optimistic solve (Eq. 11 extended with the jump-in
        // sources) still vectorizes: one write on the fall-through exit
        // and one on the jump path — Figure 14's placement — rather than
        // one per iteration; the independent verifiers accept it.
        let (p, g) = graph("do i = 1, N\n  x(a(i)) = ...\n  if t(i) goto 7\nenddo\n7 b = 2");
        let def = stmt_node(&g, &p, "x(a(i))");
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        problem.take(def, 0);
        let after = solve_after(&g, &problem, &SolverOptions::default()).unwrap();
        // Not per-iteration: nothing directly after the in-loop def.
        assert!(
            after.res_after(Flavor::Lazy, def).is_empty(),
            "{}",
            after.reversed.dump()
        );
        // Exactly two lazy sends: fall-through exit and jump path.
        assert_eq!(after.num_productions(Flavor::Lazy), 2);
        let mut p2 = problem.clone();
        p2.resize_nodes(after.reversed.num_nodes());
        assert!(
            crate::verify::check_sufficiency(&after.reversed, &p2, &after.solution.lazy, true)
                .is_empty()
        );
        assert!(crate::verify::check_balance(
            &after.reversed,
            &p2,
            &after.solution.eager,
            &after.solution.lazy
        )
        .is_empty());
    }
}
