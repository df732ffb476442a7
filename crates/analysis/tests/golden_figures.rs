//! Golden tests: each bad-placement shape of the paper's Figures 4–10
//! produces exactly its registry diagnostic, anchored to the right
//! source span.

use gnt_analyze::diag::attach_spans;
use gnt_analyze::placement::{lint_placement, PlacementLintOptions};
use gnt_analyze::Diagnostic;
use gnt_cfg::{node_spans, IntervalGraph, NodeId};
use gnt_core::{solve, PlacementProblem, Solution, SolverOptions};
use gnt_ir::Program;

/// Parses `src` and returns the graph plus its statement nodes in
/// program order (the `if`/`do` headers are statement nodes too).
fn setup(src: &str) -> (Program, IntervalGraph, Vec<NodeId>) {
    let program = gnt_ir::parse(src).expect("test source parses");
    let graph = IntervalGraph::from_program(&program).expect("test source is reducible");
    let stmts = graph
        .nodes()
        .filter(|&n| graph.kind(n).stmt().is_some())
        .collect();
    (program, graph, stmts)
}

/// The statement node whose source span is exactly `text`.
fn stmt_node(program: &Program, graph: &IntervalGraph, src: &str, text: &str) -> NodeId {
    let spans = node_spans(program, graph);
    graph
        .nodes()
        .find(|n| spans[n.index()].is_some_and(|s| s.slice(src) == text))
        .unwrap_or_else(|| panic!("no statement node for {text:?}"))
}

/// An all-empty solution pair for hand-building placements.
fn blank(graph: &IntervalGraph, items: usize) -> Solution {
    let empty = PlacementProblem::new(graph.num_nodes(), items);
    solve(graph, &empty, &SolverOptions::default())
}

/// Places a complete eager+lazy pair of `item` at the entry of `node`.
fn pair_at(sol: &mut Solution, node: NodeId, item: usize) {
    sol.eager.res_in[node.index()].insert(item);
    sol.lazy.res_in[node.index()].insert(item);
}

fn lint(
    program: &Program,
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    sol: &Solution,
) -> Vec<Diagnostic> {
    let mut diags = lint_placement(
        graph,
        problem,
        &sol.eager,
        &sol.lazy,
        &PlacementLintOptions::default(),
    );
    attach_spans(&mut diags, &node_spans(program, graph));
    diags
}

/// Asserts the lint result is exactly one `code` diagnostic whose span
/// covers `expect_src`.
fn assert_single(diags: &[Diagnostic], code: &str, src: &str, expect_src: &str) {
    assert_eq!(
        diags.len(),
        1,
        "expected exactly one {code}, got: {:?}",
        diags
            .iter()
            .map(|d| (d.code, &d.message))
            .collect::<Vec<_>>()
    );
    assert_eq!(diags[0].code, code);
    let span = diags[0].primary_span.expect("diagnostic has a source span");
    assert_eq!(span.slice(src), expect_src);
}

/// Figure 6 (criterion C3): a production on only one branch arm leaves
/// the consumer unfed on the other path.
#[test]
fn fig6_insufficient_is_gnt001() {
    let src = "if t then\n  a = 1\nelse\n  b = 2\nendif\nc = x(1)";
    let (program, graph, _) = setup(src);
    let mut problem = PlacementProblem::new(graph.num_nodes(), 1);
    problem.take_init[stmt_node(&program, &graph, src, "c = x(1)").index()].insert(0);
    let mut sol = blank(&graph, 1);
    pair_at(&mut sol, stmt_node(&program, &graph, src, "a = 1"), 0); // then-arm only
    let diags = lint(&program, &graph, &problem, &sol);
    assert_single(&diags, "GNT001", src, "c = x(1)");
}

/// Figure 4 (criterion C1): a lazy production with no open eager
/// production to close.
#[test]
fn fig4_unbalanced_is_gnt002() {
    let src = "a = 1\nb = 2\nc = x(1)";
    let (program, graph, stmts) = setup(src);
    let mut problem = PlacementProblem::new(graph.num_nodes(), 1);
    problem.take_init[stmts[2].index()].insert(0);
    let mut sol = blank(&graph, 1);
    sol.eager.res_in[stmts[0].index()].insert(0);
    sol.lazy.res_in[stmts[1].index()].insert(0); // closes the pair
    sol.lazy.res_in[stmts[2].index()].insert(0); // dangling lazy
    let diags = lint(&program, &graph, &problem, &sol);
    assert_single(&diags, "GNT002", src, "c = x(1)");
}

/// Figure 5 (criterion C2): a production no consumer ever reaches.
#[test]
fn fig5_unsafe_is_gnt003() {
    let src = "a = 1\nb = 2";
    let (program, graph, stmts) = setup(src);
    let problem = PlacementProblem::new(graph.num_nodes(), 1);
    let mut sol = blank(&graph, 1);
    pair_at(&mut sol, stmts[0], 0);
    let diags = lint(&program, &graph, &problem, &sol);
    assert_single(&diags, "GNT003", src, "a = 1");
}

/// Figure 7 (criterion O1): the item is produced a second time while
/// the first production is still available.
#[test]
fn fig7_redundant_is_gnt004() {
    let src = "a = 1\nb = 2\nc = x(1)";
    let (program, graph, stmts) = setup(src);
    let mut problem = PlacementProblem::new(graph.num_nodes(), 1);
    problem.take_init[stmts[2].index()].insert(0);
    let mut sol = blank(&graph, 1);
    pair_at(&mut sol, stmts[0], 0);
    pair_at(&mut sol, stmts[1], 0); // re-production, nothing consumed between
    let diags = lint(&program, &graph, &problem, &sol);
    assert_single(&diags, "GNT004", src, "b = 2");
}

/// O1 around a loop: a header's `RES_out` fires only toward the loop's
/// exit, so it never makes a production inside the body redundant.
#[test]
fn header_res_out_does_not_leak_into_its_body() {
    let src = "do i = 1, N\n  b = 2\nenddo\nc = x(1)";
    let (program, graph, _) = setup(src);
    let header = stmt_node(&program, &graph, src, "do i = 1, N");
    let body = stmt_node(&program, &graph, src, "b = 2");
    let mut problem = PlacementProblem::new(graph.num_nodes(), 1);
    problem.take_init[stmt_node(&program, &graph, src, "c = x(1)").index()].insert(0);
    let mut sol = blank(&graph, 1);
    sol.eager.res_out[header.index()].insert(0);
    sol.lazy.res_out[header.index()].insert(0);
    pair_at(&mut sol, body, 0);
    let diags = lint(&program, &graph, &problem, &sol);
    assert!(diags.iter().all(|d| d.code != "GNT004"), "got: {diags:?}");
}

/// O1 around a loop: a header's `RES_in` fires on entry from outside
/// only, not again on the CYCLE edge. Entered with the item available,
/// the header's production is redundant. The body's is not: the body
/// consumes the item, and coming back over the CYCLE edge does not
/// re-produce it at the header.
#[test]
fn header_res_in_does_not_refire_on_the_cycle_edge() {
    let src = "a = 1\ndo i = 1, N\n  b = x(1)\nenddo";
    let (program, graph, _) = setup(src);
    let header = stmt_node(&program, &graph, src, "do i = 1, N");
    let body = stmt_node(&program, &graph, src, "b = x(1)");
    let mut problem = PlacementProblem::new(graph.num_nodes(), 1);
    problem.take_init[body.index()].insert(0);
    let mut sol = blank(&graph, 1);
    pair_at(&mut sol, stmt_node(&program, &graph, src, "a = 1"), 0);
    pair_at(&mut sol, header, 0); // still available from `a = 1`
    pair_at(&mut sol, body, 0); // consumed on every trip around the loop
    let diags = lint(&program, &graph, &problem, &sol);
    let redundant: Vec<_> = diags.iter().filter(|d| d.code == "GNT004").collect();
    assert_eq!(redundant.len(), 1, "got: {diags:?}");
    assert_eq!(redundant[0].node, Some(header));
}

/// O1 across a `goto` out of a loop: `RES_out` fires toward a JUMP
/// successor, so the item arrives available at the jump target.
#[test]
fn jump_exit_carries_res_out() {
    let src = "do i = 1, N\n  if t(i) goto 7\nenddo\ngoto 8\n7 b = 2\n8 c = x(1)";
    let (program, graph, _) = setup(src);
    let jump = stmt_node(&program, &graph, src, "if t(i) goto 7");
    let mut problem = PlacementProblem::new(graph.num_nodes(), 1);
    problem.take_init[stmt_node(&program, &graph, src, "8 c = x(1)").index()].insert(0);
    let mut sol = blank(&graph, 1);
    sol.eager.res_out[jump.index()].insert(0);
    sol.lazy.res_out[jump.index()].insert(0);
    pair_at(&mut sol, stmt_node(&program, &graph, src, "goto 8"), 0);
    pair_at(&mut sol, stmt_node(&program, &graph, src, "7 b = 2"), 0);
    let diags = lint(&program, &graph, &problem, &sol);
    assert_single(&diags, "GNT004", src, "7 b = 2");
}

/// Figure 8 (criterion O2): one production per branch arm where a
/// single hoisted production suffices.
#[test]
fn fig8_excess_producers_is_gnt005() {
    let src = "if t then\n  a = 1\nelse\n  b = 2\nendif\nc = x(1)";
    let (program, graph, _) = setup(src);
    let mut problem = PlacementProblem::new(graph.num_nodes(), 1);
    problem.take_init[stmt_node(&program, &graph, src, "c = x(1)").index()].insert(0);
    let mut sol = blank(&graph, 1);
    pair_at(&mut sol, stmt_node(&program, &graph, src, "a = 1"), 0);
    pair_at(&mut sol, stmt_node(&program, &graph, src, "b = 2"), 0);
    let diags = lint(&program, &graph, &problem, &sol);
    assert_eq!(diags.len(), 1, "got: {diags:?}");
    assert_eq!(diags[0].code, "GNT005");
    let span = diags[0].primary_span.expect("span");
    assert!(
        ["a = 1", "b = 2"].contains(&span.slice(src)),
        "GNT005 points at one of the per-arm productions"
    );
}

/// Figure 9 (criterion O3): the eager production sits at the consumer
/// although it could be hoisted to the top.
#[test]
fn fig9_eager_not_early_is_gnt006() {
    let src = "a = 1\nb = 2\nc = x(1)";
    let (program, graph, stmts) = setup(src);
    let mut problem = PlacementProblem::new(graph.num_nodes(), 1);
    problem.take_init[stmts[2].index()].insert(0);
    // Start from the optimum, then drag the eager point down to the
    // consumer (the lazy point already sits there).
    let mut sol = solve(&graph, &problem, &SolverOptions::default());
    gnt_core::shift_off_synthetic(&graph, &mut sol.eager);
    gnt_core::shift_off_synthetic(&graph, &mut sol.lazy);
    for i in 0..graph.num_nodes() {
        sol.eager.res_in[i].remove(0);
        sol.eager.res_out[i].remove(0);
    }
    sol.eager.res_in[stmts[2].index()].insert(0);
    let diags = lint(&program, &graph, &problem, &sol);
    assert_single(&diags, "GNT006", src, "c = x(1)");
    assert!(diags[0].notes.iter().any(|n| n.contains("hoists")));
}

/// Figure 10 (criterion O3'): the lazy production fires earlier than
/// necessary, shrinking the latency-hiding region.
#[test]
fn fig10_lazy_not_late_is_gnt007() {
    let src = "a = 1\nb = 2\nc = x(1)";
    let (program, graph, stmts) = setup(src);
    let mut problem = PlacementProblem::new(graph.num_nodes(), 1);
    problem.take_init[stmts[2].index()].insert(0);
    // Start from the optimum, then drag the lazy point up to `b = 2`.
    let mut sol = solve(&graph, &problem, &SolverOptions::default());
    gnt_core::shift_off_synthetic(&graph, &mut sol.eager);
    gnt_core::shift_off_synthetic(&graph, &mut sol.lazy);
    for i in 0..graph.num_nodes() {
        sol.lazy.res_in[i].remove(0);
        sol.lazy.res_out[i].remove(0);
    }
    sol.lazy.res_in[stmts[1].index()].insert(0);
    let diags = lint(&program, &graph, &problem, &sol);
    assert_single(&diags, "GNT007", src, "b = 2");
    assert!(diags[0].notes.iter().any(|n| n.contains("delays")));
}

/// The solver's own output on every golden shape is clean — the lints
/// fire on the hand-broken placements only.
#[test]
fn solver_output_on_golden_sources_is_clean() {
    for src in [
        "if t then\n  a = 1\nelse\n  b = 2\nendif\nc = x(1)",
        "a = 1\nb = 2\nc = x(1)",
    ] {
        let (program, graph, stmts) = setup(src);
        let mut problem = PlacementProblem::new(graph.num_nodes(), 1);
        problem.take_init[stmts.last().unwrap().index()].insert(0);
        let mut sol = solve(&graph, &problem, &SolverOptions::default());
        gnt_core::shift_off_synthetic(&graph, &mut sol.eager);
        gnt_core::shift_off_synthetic(&graph, &mut sol.lazy);
        let diags = lint(&program, &graph, &problem, &sol);
        assert!(
            diags.is_empty(),
            "solver output flagged on {src:?}: {diags:?}"
        );
    }
}
