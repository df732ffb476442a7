//! Differential suite for the schedule-compiled solver: replaying a
//! [`ScheduleTape`] (`solve_batch*`) is bit-identical to the interpreted
//! four-pass solver (`solve`/`solve_into`) — on 500+ random programs
//! across universe sizes straddling every word boundary, on the reversed
//! graphs of the AFTER direction (jump-in edges, synthetic pads,
//! poisoned headers), and on the paper's figure programs.
//!
//! One scratch and one output buffer are shared across every case of a
//! sweep, so the tape cache is invalidated (different graph fingerprint)
//! and the output buffer re-shaped (different universe) at each step —
//! the reuse machinery is exercised as hard as the kernels.

use gnt_cfg::{reversed_graph, IntervalGraph, NodeKind};
use gnt_core::{
    random_problem, random_program, solve, solve_after, solve_batch, solve_batch_into,
    solve_batch_with_scratch, GenConfig, PlacementProblem, ScheduleTape, Solution, SolverOptions,
    SolverScratch,
};
use gnt_ir::parse;

/// One BEFORE-direction case: interpreted `solve` vs cached-tape
/// `solve_batch` (shared warm scratch + output buffer) vs
/// `solve_batch_with_scratch` (export path), all 20 variable families.
fn run_case(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    out: &mut Solution,
    label: &str,
) {
    let expected = solve(graph, problem, opts);
    solve_batch(graph, problem, opts, scratch, out);
    assert_eq!(*out, expected, "{label}: solve_batch");
    let exported = solve_batch_with_scratch(graph, problem, opts, scratch);
    assert_eq!(exported, expected, "{label}: solve_batch_with_scratch");
}

#[test]
fn tape_matches_interpreter_on_500_random_programs() {
    let universes = [1usize, 5, 63, 64, 65, 128, 200, 256, 300];
    let config = GenConfig {
        goto_prob: 0.1,
        ..Default::default()
    };
    let mut scratch = SolverScratch::new();
    let mut out = Solution::default();
    for seed in 0..500u64 {
        let universe = universes[seed as usize % universes.len()];
        let program = random_program(seed, &config);
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(seed.wrapping_mul(31), &graph, universe, 0.3);
        run_case(
            &graph,
            &problem,
            &SolverOptions::default(),
            &mut scratch,
            &mut out,
            &format!("seed {seed}, universe {universe}"),
        );
    }
}

/// The AFTER direction's graphs: the tape must agree with the interpreter
/// on reversed graphs — jump-in edges extending Eq. 11, synthetic landing
/// pads, and the §5.3 poisoned fallback. `solve_after` itself runs on the
/// interpreter, so the tape is replayed directly on the graph it solved
/// (`after.reversed`, poisoned when the fallback fired) as well as on a
/// plain reversal and a poisoned copy of it.
#[test]
fn tape_matches_interpreter_on_reversed_graphs() {
    let mut scratch = SolverScratch::new();
    let mut out = Solution::default();
    for seed in 0..120u64 {
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(seed + 7, &graph, 130, 0.3);
        let opts = SolverOptions::default();

        let after = solve_after(&graph, &problem, &opts).unwrap();
        let mut ap = problem.clone();
        ap.resize_nodes(after.reversed.num_nodes());
        assert_eq!(
            after.solution,
            solve(&after.reversed, &ap, &opts),
            "after, seed {seed}"
        );
        run_case(
            &after.reversed,
            &ap,
            &opts,
            &mut scratch,
            &mut out,
            &format!("after.reversed, seed {seed}"),
        );

        let mut rg = reversed_graph(&graph).unwrap();
        let mut rp = problem.clone();
        rp.resize_nodes(rg.num_nodes());
        run_case(
            &rg,
            &rp,
            &opts,
            &mut scratch,
            &mut out,
            &format!("reversed, seed {seed}"),
        );

        // The §5.3 fallback shape: poison every jump-entered header and
        // compare again through the *same* scratch — the fingerprint
        // change must force a recompile, never a stale replay.
        let jump_entered: Vec<_> = rg
            .nodes()
            .filter(|&h| !rg.jump_in_sources(h).is_empty())
            .collect();
        if !jump_entered.is_empty() {
            for h in jump_entered {
                rg.poison(h);
            }
            run_case(
                &rg,
                &rp,
                &opts,
                &mut scratch,
                &mut out,
                &format!("reversed+poisoned, seed {seed}"),
            );
        }
    }
}

/// `solve_batch_into` leaves the scratch in exactly the state
/// `solve_into` does: every accessor-visible variable identical, so blame
/// queries and the pressure loop read the same bits either way.
#[test]
fn batch_into_leaves_identical_scratch_state() {
    for seed in [3u64, 17, 42, 99] {
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let problem = random_problem(seed, &graph, 96, 0.4);
        let opts = SolverOptions::default();
        let mut interp = SolverScratch::new();
        gnt_core::solve_into(&graph, &problem, &opts, &mut interp);
        let mut taped = SolverScratch::new();
        solve_batch_into(&graph, &problem, &opts, &mut taped);
        assert_eq!(interp.export(), taped.export(), "seed {seed}");
        let n = graph.nodes().next().unwrap();
        assert_eq!(
            interp.in_flight_count(n),
            taped.in_flight_count(n),
            "seed {seed}: in-flight accessor"
        );
    }
}

/// The paper's figure programs, BEFORE and AFTER: golden shapes the rest
/// of the test suite pins in detail, here checked bit-for-bit between the
/// tape and the interpreter — AFTER on the graph `solve_after` solved and
/// on a copy of it with every loop header poisoned.
#[test]
fn figure_programs_solve_identically_before_and_after() {
    // Figures 1/2 (branch consumers), 4–10 (straight-line and branch
    // shapes of §4's worked example), 11/12/16 (the goto program).
    let figures: &[&str] = &[
        "if t then\n  a = 1\nelse\n  b = 2\nendif\nc = x(1)",
        "a = 1\nb = 2\nc = x(1)",
        "do i = 1, N\n  y(i) = ...\nenddo\n\
         if test then\n  do k = 1, N\n    ... = x(a(k))\n  enddo\n\
         else\n  do l = 1, N\n    ... = x(a(l))\n  enddo\nendif",
        "do i = 1, N\n\
         \u{20} y(a(i)) = ...\n\
         \u{20} if test(i) goto 77\n\
         enddo\n\
         do j = 1, N\n\
         \u{20} ... = ...\n\
         enddo\n\
         77 do k = 1, N\n\
         \u{20} ... = x(k+10) + y(b(k))\n\
         enddo",
    ];
    let mut scratch = SolverScratch::new();
    let mut out = Solution::default();
    for (fig, src) in figures.iter().enumerate() {
        let program = parse(src).unwrap();
        let graph = IntervalGraph::from_program(&program).unwrap();
        for items in [1usize, 64, 65] {
            let mut problem = PlacementProblem::new(graph.num_nodes(), items);
            for (k, n) in graph
                .nodes()
                .filter(|&n| matches!(graph.kind(n), NodeKind::Stmt(_)))
                .enumerate()
            {
                problem.take(n, k % items);
                if k % 3 == 2 {
                    problem.steal(n, (k + 1) % items);
                }
            }
            let opts = SolverOptions::default();
            run_case(
                &graph,
                &problem,
                &opts,
                &mut scratch,
                &mut out,
                &format!("figure {fig}, items {items}"),
            );
            // AFTER through the public pipeline: the result must equal a
            // fresh interpreted solve on its own reversed graph, and the
            // tape replayed on that graph (and on a poisoned copy) must
            // agree with the interpreter.
            let after = solve_after(&graph, &problem, &opts).unwrap();
            let mut rp = problem.clone();
            rp.resize_nodes(after.reversed.num_nodes());
            assert_eq!(
                after.solution,
                solve(&after.reversed, &rp, &opts),
                "figure {fig}, items {items}: after"
            );
            run_case(
                &after.reversed,
                &rp,
                &opts,
                &mut scratch,
                &mut out,
                &format!("figure {fig}, items {items}: after.reversed"),
            );
            let mut poisoned = after.reversed.clone();
            let headers: Vec<_> = poisoned
                .nodes()
                .filter(|&h| poisoned.is_loop_header(h))
                .collect();
            for h in headers {
                poisoned.poison(h);
            }
            run_case(
                &poisoned,
                &rp,
                &opts,
                &mut scratch,
                &mut out,
                &format!("figure {fig}, items {items}: after.reversed poisoned"),
            );
        }
    }
}

/// Compiling twice yields the identical op sequence (determinism), and a
/// recompiled tape after poisoning differs — the fingerprint really
/// tracks the schedule, not just the node count.
#[test]
fn compilation_is_deterministic_and_poison_sensitive() {
    let src = "do i = 1, N\n  ... = x(a(i))\n  if t(i) goto 7\nenddo\n7 b = 2";
    let program = parse(src).unwrap();
    let graph = IntervalGraph::from_program(&program).unwrap();
    let opts = SolverOptions::default();
    let a = ScheduleTape::compile(&graph, &opts);
    let b = ScheduleTape::compile(&graph, &opts);
    assert_eq!(a.ops(), b.ops());
    assert_eq!(a.num_nodes(), graph.num_nodes());
    let no_hoist = SolverOptions {
        no_zero_trip_hoist: true,
        ..Default::default()
    };
    let c = ScheduleTape::compile(&graph, &no_hoist);
    assert_ne!(a.ops(), c.ops(), "poisoning must change the emitted ops");
}
