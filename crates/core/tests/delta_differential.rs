//! Differential suite for the incremental delta engine: after any
//! sequence of marked single-row mutations, [`solve_delta`] leaves the
//! scratch bit-identical to a fresh full solve of the mutated problem —
//! on 500+ random programs across word-boundary-straddling universes, on
//! the paper's figure programs, and under proptest-driven mutation
//! sequences. The suite also pins the *incrementality*: warm forward
//! solves must actually run fewer ops than the tape holds, and the
//! decline paths (reversed graphs with jump-in sources, cold scratches,
//! changed universes) must fall back to a full replay rather than serve
//! stale bits.

use gnt_cfg::{reversed_graph, IntervalGraph, NodeId, NodeKind};
use gnt_core::{
    random_problem, random_program, solve, solve_after, solve_batch_into, solve_delta,
    solve_delta_with_scratch, DeltaKind, DeltaSet, GenConfig, PlacementProblem, SolverOptions,
    SolverScratch,
};
use gnt_ir::parse;
use proptest::prelude::*;

/// A tiny deterministic generator for mutation choices (the vendored
/// `rand` shim is for the program generator; test-local draws keep the
/// mutation schedule independent of it).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 17
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// Toggles one `(kind, node, item)` bit of `problem` and records the row
/// in `delta` — the exact contract [`solve_delta`] is specified against.
fn mutate(problem: &mut PlacementProblem, delta: &mut DeltaSet, rng: &mut Lcg, universe: usize) {
    let node = rng.below(problem.num_nodes());
    let item = rng.below(universe);
    let kind = match rng.below(3) {
        0 => DeltaKind::Take,
        1 => DeltaKind::Steal,
        _ => DeltaKind::Give,
    };
    let node_id = NodeId(node as u32);
    let row = match kind {
        DeltaKind::Take => &mut problem.take_init[node],
        DeltaKind::Steal => &mut problem.steal_init[node],
        DeltaKind::Give => &mut problem.give_init[node],
    };
    if row.contains(item) {
        row.remove(item);
    } else {
        row.insert(item);
    }
    delta.mark(kind, node_id);
}

/// Warm `scratch` on `problem`, apply `mutations` toggles, re-solve
/// incrementally, and compare against a fresh interpreted solve of the
/// mutated problem. Returns whether the incremental path served the call.
#[allow(clippy::too_many_arguments)]
fn run_mutation_case(
    graph: &IntervalGraph,
    problem: &mut PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    rng: &mut Lcg,
    universe: usize,
    mutations: usize,
    label: &str,
) -> bool {
    solve_batch_into(graph, problem, opts, scratch);
    let mut delta = DeltaSet::new();
    for _ in 0..mutations {
        mutate(problem, &mut delta, rng, universe);
    }
    let (solution, report) = solve_delta_with_scratch(graph, problem, opts, scratch, &delta);
    assert_eq!(solution, solve(graph, problem, opts), "{label}");
    assert!(report.ops_run <= report.ops_total, "{label}: {report:?}");
    !report.full_replay
}

#[test]
fn delta_matches_fresh_solve_on_500_random_programs() {
    let universes = [1usize, 5, 63, 64, 65, 128, 200, 256, 300];
    let config = GenConfig {
        goto_prob: 0.1,
        ..Default::default()
    };
    let mut scratch = SolverScratch::new();
    let mut incremental = 0usize;
    for seed in 0..500u64 {
        let universe = universes[seed as usize % universes.len()];
        let program = random_program(seed, &config);
        let graph = IntervalGraph::from_program(&program).unwrap();
        let mut problem = random_problem(seed.wrapping_mul(31), &graph, universe, 0.3);
        let mut rng = Lcg(seed ^ 0xD17A);
        if run_mutation_case(
            &graph,
            &mut problem,
            &SolverOptions::default(),
            &mut scratch,
            &mut rng,
            universe,
            1,
            &format!("seed {seed}, universe {universe}"),
        ) {
            incremental += 1;
        }
    }
    // Forward tapes always support the engine; every warm case must have
    // gone incremental.
    assert_eq!(incremental, 500, "forward solves must never fall back");
}

/// Chains of mutations against one warm scratch: each round re-solves
/// incrementally on top of the *previous* incremental solve, so basis
/// maintenance (not just single-shot correctness) is exercised.
#[test]
fn repeated_deltas_stay_identical_across_rounds() {
    let mut scratch = SolverScratch::new();
    for seed in 0..60u64 {
        let universe = 96;
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let mut problem = random_problem(seed + 3, &graph, universe, 0.25);
        let opts = SolverOptions::default();
        solve_batch_into(&graph, &problem, &opts, &mut scratch);
        let mut rng = Lcg(seed.wrapping_mul(977));
        let mut delta = DeltaSet::new();
        for round in 0..8 {
            delta.clear();
            for _ in 0..(1 + rng.below(3)) {
                mutate(&mut problem, &mut delta, &mut rng, universe);
            }
            let report = solve_delta(&graph, &problem, &opts, &mut scratch, &delta);
            assert!(
                !report.full_replay,
                "seed {seed}, round {round}: must stay incremental"
            );
            assert_eq!(
                scratch.export(),
                solve(&graph, &problem, &opts),
                "seed {seed}, round {round}"
            );
        }
    }
}

/// Reversed graphs (jump-in sources ⇒ forward references in the tape)
/// must decline the incremental path yet still produce exact results —
/// on a plain reversal, on the graph `solve_after` solved (poisoned when
/// its fallback fired), and on a copy of that with every jump-entered
/// header poisoned.
#[test]
fn reversed_graphs_fall_back_and_stay_correct() {
    let mut scratch = SolverScratch::new();
    let mut declined = 0usize;
    for seed in 0..80u64 {
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let universe = 70;
        let base = random_problem(seed + 11, &graph, universe, 0.3);
        let opts = SolverOptions::default();
        let after = solve_after(&graph, &base, &opts).unwrap();
        let mut poisoned = after.reversed.clone();
        let jump_entered: Vec<_> = poisoned
            .nodes()
            .filter(|&h| !poisoned.jump_in_sources(h).is_empty())
            .collect();
        for h in jump_entered {
            poisoned.poison(h);
        }
        let graphs = [
            ("reversed", reversed_graph(&graph).unwrap()),
            ("after.reversed", after.reversed),
            ("after.reversed poisoned", poisoned),
        ];
        for (label, rg) in &graphs {
            let mut problem = base.clone();
            problem.resize_nodes(rg.num_nodes());
            solve_batch_into(rg, &problem, &opts, &mut scratch);
            let mut delta = DeltaSet::new();
            let mut rng = Lcg(seed ^ 0xAF7E);
            mutate(&mut problem, &mut delta, &mut rng, universe);
            let report = solve_delta(rg, &problem, &opts, &mut scratch, &delta);
            assert_eq!(
                scratch.export(),
                solve(rg, &problem, &opts),
                "{label}, seed {seed}"
            );
            if report.full_replay {
                declined += 1;
            }
        }
    }
    assert!(
        declined > 0,
        "some reversed graphs must have jump-in sources and decline"
    );
}

/// The paper's figure programs: a steal toggled at the root (the classic
/// "block hoisting past the top" edit) re-solves incrementally, runs a
/// strict subset of the tape, and matches the fresh solve bit-for-bit.
#[test]
fn figure_programs_resolve_incrementally() {
    let figures: &[&str] = &[
        "if t then\n  a = 1\nelse\n  b = 2\nendif\nc = x(1)",
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
            }
            let opts = SolverOptions::default();
            let mut scratch = SolverScratch::new();
            solve_batch_into(&graph, &problem, &opts, &mut scratch);
            problem.steal(graph.root(), 0);
            let mut delta = DeltaSet::new();
            delta.mark_steal(graph.root());
            let report = solve_delta(&graph, &problem, &opts, &mut scratch, &delta);
            assert!(!report.full_replay, "figure {fig}, items {items}");
            assert!(
                report.ops_run < report.ops_total,
                "figure {fig}, items {items}: {report:?}"
            );
            assert_eq!(
                scratch.export(),
                solve(&graph, &problem, &opts),
                "figure {fig}, items {items}"
            );
        }
    }
}

/// An *unmarked* mutation after an intervening marked solve must still be
/// reported consistently once it IS marked: the engine trusts the marks,
/// so the test documents the contract by marking late and checking the
/// late solve converges to the fresh result.
#[test]
fn late_marking_converges_once_the_row_is_named() {
    let src = "do i = 1, N\n  ... = x(a(i))\nenddo\nb = 1\nc = x(2)";
    let graph = IntervalGraph::from_program(&parse(src).unwrap()).unwrap();
    let mut problem = PlacementProblem::new(graph.num_nodes(), 8);
    let consumers: Vec<_> = graph
        .nodes()
        .filter(|&n| matches!(graph.kind(n), NodeKind::Stmt(_)))
        .collect();
    for (k, &c) in consumers.iter().enumerate() {
        problem.take(c, k % 8);
    }
    let opts = SolverOptions::default();
    let mut scratch = SolverScratch::new();
    solve_batch_into(&graph, &problem, &opts, &mut scratch);
    // Mutate two rows, but only mark one: the engine may serve stale bits
    // for the unmarked row's cone (the documented contract)...
    problem.steal(consumers[0], 1);
    problem.give(consumers[1], 2);
    let mut delta = DeltaSet::new();
    delta.mark_steal(consumers[0]);
    solve_delta(&graph, &problem, &opts, &mut scratch, &delta);
    // ...and a follow-up solve naming the forgotten row repairs it fully.
    delta.clear();
    delta.mark_give(consumers[1]);
    let report = solve_delta(&graph, &problem, &opts, &mut scratch, &delta);
    assert!(!report.full_replay);
    assert_eq!(scratch.export(), solve(&graph, &problem, &opts));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary programs, universes, and mutation batch sizes: the
    /// incremental solve equals the fresh solve after every batch.
    #[test]
    fn delta_differential_holds_on_arbitrary_mutation_sequences(
        pseed in 0u64..50_000,
        universe in 1usize..160,
        batches in 1usize..5,
        per_batch in 1usize..6,
    ) {
        let program = random_program(pseed, &GenConfig { goto_prob: 0.05, ..Default::default() });
        let graph = IntervalGraph::from_program(&program).unwrap();
        let mut problem = random_problem(pseed ^ 0x5eed, &graph, universe, 0.3);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_batch_into(&graph, &problem, &opts, &mut scratch);
        let mut rng = Lcg(pseed.wrapping_mul(2654435761));
        let mut delta = DeltaSet::new();
        for batch in 0..batches {
            delta.clear();
            for _ in 0..per_batch {
                mutate(&mut problem, &mut delta, &mut rng, universe);
            }
            let report = solve_delta(&graph, &problem, &opts, &mut scratch, &delta);
            prop_assert!(!report.full_replay, "seed {pseed}, batch {batch}");
            prop_assert!(
                scratch.export() == solve(&graph, &problem, &opts),
                "seed {pseed}, batch {batch}"
            );
        }
    }
}
