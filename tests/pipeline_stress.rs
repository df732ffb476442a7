//! Stress: the whole pipeline (analyze → generate → render → simulate)
//! on randomly generated programs never panics, never leaves operations
//! unattributed in the simulator, and never loses to the naive placement
//! on messages; and the solutions a plan carries are the ones the lint
//! driver reads in place of solving again.

use give_n_take::analyze::audit::{audit_placement, AuditOptions};
use give_n_take::analyze::placement::{lint_placement, PlacementLintOptions};
use give_n_take::comm::{analyze, generate, render, CommConfig};
use give_n_take::core::{
    check_balance, check_sufficiency, random_program, shift_off_synthetic, solve, GenConfig,
    SolverOptions,
};
use give_n_take::ir::{Expr, LValue, Program, StmtKind};
use give_n_take::sim::{simulate, Mode, SimConfig};

/// Rewrites the opaque statements of a random program into distributed
/// array traffic so the communication pipeline has something to do.
fn add_array_accesses(program: &Program, seed: u64) -> Program {
    let text = give_n_take::ir::pretty(program);
    let reparsed = give_n_take::ir::parse(&text).unwrap();
    let mut out = reparsed.clone();
    let mut counter = seed;
    for (id, stmt) in reparsed.iter() {
        if let StmtKind::Assign {
            lhs: LValue::Scalar(_),
            rhs: Expr::Opaque,
        } = &stmt.kind
        {
            counter = counter.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pick = (counter >> 33) % 3;
            let new_kind = match pick {
                0 => StmtKind::Assign {
                    lhs: LValue::Opaque,
                    rhs: Expr::elem("x", Expr::elem("a", Expr::var("q"))),
                },
                1 => StmtKind::Assign {
                    lhs: LValue::Element("x".into(), Expr::var("q")),
                    rhs: Expr::Opaque,
                },
                _ => StmtKind::Assign {
                    lhs: LValue::Opaque,
                    rhs: Expr::elem(
                        "x",
                        Expr::bin(give_n_take::ir::BinOp::Add, Expr::var("q"), Expr::Const(3)),
                    ),
                },
            };
            out.stmt_mut(id).kind = new_kind;
        }
    }
    out
}

#[test]
fn random_programs_flow_through_the_whole_pipeline() {
    let config = GenConfig::default();
    let mut ran = 0;
    for seed in 0..40u64 {
        let base = random_program(seed, &config);
        let program = add_array_accesses(&base, seed);
        let Ok(analysis) = analyze(&program, &CommConfig::distributed(&["x"])) else {
            continue;
        };
        let plan = generate(analysis).expect("plan");
        let listing = render(&program, &plan);
        assert!(!listing.is_empty());

        let sim_config = SimConfig::with_n(24);
        let naive = simulate(&program, &plan, &sim_config, Mode::Naive);
        let gnt = simulate(&program, &plan, &sim_config, Mode::GiveNTake);
        assert!(
            gnt.messages <= naive.messages.max(2),
            "seed {seed}: {} vs {}\n{listing}",
            gnt.messages,
            naive.messages
        );
        assert_eq!(gnt.statements, naive.statements, "same control flow");
        ran += 1;
    }
    assert!(ran >= 30, "enough seeds exercised ({ran})");
}

#[test]
fn rendered_placements_reparse_when_free_of_ops() {
    // Programs with no distributed accesses render to themselves.
    for seed in 0..20u64 {
        let program = random_program(seed, &GenConfig::default());
        let analysis = analyze(&program, &CommConfig::distributed(&["never"])).unwrap();
        let plan = generate(analysis).unwrap();
        let listing = render(&program, &plan);
        let reparsed = give_n_take::ir::parse(&listing).unwrap();
        assert_eq!(
            give_n_take::ir::pretty(&reparsed),
            give_n_take::ir::pretty(&program)
        );
    }
}

/// The lint driver reads `CommPlan::read` and `CommPlan::write` instead of
/// reversing the graph and solving again, and skips the comparisons of
/// the solver's placement with itself. This pins what that relies on:
/// the plan's READ solution is a fresh shifted solve of the analysis's
/// READ problem, the optimality lint (O2/O3) and the GNT03x audits are
/// silent on it, and the plan's WRITE solution, as solved, satisfies the
/// independent verifiers against the coupled WRITE problem.
#[test]
fn plan_solutions_are_what_the_lint_driver_reads() {
    let config = GenConfig::default();
    let opts = SolverOptions::default();
    let mut ran = 0;
    for seed in 0..240u64 {
        let program = add_array_accesses(&random_program(seed, &config), seed);
        let Ok(analysis) = analyze(&program, &CommConfig::distributed(&["x"])) else {
            continue;
        };
        let plan = generate(analysis).expect("plan");
        let graph = &plan.analysis.graph;
        let read = &plan.analysis.read_problem;

        let mut fresh = solve(graph, read, &opts);
        shift_off_synthetic(graph, &mut fresh.eager);
        shift_off_synthetic(graph, &mut fresh.lazy);
        assert!(
            plan.read == fresh,
            "seed {seed}: plan.read is not a fresh solve"
        );

        let popts = PlacementLintOptions {
            check_optimality: true,
            ..Default::default()
        };
        let found = lint_placement(graph, read, &plan.read.eager, &plan.read.lazy, &popts);
        assert!(found.is_empty(), "seed {seed}: {found:?}");
        let audits = audit_placement(
            graph,
            read,
            &plan.read.eager,
            &plan.read.lazy,
            &AuditOptions::default(),
        );
        assert!(audits.is_empty(), "seed {seed}: {audits:?}");

        let write = &plan.write;
        let mut problem = plan.write_problem.clone();
        problem.resize_nodes(write.reversed.num_nodes());
        let violations: Vec<_> =
            check_sufficiency(&write.reversed, &problem, &write.solution.eager, true)
                .into_iter()
                .chain(check_balance(
                    &write.reversed,
                    &problem,
                    &write.solution.eager,
                    &write.solution.lazy,
                ))
                .collect();
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        ran += 1;
    }
    assert!(ran >= 200, "enough seeds exercised ({ran})");
}
