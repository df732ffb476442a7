//! Golden test reproducing the paper's §4 example values (EXP-S4).
//!
//! §4 of the paper walks the READ problem for the Figure 11 program
//! through every dataflow variable of Figure 13, listing the exact
//! memberships of the three universe items at each node of the Figure 12
//! interval flow graph:
//!
//! * `x_k` — the portion of `x` referenced by `x(k+10)`,
//! * `y_a` — the portion of `y` defined by `y(a(i))`,
//! * `y_b` — the portion of `y` referenced by `y(b(k))`.
//!
//! Our graph construction yields the same structure with slightly
//! different node numbering (the paper's node 11, a plain join, does not
//! arise in our normalization), so the assertions below address nodes by
//! *role*. Every membership the paper lists is asserted, along with the
//! non-memberships that pin down the final placement; `RES_in`/`RES_out`
//! are asserted exactly for every node.

use gnt_cfg::{EdgeClass, EdgeMask, IntervalGraph, NodeId, NodeKind};
use gnt_core::{check_balance, check_sufficiency, solve, PlacementProblem, SolverOptions};
use gnt_ir::parse;

const X_K: usize = 0;
const Y_A: usize = 1;
const Y_B: usize = 2;

/// The Figure 11 program.
const FIG11: &str = "do i = 1, N\n\
                     \u{20} y(a(i)) = ...\n\
                     \u{20} if test(i) goto 77\n\
                     enddo\n\
                     do j = 1, N\n\
                     \u{20} ... = ...\n\
                     enddo\n\
                     77 do k = 1, N\n\
                     \u{20} ... = x(k+10) + y(b(k))\n\
                     enddo";

/// Named nodes of our Figure 12 graph.
struct Fig12 {
    g: IntervalGraph,
    root: NodeId,  // paper node 1
    ihdr: NodeId,  // paper node 2
    ya: NodeId,    // paper node 3: y(a(i)) = ...
    ifg: NodeId,   // paper node 4: if test(i) goto 77
    latch: NodeId, // paper node 5 (synthetic)
    prej: NodeId,  // paper node 6 (synthetic)
    jhdr: NodeId,  // paper node 7
    jbody: NodeId, // paper node 8
    prek: NodeId,  // paper node 9 (synthetic)
    pad: NodeId,   // paper node 10 (synthetic landing pad)
    khdr: NodeId,  // paper node 12
    kbody: NodeId, // paper node 13
    exit: NodeId,  // paper node 14
}

fn build() -> Fig12 {
    let p = parse(FIG11).unwrap();
    let g = IntervalGraph::from_program(&p).unwrap();

    let stmt_text = |n: NodeId| -> String {
        match g.kind(n) {
            NodeKind::Stmt(s) | NodeKind::LoopHeader(s) | NodeKind::Branch(s) => {
                match &p.stmt(s).kind {
                    gnt_ir::StmtKind::Assign { lhs, rhs } => format!("{lhs} = {rhs}"),
                    gnt_ir::StmtKind::Do { var, .. } => format!("do {var}"),
                    gnt_ir::StmtKind::IfGoto { cond, .. } => format!("ifgoto {cond}"),
                    other => format!("{other:?}"),
                }
            }
            other => format!("{other:?}"),
        }
    };
    let find = |needle: &str| -> NodeId {
        g.nodes()
            .find(|&n| stmt_text(n).contains(needle))
            .unwrap_or_else(|| panic!("missing node {needle}\n{}", g.dump()))
    };
    let ihdr = find("do i");
    let jhdr = find("do j");
    let khdr = find("do k");
    let ya = find("y(a(i))");
    let ifg = find("ifgoto");
    let jbody = g
        .nodes()
        .find(|&n| g.enclosing_headers(n).eq([jhdr]))
        .unwrap();
    let kbody = g
        .nodes()
        .find(|&n| g.enclosing_headers(n).eq([khdr]))
        .unwrap();
    let latch = g
        .nodes()
        .find(|&n| g.kind(n).is_synthetic() && g.enclosing_headers(n).eq([ihdr]))
        .expect("i-loop latch");
    let pad = g
        .nodes()
        .find(|&n| g.kind(n).is_synthetic() && g.pred_edges(n).any(|(_, c)| c == EdgeClass::Jump))
        .expect("landing pad");
    let prej = g
        .nodes()
        .find(|&n| g.kind(n).is_synthetic() && g.succs(n, EdgeMask::F).any(|s| s == jhdr))
        .expect("pre-j split node");
    let prek = g
        .nodes()
        .find(|&n| {
            g.kind(n).is_synthetic()
                && g.succs(n, EdgeMask::F).any(|s| s == khdr)
                && g.preds(n, EdgeMask::F).any(|x| x == jhdr)
        })
        .expect("pre-k split node");
    Fig12 {
        root: g.root(),
        exit: g.exit(),
        g,
        ihdr,
        ya,
        ifg,
        latch,
        prej,
        jhdr,
        jbody,
        prek,
        pad,
        khdr,
        kbody,
    }
}

fn problem(f: &Fig12) -> PlacementProblem {
    let mut prob = PlacementProblem::new(f.g.num_nodes(), 3);
    // y(a(i)) = … defines a portion of y: it produces y_a for free and
    // voids y_b (the write may overlap y(b(1:N))).
    prob.give(f.ya, Y_A);
    prob.steal(f.ya, Y_B);
    // … = x(k+10) + y(b(k)) consumes x_k and y_b.
    prob.take(f.kbody, X_K);
    prob.take(f.kbody, Y_B);
    prob
}

#[test]
fn graph_structure_matches_figure_12() {
    let f = build();
    let g = &f.g;
    // The paper's structural claims: a single JUMP edge (4 → 10) with one
    // SYNTHETIC edge (2 → 10) since LEVEL(4) − LEVEL(10) = 1.
    assert_eq!(g.edge_class(f.ifg, f.pad), Some(EdgeClass::Jump));
    assert!(g
        .succ_edges(f.ihdr)
        .any(|(s, c)| s == f.pad && c == EdgeClass::Synthetic));
    assert_eq!(g.level(f.ifg), 2);
    assert_eq!(g.level(f.pad), 1);
    // T(2) = {3, 4, 5}: the i-loop members.
    for n in [f.ya, f.ifg, f.latch] {
        assert_eq!(g.enclosing_headers(n).collect::<Vec<_>>(), [f.ihdr]);
    }
    // Unique CYCLE edge per interval; LASTCHILD(2) is the latch.
    assert_eq!(g.last_child(f.ihdr), Some(f.latch));
    assert_eq!(g.last_child(f.jhdr), Some(f.jbody));
    assert_eq!(g.last_child(f.khdr), Some(f.kbody));
    // The jump sink has no other CEF predecessors.
    assert_eq!(g.preds(f.pad, EdgeMask::CEF).count(), 0);
    // Preorder starts at ROOT and respects headers-before-members.
    assert_eq!(g.preorder()[0], f.root);
    assert!(g.preorder_index(f.ihdr) < g.preorder_index(f.ya));
}

#[test]
fn consumption_variables_match_section_4() {
    let f = build();
    let sol = solve(&f.g, &problem(&f), &SolverOptions::default());
    let v = &sol.vars;
    let has = |set: &[gnt_dataflow::BitSet], n: NodeId, item: usize| set[n.index()].contains(item);

    // STEAL: y_b ∈ STEAL({2, 3}).
    for n in [f.ihdr, f.ya] {
        assert!(has(&v.steal, n, Y_B), "y_b ∈ STEAL({n})");
    }
    assert!(!has(&v.steal, f.jhdr, Y_B));
    assert!(!has(&v.steal, f.root, Y_B));

    // BLOCK: y_a, y_b ∈ BLOCK({2, 3}).
    for n in [f.ihdr, f.ya] {
        assert!(has(&v.block, n, Y_A), "y_a ∈ BLOCK({n})");
        assert!(has(&v.block, n, Y_B), "y_b ∈ BLOCK({n})");
    }
    assert!(!has(&v.block, f.prej, Y_A));

    // TAKEN_out: x_k, y_b ∈ TAKEN_out({2, 6, 7, 9, 10}); x_k also at ROOT.
    for n in [f.ihdr, f.prej, f.jhdr, f.prek, f.pad] {
        assert!(has(&v.taken_out, n, X_K), "x_k ∈ TAKEN_out({n})");
        assert!(has(&v.taken_out, n, Y_B), "y_b ∈ TAKEN_out({n})");
    }
    assert!(has(&v.taken_out, f.root, X_K), "x_k ∈ TAKEN_out(ROOT)");
    assert!(!has(&v.taken_out, f.root, Y_B), "y_b stolen in the i-loop");
    assert!(
        !has(&v.taken_out, f.ya, X_K),
        "latch kills TAKEN inside loop"
    );

    // TAKE: x_k, y_b ∈ TAKE({12, 13}) — k-loop header and body only.
    for n in [f.khdr, f.kbody] {
        assert!(has(&v.take, n, X_K), "x_k ∈ TAKE({n})");
        assert!(has(&v.take, n, Y_B), "y_b ∈ TAKE({n})");
    }
    for n in [
        f.root, f.ihdr, f.ya, f.ifg, f.latch, f.prej, f.jhdr, f.jbody, f.prek, f.pad, f.exit,
    ] {
        assert!(!has(&v.take, n, X_K), "x_k ∉ TAKE({n})");
        assert!(!has(&v.take, n, Y_B), "y_b ∉ TAKE({n})");
    }

    // TAKEN_in: x_k, y_b ∈ TAKEN_in({6, 7, 9, 10, 12, 13}); x_k ∈ {1, 2}.
    for n in [f.prej, f.jhdr, f.prek, f.pad, f.khdr, f.kbody] {
        assert!(has(&v.taken_in, n, X_K), "x_k ∈ TAKEN_in({n})");
        assert!(has(&v.taken_in, n, Y_B), "y_b ∈ TAKEN_in({n})");
    }
    assert!(has(&v.taken_in, f.root, X_K));
    assert!(has(&v.taken_in, f.ihdr, X_K));
    assert!(!has(&v.taken_in, f.ihdr, Y_B), "y_b blocked at the i-loop");

    // BLOCK_loc: y_a, y_b ∈ BLOCK_loc({1, 2, 3}).
    for n in [f.root, f.ihdr, f.ya] {
        assert!(has(&v.block_loc, n, Y_A), "y_a ∈ BLOCK_loc({n})");
        assert!(has(&v.block_loc, n, Y_B), "y_b ∈ BLOCK_loc({n})");
    }

    // TAKE_loc: x_k, y_b ∈ TAKE_loc({6, 7, 9, 10, 12, 13}); x_k ∈ {1, 2}.
    for n in [f.prej, f.jhdr, f.prek, f.pad, f.khdr, f.kbody] {
        assert!(has(&v.take_loc, n, X_K), "x_k ∈ TAKE_loc({n})");
        assert!(has(&v.take_loc, n, Y_B), "y_b ∈ TAKE_loc({n})");
    }
    assert!(has(&v.take_loc, f.root, X_K));
    assert!(has(&v.take_loc, f.ihdr, X_K));

    // GIVE_loc: y_a ∈ GIVE_loc({2..7, 9, 10}); x_k, y_b ∈ GIVE_loc({12..14}).
    for n in [f.ihdr, f.ya, f.ifg, f.latch, f.prej, f.jhdr, f.prek, f.pad] {
        assert!(has(&v.give_loc, n, Y_A), "y_a ∈ GIVE_loc({n})");
    }
    assert!(!has(&v.give_loc, f.jbody, Y_A), "GIVE_loc is per interval");
    for n in [f.khdr, f.kbody, f.exit] {
        assert!(has(&v.give_loc, n, X_K), "x_k ∈ GIVE_loc({n})");
        assert!(has(&v.give_loc, n, Y_B), "y_b ∈ GIVE_loc({n})");
    }

    // STEAL_loc: y_b ∈ STEAL_loc({2..7, 9, 10, 12}), not in the j-loop
    // body or the k-loop body.
    for n in [
        f.ihdr, f.ya, f.ifg, f.latch, f.prej, f.jhdr, f.prek, f.pad, f.khdr,
    ] {
        assert!(has(&v.steal_loc, n, Y_B), "y_b ∈ STEAL_loc({n})");
    }
    assert!(!has(&v.steal_loc, f.jbody, Y_B));
    assert!(!has(&v.steal_loc, f.kbody, Y_B));
    // ERRATUM: the paper also lists y_b ∈ STEAL_loc(14) (the exit), but
    // that is unreachable by its own Equation 10: the exit's only FJ
    // predecessor is node 12, and the paper itself lists
    // y_b ∈ GIVE_loc(12), so STEAL_loc(12) − GIVE_loc(12) cannot
    // contribute y_b. We follow Equation 10 literally.
    assert!(!has(&v.steal_loc, f.exit, Y_B));
}

#[test]
fn placement_variables_match_section_4() {
    let f = build();
    let sol = solve(&f.g, &problem(&f), &SolverOptions::default());
    let has = |set: &[gnt_dataflow::BitSet], n: NodeId, item: usize| set[n.index()].contains(item);

    // --- EAGER ---
    let e = &sol.eager;
    // GIVEN_in^eager: x_k everywhere but ROOT; y_a from node 4 on;
    // y_b at {7, 8, 9, 12, 13, 14} but *not* at the landing pad 10.
    for n in [
        f.ihdr, f.ya, f.ifg, f.latch, f.prej, f.jhdr, f.jbody, f.prek, f.pad, f.khdr, f.kbody,
        f.exit,
    ] {
        assert!(has(&e.given_in, n, X_K), "x_k ∈ GIVEN_in^eager({n})");
    }
    for n in [
        f.ifg, f.latch, f.prej, f.jhdr, f.jbody, f.prek, f.pad, f.khdr, f.kbody, f.exit,
    ] {
        assert!(has(&e.given_in, n, Y_A), "y_a ∈ GIVEN_in^eager({n})");
    }
    assert!(!has(&e.given_in, f.ya, Y_A));
    for n in [f.jhdr, f.jbody, f.prek, f.khdr, f.kbody, f.exit] {
        assert!(has(&e.given_in, n, Y_B), "y_b ∈ GIVEN_in^eager({n})");
    }
    assert!(
        !has(&e.given_in, f.pad, Y_B),
        "jump path misses the y_b send"
    );

    // GIVEN^eager: x_k everywhere; y_b from node 6 on.
    assert!(has(&e.given, f.root, X_K));
    for n in [
        f.prej, f.jhdr, f.jbody, f.prek, f.pad, f.khdr, f.kbody, f.exit,
    ] {
        assert!(has(&e.given, n, Y_B), "y_b ∈ GIVEN^eager({n})");
    }
    // GIVEN_out^eager: y_a from node 2 on (the loop produces it).
    assert!(has(&e.given_out, f.ihdr, Y_A));
    assert!(has(&e.given_out, f.root, X_K));

    // --- LAZY ---
    let l = &sol.lazy;
    // GIVEN_in^lazy: x_k, y_b only at {13, 14}; y_a from 4 on.
    for n in [f.kbody, f.exit] {
        assert!(has(&l.given_in, n, X_K), "x_k ∈ GIVEN_in^lazy({n})");
        assert!(has(&l.given_in, n, Y_B), "y_b ∈ GIVEN_in^lazy({n})");
    }
    for n in [
        f.root, f.ihdr, f.ya, f.ifg, f.latch, f.prej, f.jhdr, f.jbody, f.prek, f.pad, f.khdr,
    ] {
        assert!(!has(&l.given_in, n, X_K), "x_k ∉ GIVEN_in^lazy({n})");
    }
    // GIVEN^lazy: x_k, y_b at {12, 13, 14}.
    for n in [f.khdr, f.kbody, f.exit] {
        assert!(has(&l.given, n, X_K));
        assert!(has(&l.given, n, Y_B));
    }
    assert!(!has(&l.given, f.prek, X_K));
    for n in [f.ifg, f.latch, f.prej, f.jhdr, f.khdr, f.exit] {
        assert!(has(&l.given, n, Y_A), "y_a ∈ GIVEN^lazy({n})");
    }
}

#[test]
fn result_variables_match_section_4_exactly() {
    let f = build();
    let prob = problem(&f);
    let sol = solve(&f.g, &prob, &SolverOptions::default());

    // RES_in^eager: x_k at ROOT (the hoisted READ_Send{x(11:N+10)});
    // y_b at nodes 6 and 10 (READ_Send{y(b(1:N))} on both paths).
    for n in f.g.nodes() {
        let expected: &[usize] = if n == f.root {
            &[X_K]
        } else if n == f.prej || n == f.pad {
            &[Y_B]
        } else {
            &[]
        };
        let got: Vec<usize> = sol.eager.res_in[n.index()].iter().collect();
        assert_eq!(got, expected, "RES_in^eager({n})\n{}", f.g.dump());
        assert!(
            sol.eager.res_out[n.index()].is_empty(),
            "no RES_out^eager({n})"
        );
    }

    // RES_in^lazy: x_k and y_b at node 12 (READ_Recv before the k loop).
    for n in f.g.nodes() {
        let expected: &[usize] = if n == f.khdr { &[X_K, Y_B] } else { &[] };
        let got: Vec<usize> = sol.lazy.res_in[n.index()].iter().collect();
        assert_eq!(got, expected, "RES_in^lazy({n})\n{}", f.g.dump());
        assert!(
            sol.lazy.res_out[n.index()].is_empty(),
            "no RES_out^lazy({n})"
        );
    }

    // And the full solution satisfies the correctness criteria.
    assert!(check_sufficiency(&f.g, &prob, &sol.eager, true).is_empty());
    assert!(check_sufficiency(&f.g, &prob, &sol.lazy, true).is_empty());
    assert!(check_balance(&f.g, &prob, &sol.eager, &sol.lazy).is_empty());
}
