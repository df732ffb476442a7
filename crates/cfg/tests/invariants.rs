//! Property tests: the §3.3/§3.4 structural invariants of the interval
//! flow graph hold for every random structured program, in both
//! orientations.

use gnt_cfg::{reversed_graph, EdgeClass, EdgeMask, IntervalGraph};
use gnt_core::{random_program, GenConfig};
use proptest::prelude::*;

fn check_invariants(g: &IntervalGraph, reversed: bool) -> Result<(), String> {
    for n in g.nodes() {
        // Unique CYCLE edge per header, and LASTCHILD consistency.
        let cycles: Vec<_> = g.preds(n, EdgeMask::C).collect();
        if cycles.len() > 1 {
            return Err(format!("{n} has {} cycle edges", cycles.len()));
        }
        if let Some(lc) = g.last_child(n) {
            if cycles != vec![lc] {
                return Err(format!("LASTCHILD({n}) mismatch"));
            }
            // The cycle source has no EFJ successors.
            if g.succs(lc, EdgeMask::EFJ).count() != 0 {
                return Err(format!("cycle source {lc} has EFJ succs"));
            }
        }
        // No critical edges among real edges.
        let outs: Vec<_> = g.succs(n, EdgeMask::CEFJ).collect();
        if outs.len() > 1 {
            for &s in &outs {
                if g.preds(s, EdgeMask::CEFJ).count() > 1 {
                    return Err(format!("critical edge {n} → {s}"));
                }
            }
        }
        for (s, c) in g.succ_edges(n) {
            match c {
                EdgeClass::Jump
                    // Jump sinks have only the jump predecessor (CEF-wise).
                    if g.preds(s, EdgeMask::CEF).count() != 0 => {
                        return Err(format!("jump sink {s} has CEF preds"));
                    }
                EdgeClass::JumpIn if !reversed => {
                    return Err(format!("JumpIn on forward graph at {n}"));
                }
                _ => {}
            }
            // Preorder: F/J/S edges go forward, headers precede members.
            if matches!(
                c,
                EdgeClass::Forward | EdgeClass::Jump | EdgeClass::Synthetic
            ) && g.preorder_index(n) >= g.preorder_index(s)
            {
                return Err(format!("preorder violated on {n} → {s}"));
            }
        }
        for h in g.enclosing_headers(n) {
            if g.preorder_index(h) >= g.preorder_index(n) {
                return Err(format!("header {h} not before member {n}"));
            }
            if !g.is_loop_header(h) {
                return Err(format!("enclosing {h} is not a header"));
            }
        }
        // LEVEL = 1 + enclosing count (0 for ROOT).
        let expect = if n == g.root() {
            0
        } else {
            1 + g.enclosing_headers(n).count()
        };
        if g.level(n) != expect {
            return Err(format!("level({n}) = {} ≠ {expect}", g.level(n)));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn forward_graphs_satisfy_the_structural_invariants(seed in 0u64..20_000) {
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        check_invariants(&graph, false).map_err(|e| {
            TestCaseError::fail(format!("{e}\n{}", graph.dump()))
        })?;
    }

    #[test]
    fn reversed_graphs_satisfy_the_structural_invariants(seed in 0u64..20_000) {
        let program = random_program(seed, &GenConfig::default());
        let graph = IntervalGraph::from_program(&program).unwrap();
        let rev = reversed_graph(&graph).unwrap();
        check_invariants(&rev, true).map_err(|e| {
            TestCaseError::fail(format!("{e}\n{}", rev.dump()))
        })?;
    }
}
