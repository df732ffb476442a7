//! Identity golden for the graph layer: a fingerprint of every forward
//! interval graph and its reversal over a fixed set of programs.
//!
//! Each fingerprint is an FNV-1a hash of the graph's `dump()` (preorder,
//! levels, kinds, classified successor edges) plus, per node, HEADER,
//! LASTCHILD, CHILDREN, the enclosing-header chain, the JUMP-IN sources,
//! the preorder index and the classified predecessor edges. A rewrite of
//! the loop-nesting or interval code must leave every line of
//! `golden/graph_identity.txt` unchanged: same node ids, same edge order,
//! same classes, same traversal orders.

use gnt_cfg::{reversed_graph, IntervalGraph};
use gnt_core::{random_program, sized_program, GenConfig};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/graph_identity.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The structural fingerprint of one graph, as a hex string.
fn fingerprint(g: &IntervalGraph) -> String {
    let mut text = g.dump();
    for n in g.nodes() {
        let enclosing: Vec<String> = g.enclosing_headers(n).map(|h| h.to_string()).collect();
        let preds: Vec<_> = g.pred_edges(n).collect();
        let _ = writeln!(
            text,
            "{n} h={:?} lc={:?} ch={:?} enc={:?} ji={:?} pre={} poison={} preds={:?}",
            g.header_of(n),
            g.last_child(n),
            g.children(n),
            enclosing,
            g.jump_in_sources(n),
            g.preorder_index(n),
            g.is_poisoned(n),
            preds,
        );
    }
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// One table line: forward and reversed fingerprints (or their errors).
fn row(name: &str, program: &gnt_ir::Program) -> String {
    let (fwd, rev) = match IntervalGraph::from_program(program) {
        Ok(g) => {
            let rev = match reversed_graph(&g) {
                Ok(r) => fingerprint(&r),
                Err(e) => format!("err({e})"),
            };
            (fingerprint(&g), rev)
        }
        Err(e) => (format!("err({e})"), "-".to_string()),
    };
    format!("{name} {fwd} {rev}")
}

fn do_nest(depth: usize) -> String {
    let mut text = String::new();
    for d in 1..=depth {
        let _ = writeln!(text, "do i{d} = 1, L\ny(i{d}) = ...");
    }
    let _ = writeln!(text, "... = x(a(i{depth}+1))");
    for _ in 0..depth {
        text.push_str("enddo\n");
    }
    text
}

fn table() -> Vec<String> {
    let mut rows = Vec::new();
    let figures = [
        ("fig1", include_str!("../../../examples/fig1.minif")),
        ("fig3", include_str!("../../../examples/fig3.minif")),
        ("fig11", include_str!("../../../examples/fig11.minif")),
    ];
    for (name, src) in figures {
        rows.push(row(name, &gnt_ir::parse(src).expect("figure parses")));
    }
    let config = GenConfig::default();
    for seed in 0..500 {
        rows.push(row(
            &format!("random/{seed}"),
            &random_program(seed, &config),
        ));
    }
    for stmts in [200, 800, 3200] {
        rows.push(row(&format!("sized/{stmts}"), &sized_program(stmts)));
    }
    for depth in 1..=64 {
        let program = gnt_ir::parse(&do_nest(depth)).expect("nest parses");
        rows.push(row(&format!("nest/{depth}"), &program));
    }
    rows
}

#[test]
fn graphs_and_reversals_match_the_identity_table() {
    let actual = table();
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let mismatches: Vec<String> = actual
        .iter()
        .zip(
            expected
                .iter()
                .copied()
                .chain(std::iter::repeat("<missing>")),
        )
        .filter(|(a, e)| a.as_str() != *e)
        .map(|(a, e)| format!("  expected {e}\n  actual   {a}"))
        .take(10)
        .collect();
    if !mismatches.is_empty() || actual.len() != expected.len() {
        eprintln!("--- actual table ---\n{}\n--- end ---", actual.join("\n"));
        panic!(
            "{} rows, {} expected; first mismatches:\n{}",
            actual.len(),
            expected.len(),
            mismatches.join("\n")
        );
    }
}
