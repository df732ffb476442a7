//! Differential test for the O1 (GNT004) must-availability pass: the
//! change-driven worklist in `lint_placement` must flag exactly what the
//! original round-robin fixpoint flagged, in the same order, on random
//! programs (gotos included) with random non-solver placements, over
//! forward and reversed graphs.

use gnt_analyze::placement::{lint_placement, PlacementLintOptions};
use gnt_analyze::Diagnostic;
use gnt_cfg::{reversed_graph, CfgFlow, IntervalGraph, NodeId};
use gnt_core::{random_problem, random_program, FlavorSolution, GenConfig, PlacementProblem};
use gnt_dataflow::{BitSet, FlowGraph};
use std::collections::BTreeSet;

/// The round-robin O1 fixpoint as it stood before the worklist, kept
/// verbatim as the oracle: re-sweep every node in node-index order until
/// no edge state changes, then flag.
fn oracle_gnt004(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    eager: &FlavorSolution,
    lazy: &FlavorSolution,
) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut seen = BTreeSet::new();
    let mut push = |out: &mut Vec<Diagnostic>, d: Diagnostic, item: usize| {
        let key = (d.code, d.node.map(|n| n.index()), item);
        if seen.insert(key) {
            out.push(d.for_item(item));
        }
    };
    let flow = CfgFlow::from_interval(graph);
    let n = flow.num_nodes();
    let cap = problem.universe_size;
    let name = |item: usize| format!("item {item}");
    {
        use gnt_cfg::EdgeClass;
        let exits =
            |c: EdgeClass| matches!(c, EdgeClass::Forward | EdgeClass::Jump | EdgeClass::JumpIn);
        // Edge list mirroring `CfgFlow::from_interval` (no synthetic
        // edges, no virtual CYCLE edge into the root).
        let mut edges: Vec<(usize, usize, EdgeClass)> = Vec::new();
        let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for m in graph.nodes() {
            for (s, c) in graph.succ_edges(m) {
                if c == EdgeClass::Synthetic || (c == EdgeClass::Cycle && s == graph.root()) {
                    continue;
                }
                let id = edges.len();
                edges.push((m.index(), s.index(), c));
                out_edges[m.index()].push(id);
                in_edges[s.index()].push(id);
            }
        }
        // Availability right after node `i`'s statement when entered in
        // `state`: lazy RES_in (unless re-entered on the CYCLE edge),
        // then TAKE and STEAL both end it.
        let mid = |i: usize, state: &BitSet, on_cycle: bool| {
            let mut s = state.clone();
            if !on_cycle {
                s.union_with(&lazy.res_in[i]);
            }
            s.subtract_with(&problem.take_init[i]);
            s.subtract_with(&problem.steal_init[i]);
            s
        };
        // Meet over all entries of `i` of the post-statement state; the
        // root's boundary is "nothing available".
        let mid_meet = |i: usize, state: &[BitSet]| {
            if in_edges[i].is_empty() {
                return mid(i, &BitSet::new(cap), false);
            }
            let mut acc = BitSet::full(cap);
            for &e in &in_edges[i] {
                acc.intersect_with(&mid(i, &state[e], edges[e].2 == EdgeClass::Cycle));
            }
            acc
        };
        // Optimistic fixpoint: start full, intersect downwards.
        let mut state: Vec<BitSet> = vec![BitSet::full(cap); edges.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for (i, oes) in out_edges.iter().enumerate() {
                let m = mid_meet(i, &state);
                for &e in oes {
                    let mut s = m.clone();
                    if exits(edges[e].2) {
                        s.union_with(&lazy.res_out[i]);
                    }
                    if s != state[e] {
                        state[e] = s;
                        changed = true;
                    }
                }
            }
        }
        for i in 0..n {
            for item in eager.res_in[i].iter() {
                // RES_in fires on every non-CYCLE entry; redundant only
                // if the item is available on all of them.
                let firing: Vec<usize> = in_edges[i]
                    .iter()
                    .copied()
                    .filter(|&e| edges[e].2 != EdgeClass::Cycle)
                    .collect();
                if !firing.is_empty() && firing.iter().all(|&e| state[e].contains(item)) {
                    let d = Diagnostic::warning(
                        "GNT004",
                        format!(
                            "{} is re-produced here although it is still available",
                            name(item)
                        ),
                    )
                    .at(NodeId(i as u32));
                    push(&mut out, d, item);
                }
            }
            for item in eager.res_out[i].iter() {
                // RES_out fires toward FORWARD/JUMP successors, over the
                // post-statement state of whichever entry was taken.
                if out_edges[i].iter().any(|&e| exits(edges[e].2))
                    && mid_meet(i, &state).contains(item)
                {
                    let d = Diagnostic::warning(
                        "GNT004",
                        format!(
                            "{} is re-produced here although it is still available",
                            name(item)
                        ),
                    )
                    .at(NodeId(i as u32));
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

/// SplitMix64: a tiny deterministic generator for the placements.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `true` with probability `per_mille / 1000`.
    fn chance(&mut self, per_mille: u64) -> bool {
        self.next() % 1000 < per_mille
    }
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

/// A random eager/lazy placement, not the solver's: every node gets
/// `RES_in`/`RES_out` bits at random, loop headers three times as often
/// so header productions (and their CYCLE/FORWARD rules) are exercised.
fn random_placement(
    mix: &mut Mix,
    graph: &IntervalGraph,
    cap: usize,
) -> (FlavorSolution, FlavorSolution) {
    let n = graph.num_nodes();
    let mut eager = empty_flavor(n, cap);
    let mut lazy = empty_flavor(n, cap);
    for v in graph.nodes() {
        let odds = if graph.is_loop_header(v) { 450 } else { 150 };
        let i = v.index();
        for item in 0..cap {
            for flavor in [&mut eager, &mut lazy] {
                if mix.chance(odds) {
                    flavor.res_in[i].insert(item);
                }
                if mix.chance(odds) {
                    flavor.res_out[i].insert(item);
                }
            }
        }
    }
    (eager, lazy)
}

fn gnt004(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.into_iter().filter(|d| d.code == "GNT004").collect()
}

#[test]
fn worklist_matches_the_round_robin_oracle() {
    let opts = PlacementLintOptions {
        check_optimality: false,
        ..PlacementLintOptions::default()
    };
    let gotos = GenConfig {
        goto_prob: 0.8,
        ..GenConfig::default()
    };
    let mut cases = 0;
    let mut fired = 0;
    let mut header_bits = 0;
    for seed in 0..320u64 {
        let config = if seed % 2 == 0 {
            GenConfig::default()
        } else {
            gotos.clone()
        };
        let program = random_program(seed, &config);
        let forward =
            IntervalGraph::from_program(&program).expect("generated programs are reducible");
        let reversed = reversed_graph(&forward).expect("reversible");
        // Mostly one-word universes; every tenth case spans two words.
        let cap = if seed % 10 == 3 {
            70
        } else {
            1 + (seed % 4) as usize
        };
        for (dir, graph) in [("forward", &forward), ("reversed", &reversed)] {
            let mut mix = Mix(seed * 2 + u64::from(dir == "reversed"));
            let problem = random_problem(seed, graph, cap, 0.25);
            let (eager, lazy) = random_placement(&mut mix, graph, cap);
            header_bits += graph
                .nodes()
                .filter(|&v| graph.is_loop_header(v))
                .filter(|&v| {
                    !eager.res_in[v.index()].is_empty() || !eager.res_out[v.index()].is_empty()
                })
                .count();
            let want = oracle_gnt004(graph, &problem, &eager, &lazy);
            let got = gnt004(lint_placement(graph, &problem, &eager, &lazy, &opts));
            assert_eq!(got, want, "seed {seed}, {dir} graph, {cap} items");
            cases += 1;
            if !want.is_empty() {
                fired += 1;
            }
        }
    }
    assert_eq!(cases, 640);
    assert!(
        fired >= cases / 5,
        "GNT004 fired on only {fired} of {cases} cases: the comparison is close to vacuous"
    );
    assert!(
        header_bits >= cases,
        "too few header productions: {header_bits}"
    );
}
