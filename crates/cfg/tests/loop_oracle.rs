//! The loop-nesting pass checked against a brute-force oracle, and a
//! nest far deeper than any recursion-based pass would survive.
//!
//! The oracle shares no code with the library's pass: dominance is
//! "every path from the entry passes `d`" (a reachability search with
//! `d` removed), a back edge is an edge into a dominator of its source,
//! and a natural loop is everything that reaches one of its back-edge
//! tails backwards without passing the header.

use gnt_cfg::{
    reversed_graph, Cfg, Dominators, EdgeClass, IntervalGraph, LoopForest, NodeId, NodeKind,
    SynthKind,
};
use gnt_core::{random_program, GenConfig};

/// A plain adjacency-list digraph with an entry, for the oracle.
struct Digraph {
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
    entry: usize,
}

impl Digraph {
    fn new(n: usize, entry: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Digraph {
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (m, s) in edges {
            succs[m].push(s);
            preds[s].push(m);
        }
        Digraph {
            succs,
            preds,
            entry,
        }
    }

    /// Nodes reachable from the entry without stepping on `removed`.
    fn reach_avoiding(&self, removed: Option<usize>) -> Vec<bool> {
        let mut seen = vec![false; self.succs.len()];
        if removed == Some(self.entry) {
            return seen;
        }
        let mut stack = vec![self.entry];
        seen[self.entry] = true;
        while let Some(x) = stack.pop() {
            for &s in &self.succs[x] {
                if !seen[s] && Some(s) != removed {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// `members[h]`: the natural-loop body of header `h` (header
    /// excluded), merged over all of `h`'s back edges; `None` for nodes
    /// heading no loop.
    fn natural_loops(&self) -> Vec<Option<Vec<bool>>> {
        let n = self.succs.len();
        let reachable = self.reach_avoiding(None);
        let mut loops: Vec<Option<Vec<bool>>> = vec![None; n];
        for h in 0..n {
            if !reachable[h] {
                continue;
            }
            // d dominates x iff x becomes unreachable once d is removed.
            let without_h = self.reach_avoiding(Some(h));
            for &tail in &self.preds[h] {
                let dominated = reachable[tail] && (tail == h || !without_h[tail]);
                if !dominated {
                    continue;
                }
                let body = loops[h].get_or_insert_with(|| vec![false; n]);
                let mut stack = vec![tail];
                while let Some(x) = stack.pop() {
                    if x == h || body[x] || !reachable[x] {
                        continue;
                    }
                    body[x] = true;
                    stack.extend(self.preds[x].iter().copied());
                }
            }
        }
        loops
    }
}

fn digraph_of_cfg(cfg: &Cfg) -> Digraph {
    Digraph::new(
        cfg.num_nodes(),
        cfg.entry().index(),
        cfg.edges().map(|(m, s)| (m.index(), s.index())),
    )
}

/// The real control flow of an interval graph: every classified edge but
/// the SYNTHETIC ones and the virtual exit → ROOT cycle edge.
fn digraph_of_graph(g: &IntervalGraph) -> Digraph {
    let edges: Vec<(usize, usize)> = g
        .nodes()
        .flat_map(|m| {
            g.succ_edges(m)
                .filter(|&(s, c)| {
                    c != EdgeClass::Synthetic && !(c == EdgeClass::Cycle && s == g.root())
                })
                .map(move |(s, _)| (m.index(), s.index()))
        })
        .collect();
    Digraph::new(g.num_nodes(), g.root().index(), edges)
}

fn member(loops: &[Option<Vec<bool>>], h: usize, n: usize) -> bool {
    loops[h].as_ref().is_some_and(|body| body[n])
}

/// The §3.3 class of a real edge `m → s`, from the oracle's loops.
fn oracle_class(loops: &[Option<Vec<bool>>], m: usize, s: usize) -> EdgeClass {
    if member(loops, s, m) {
        return EdgeClass::Cycle;
    }
    if member(loops, m, s) {
        return EdgeClass::Entry;
    }
    let headers = 0..loops.len();
    let leaves = headers
        .clone()
        .any(|h| member(loops, h, m) && !member(loops, h, s));
    let enters = headers
        .into_iter()
        .any(|h| h != m && member(loops, h, s) && !member(loops, h, m));
    match (leaves, enters) {
        (false, false) => EdgeClass::Forward,
        (true, false) => EdgeClass::Jump,
        (_, true) => EdgeClass::JumpIn,
    }
}

fn check_forest(seed: u64, cfg: &Cfg) {
    let oracle = digraph_of_cfg(cfg).natural_loops();
    let dom = Dominators::compute(cfg);
    let forest = LoopForest::compute(cfg, &dom).expect("reducible");
    for h in cfg.nodes() {
        let l = forest.loop_headed_by(h);
        assert_eq!(
            l.is_some(),
            oracle[h.index()].is_some(),
            "seed {seed}: header {h}"
        );
        let Some(l) = l else { continue };
        for n in cfg.nodes() {
            assert_eq!(
                forest.is_member(l, n),
                member(&oracle, h.index(), n.index()),
                "seed {seed}: is_member({h}, {n})"
            );
        }
    }
}

fn check_graph(seed: u64, g: &IntervalGraph) {
    let loops = digraph_of_graph(g).natural_loops();
    for n in g.nodes() {
        let depth = (0..loops.len())
            .filter(|&h| member(&loops, h, n.index()))
            .count();
        let level = if n == g.root() { 0 } else { 1 + depth };
        assert_eq!(g.level(n), level, "seed {seed}: level({n})\n{}", g.dump());
        for h in g.nodes().filter(|&h| h != g.root()) {
            assert_eq!(
                g.in_interval(h, n),
                member(&loops, h.index(), n.index()),
                "seed {seed}: in_interval({h}, {n})\n{}",
                g.dump()
            );
        }
        for (s, c) in g.succ_edges(n) {
            if c == EdgeClass::Synthetic {
                // A header → sink of a JUMP edge leaving the header's loop.
                let from_jump = g.pred_edges(s).any(|(p, pc)| {
                    pc == EdgeClass::Jump
                        && member(&loops, n.index(), p.index())
                        && !member(&loops, n.index(), s.index())
                });
                assert!(from_jump, "seed {seed}: stray synthetic {n} → {s}");
                continue;
            }
            if c == EdgeClass::Cycle && s == g.root() {
                continue;
            }
            assert_eq!(
                c,
                oracle_class(&loops, n.index(), s.index()),
                "seed {seed}: class of {n} → {s}\n{}",
                g.dump()
            );
            if c == EdgeClass::Jump {
                // One SYNTHETIC edge from every header whose loop it leaves.
                for h in g.nodes() {
                    let left = member(&loops, h.index(), n.index())
                        && !member(&loops, h.index(), s.index());
                    let synthetic = g.succ_edges(h).any(|e| e == (s, EdgeClass::Synthetic));
                    assert_eq!(synthetic, left, "seed {seed}: synthetic {h} → {s}");
                }
            }
        }
    }
}

#[test]
fn loop_nesting_matches_the_brute_force_oracle() {
    let config = GenConfig::default();
    for seed in 0..300 {
        let program = random_program(seed, &config);
        let mut cfg = gnt_cfg::lower(&program).expect("lowers").cfg;
        cfg.prune_unreachable();
        check_forest(seed, &cfg);
        let g = IntervalGraph::from_cfg(cfg).expect("reducible");
        check_graph(seed, &g);
        // The reversal keeps every header and member set.
        let r = reversed_graph(&g).expect("reversible");
        for h in g.nodes().filter(|&h| g.is_loop_header(h)) {
            for n in g.nodes() {
                assert_eq!(r.in_interval(h, n), g.in_interval(h, n), "seed {seed}");
            }
        }
    }
}

/// A `do` nest of `depth` loops as the lowering shapes it: header `h_k`
/// → statement `s_k` → `h_{k+1}`, the inner header exiting back to the
/// outer one, the innermost statement closing the innermost loop.
fn do_nest_cfg(depth: usize) -> Cfg {
    let mut cfg = Cfg::new();
    let stmt = NodeKind::Synthetic(SynthKind::EdgeSplit);
    let mut headers: Vec<NodeId> = Vec::with_capacity(depth);
    let mut prev = cfg.entry();
    for _ in 0..depth {
        let h = cfg.add_node(stmt);
        let s = cfg.add_node(stmt);
        cfg.add_edge(prev, h);
        cfg.add_edge(h, s);
        headers.push(h);
        prev = s;
    }
    cfg.add_edge(prev, headers[depth - 1]);
    for k in (1..depth).rev() {
        cfg.add_edge(headers[k], headers[k - 1]);
    }
    cfg.add_edge(headers[0], cfg.exit());
    cfg
}

#[test]
fn a_five_thousand_deep_nest_builds_and_reverses() {
    const DEPTH: usize = 5_000;
    let g = IntervalGraph::from_cfg(do_nest_cfg(DEPTH)).expect("reducible");
    let mut seen = vec![false; DEPTH + 2];
    for n in g.nodes().filter(|&n| n != g.root()) {
        seen[g.level(n)] = true;
    }
    assert_eq!(seen.iter().position(|&s| s), Some(1));
    assert!(seen[1..].iter().all(|&s| s), "levels run 1..=5001");
    let r = reversed_graph(&g).expect("reversible");
    // ROOT and exit trade places; every other node keeps its level.
    for n in g.nodes().filter(|&n| n != g.root() && n != g.exit()) {
        assert_eq!(r.level(n), g.level(n), "level of {n}");
    }
    let jump_ins = r
        .nodes()
        .flat_map(|n| r.succ_edges(n))
        .filter(|&(_, c)| c == EdgeClass::JumpIn)
        .count();
    assert_eq!(jump_ins, 0);
}
