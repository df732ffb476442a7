//! Reversed interval graphs for AFTER problems (§5.3 of the paper).
//!
//! An AFTER problem (e.g. placing global WRITEs after the definitions they
//! communicate) is a BEFORE problem on the reversed flow graph. The
//! reversed graph must satisfy the same structural requirements as the
//! forward one, which §5.3 observes is not automatic:
//!
//! * original ENTRY edges become the reversed loop's back edges (unified
//!   behind a fresh latch if needed), and the original CYCLE edge becomes
//!   its ENTRY edge — the *interval structure is kept*: each loop keeps
//!   its member set, and its unique entry in reversed flow is still the
//!   original header, because every MiniF loop exits through its header;
//! * original JUMP edges become jumps *into* loops, which would make the
//!   reversed graph irreducible. Such edges are kept as
//!   [`EdgeClass::JumpIn`](crate::EdgeClass::JumpIn) and recorded with
//!   every interval header they bypass
//!   ([`IntervalGraph::jump_in_sources`](crate::IntervalGraph::jump_in_sources)),
//!   so the solver can either extend availability (Eq. 11) along them or
//!   fall back to §5.3's conservative poisoning.
//!
//! Because the interval structure is kept, the reversed loop forest is
//! read off the forward graph's innermost-header links in O(N) instead of
//! being recomputed; only the loop ids are renumbered (by member count,
//! then header id), which fixes the order the reversed normalization
//! appends its latches in.

use crate::dom::{LoopForest, LoopId, LoopInfo};
use crate::graph::{Cfg, NodeId};
use crate::interval::{normalize, EdgeClass, GraphError, IntervalGraph};
use crate::scratch::{CfgScratch, CfgScratchPool};

/// Builds the reversed interval graph of `g` for solving AFTER problems.
///
/// Node ids of `g` are preserved (new synthetic nodes may be appended).
/// The reversed graph's ROOT is `g.exit()` and its exit is `g.root()`.
///
/// # Errors
///
/// Returns [`GraphError`] if the reversed structure cannot be scheduled
/// (not expected for graphs produced by
/// [`IntervalGraph::from_program`](crate::IntervalGraph::from_program)).
///
/// # Examples
///
/// ```
/// use gnt_cfg::{reversed_graph, IntervalGraph};
///
/// let p = gnt_ir::parse("do i = 1, N\n  x(a(i)) = ...\nenddo")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let r = reversed_graph(&g)?;
/// assert_eq!(r.root(), g.exit());
/// assert_eq!(r.exit(), g.root());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn reversed_graph(g: &IntervalGraph) -> Result<IntervalGraph, GraphError> {
    let mut scratch = CfgScratchPool::global().checkout();
    // 1. Reversed CFG over the same node ids: flip every real (CEFJ) edge,
    //    skipping synthetic edges and the virtual exit→ROOT cycle edge
    //    (both are artifacts re-derived below).
    let mut cfg = rebuild_nodes(g);
    for m in g.nodes() {
        for (s, c) in g.succ_edges(m) {
            let is_virtual_root_cycle = c == EdgeClass::Cycle && s == g.root();
            if c == EdgeClass::Synthetic || is_virtual_root_cycle {
                continue;
            }
            cfg.add_edge(s, m);
        }
    }

    // 2. Transfer the loop forest: identical headers and member sets.
    let mut forest = reversed_forest(g, &mut scratch);

    // 3. Normalize the reversed graph (critical edges, unique latch).
    normalize(&mut cfg, &mut forest);

    // 4. Assemble with jump-in edges tolerated; they poison the loops they
    //    enter (§5.3).
    IntervalGraph::assemble_with(&cfg, &forest, true, &mut scratch)
}

/// The loop forest of `g` carried over to its reversal in O(N): the same
/// headers, member sets and parents, read off `g`'s innermost-header
/// links. Loop ids are renumbered in ascending member count on `g`
/// (normalization nodes included), ties by header id: the order the
/// reversed normalization appends its latches in. Member counts come from
/// `g`'s nesting-tree ranges, which number every loop's members
/// contiguously.
fn reversed_forest(g: &IntervalGraph, scratch: &mut CfgScratch) -> LoopForest {
    let n = g.num_nodes();
    let CfgScratch {
        counts,
        headers,
        cursor,
        ..
    } = scratch;
    headers.clear();
    headers.extend(g.nodes().filter(|&h| g.is_loop_header(h)));
    // Members per preorder position of their innermost loop, as prefix
    // sums: a loop's member count is the sum over its range.
    let slots = headers.iter().map(|&h| g.loop_span(h).1).max().unwrap_or(0);
    counts.clear();
    counts.resize(slots as usize + 1, 0);
    for x in g.nodes() {
        if let Some(u) = g.innermost_header(x) {
            counts[g.loop_span(u).0 as usize + 1] += 1;
        }
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    headers.sort_by_key(|&h| {
        let (lo, hi) = g.loop_span(h);
        counts[hi as usize] - counts[lo as usize]
    });
    let mut headed = vec![None; n];
    for (i, &h) in headers.iter().enumerate() {
        headed[h.index()] = Some(LoopId(i as u32));
    }
    let loop_of = |x: NodeId| g.innermost_header(x).and_then(|u| headed[u.index()]);
    let loops = headers
        .iter()
        .map(|&h| LoopInfo {
            header: h,
            parent: loop_of(h),
            depth: 0,
        })
        .collect();
    LoopForest::from_tree(loops, g.nodes().map(loop_of).collect(), headed, cursor)
}

/// Creates a bare CFG with the same node set as `g`, entry at `g.exit()`
/// and exit at `g.root()`.
fn rebuild_nodes(g: &IntervalGraph) -> Cfg {
    Cfg::with_nodes(g.nodes().map(|n| g.kind(n)).collect(), g.exit(), g.root())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::EdgeMask;
    use gnt_ir::parse;

    fn fwd(src: &str) -> IntervalGraph {
        IntervalGraph::from_program(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn straight_line_reverses_cleanly() {
        let g = fwd("a = 1\nb = 2");
        let r = reversed_graph(&g).unwrap();
        assert_eq!(r.num_nodes(), g.num_nodes());
        assert_eq!(r.root(), g.exit());
        // Same number of real edges.
        let real = |x: &IntervalGraph| {
            x.nodes()
                .flat_map(|n| x.succ_edges(n).collect::<Vec<_>>())
                .filter(|(s, c)| {
                    !(matches!(c, EdgeClass::Synthetic)
                        || (*c == EdgeClass::Cycle && *s == x.root()))
                })
                .count()
        };
        assert_eq!(real(&r), real(&g));
    }

    #[test]
    fn loop_keeps_header_and_members_in_reverse() {
        let g = fwd("do i = 1, N\n  x(a(i)) = ...\nenddo");
        let header = g.nodes().find(|&n| g.is_loop_header(n)).unwrap();
        let r = reversed_graph(&g).unwrap();
        assert!(r.is_loop_header(header));
        // The original body node is still a member.
        for n in g.nodes() {
            if g.in_interval(header, n) {
                assert!(r.in_interval(header, n));
            }
        }
        // Reversed ENTRY edge: header → original latch side.
        assert_eq!(r.succs(header, EdgeMask::E).count(), 1);
        assert_eq!(r.preds(header, EdgeMask::C).count(), 1);
    }

    #[test]
    fn jump_out_becomes_jump_in_and_records_sources() {
        let g = fwd("do i = 1, N\n  if t(i) goto 7\n  a = 1\nenddo\n7 b = 2");
        let header = g.nodes().find(|&n| g.is_loop_header(n)).unwrap();
        let r = reversed_graph(&g).unwrap();
        let jump_ins = r
            .nodes()
            .flat_map(|n| r.succ_edges(n).collect::<Vec<_>>())
            .filter(|(_, c)| *c == EdgeClass::JumpIn)
            .count();
        assert_eq!(jump_ins, 1, "{}", r.dump());
        // The jump-in source is recorded with the bypassed header so the
        // solver can extend Eq. 11 (§5.3).
        assert_eq!(r.jump_in_sources(header).len(), 1);
        assert!(
            !r.is_poisoned(header),
            "poisoning is now the solver's fallback"
        );
    }

    #[test]
    fn no_jump_edges_in_reversed_graph() {
        let g = fwd("do i = 1, N\n  if t(i) goto 7\n  a = 1\nenddo\n7 b = 2");
        let r = reversed_graph(&g).unwrap();
        let jumps = r
            .nodes()
            .flat_map(|n| r.succ_edges(n).collect::<Vec<_>>())
            .filter(|(_, c)| *c == EdgeClass::Jump)
            .count();
        assert_eq!(jumps, 0, "{}", r.dump());
    }

    #[test]
    fn nested_loops_reverse_with_nesting_intact() {
        let g = fwd("do i = 1, N\n  do j = 1, M\n    x(j) = 1\n  enddo\nenddo");
        let r = reversed_graph(&g).unwrap();
        let headers: Vec<_> = g.nodes().filter(|&n| g.is_loop_header(n)).collect();
        for &h in &headers {
            assert!(r.is_loop_header(h));
            assert_eq!(r.level(h), g.level(h));
        }
    }

    #[test]
    fn reversed_preorder_respects_headers() {
        let g = fwd("do i = 1, N\n  do j = 1, M\n    x(j) = 1\n  enddo\nenddo\nc = 1");
        let r = reversed_graph(&g).unwrap();
        for n in r.nodes() {
            for h in r.enclosing_headers(n) {
                assert!(r.preorder_index(h) < r.preorder_index(n));
            }
        }
    }
}
