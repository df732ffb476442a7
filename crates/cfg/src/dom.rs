//! Dominators, reducibility, and the loop forest.
//!
//! GIVE-N-TAKE requires a reducible flow graph (§3.3): every loop must be
//! entered through a unique header. We compute immediate dominators with
//! the Cooper–Harvey–Kennedy algorithm, detect back edges, test
//! reducibility, and derive the Tarjan-style loop forest (a node belongs to
//! the interval `T(h)` of every enclosing header `h`, and a header is *not*
//! a member of its own interval). Irreducible graphs can be repaired by
//! node splitting ([`make_reducible`]), as the paper suggests via [CM69].
//!
//! The loop forest is built in one pass, O(N + E) up to the inverse
//! Ackermann factor of its union-find: headers are visited innermost
//! first, each natural loop is walked backwards from its back-edge tails,
//! and a finished loop collapses into its header so enclosing walks step
//! over it in one move. The forest stores, per node, only its innermost
//! loop; per loop, its parent, depth and the `[lo, hi)` range of its
//! subtree in a preorder of the nesting tree. Membership, and with it
//! every interval-graph query built on it, is then a range check.
//! Nothing recurses, so nesting depth costs no stack.

use crate::graph::{Cfg, NodeId};
use crate::scratch::{CfgScratch, CfgScratchPool};
use std::fmt;

/// Immediate-dominator tree for a [`Cfg`].
#[derive(Clone, Debug)]
pub struct Dominators {
    idom: Vec<Option<NodeId>>,
    rpo_index: Vec<usize>,
    /// Nodes in reverse postorder.
    pub rpo: Vec<NodeId>,
}

impl Dominators {
    /// Computes dominators for all nodes reachable from the entry.
    pub fn compute(cfg: &Cfg) -> Dominators {
        Dominators::compute_with(cfg, &mut CfgScratch::new())
    }

    /// [`Dominators::compute`] with caller-provided scratch buffers.
    /// The result's tables are built in (recycled) scratch storage;
    /// hand them back with [`Dominators::recycle`] once done.
    pub fn compute_with(cfg: &Cfg, scratch: &mut CfgScratch) -> Dominators {
        let n = cfg.num_nodes();
        // Postorder DFS from the entry; reversed in place below.
        let mut post = std::mem::take(&mut scratch.rpo);
        post.clear();
        post.reserve(n);
        let state = &mut scratch.state;
        state.clear();
        state.resize(n, 0); // 0 = unseen, 1 = open, 2 = done
        let stack = &mut scratch.dfs;
        stack.clear();
        stack.push((cfg.entry(), 0));
        state[cfg.entry().index()] = 1;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs = cfg.succs(node);
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if state[s.index()] == 0 {
                    state[s.index()] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[node.index()] = 2;
                post.push(node);
                stack.pop();
            }
        }
        post.reverse();
        let rpo = post;
        let mut rpo_index = std::mem::take(&mut scratch.rpo_index);
        rpo_index.clear();
        rpo_index.resize(n, usize::MAX);
        for (i, &node) in rpo.iter().enumerate() {
            rpo_index[node.index()] = i;
        }

        let mut idom = std::mem::take(&mut scratch.idom);
        idom.clear();
        idom.resize(n, None);
        idom[cfg.entry().index()] = Some(cfg.entry());
        let mut changed = true;
        while changed {
            changed = false;
            for &node in rpo.iter().skip(1) {
                let mut new_idom: Option<NodeId> = None;
                for &p in cfg.preds(node) {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if new_idom.is_some() && idom[node.index()] != new_idom {
                    idom[node.index()] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators {
            idom,
            rpo_index,
            rpo,
        }
    }

    /// Returns the dominator tables to `scratch` for the next
    /// [`Dominators::compute_with`] call to reuse.
    pub fn recycle(self, scratch: &mut CfgScratch) {
        scratch.idom = self.idom;
        scratch.rpo_index = self.rpo_index;
        scratch.rpo = self.rpo;
    }

    /// The immediate dominator of `n` (the entry dominates itself).
    /// `None` for unreachable nodes.
    pub fn idom(&self, n: NodeId) -> Option<NodeId> {
        self.idom[n.index()]
    }

    /// `true` if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }

    /// The reverse-postorder index of `n` (`usize::MAX` if unreachable).
    pub fn rpo_index(&self, n: NodeId) -> usize {
        self.rpo_index[n.index()]
    }
}

fn intersect(idom: &[Option<NodeId>], rpo_index: &[usize], mut a: NodeId, mut b: NodeId) -> NodeId {
    while a != b {
        while rpo_index[a.index()] > rpo_index[b.index()] {
            a = idom[a.index()].expect("processed node");
        }
        while rpo_index[b.index()] > rpo_index[a.index()] {
            b = idom[b.index()].expect("processed node");
        }
    }
    a
}

/// The graph is irreducible: some retreating edge targets a node that does
/// not dominate its source (a multi-entry loop).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IrreducibleError {
    /// The offending retreating edges.
    pub edges: Vec<(NodeId, NodeId)>,
}

impl fmt::Display for IrreducibleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "irreducible flow graph; offending edges: ")?;
        for (i, (m, n)) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m} → {n}")?;
        }
        Ok(())
    }
}

impl std::error::Error for IrreducibleError {}

/// Returns the back edges `(tail, header)` of `cfg` — retreating edges
/// whose target dominates their source.
///
/// # Errors
///
/// Returns [`IrreducibleError`] if a retreating edge is not a back edge.
pub fn back_edges(cfg: &Cfg, dom: &Dominators) -> Result<Vec<(NodeId, NodeId)>, IrreducibleError> {
    let mut back = Vec::new();
    let mut bad = Vec::new();
    for (m, n) in cfg.edges() {
        if dom.rpo_index(n) <= dom.rpo_index(m) && dom.rpo_index(m) != usize::MAX {
            if dom.dominates(n, m) {
                back.push((m, n));
            } else {
                bad.push((m, n));
            }
        }
    }
    if bad.is_empty() {
        Ok(back)
    } else {
        Err(IrreducibleError { edges: bad })
    }
}

/// Identifies a loop in a [`LoopForest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub u32);

impl LoopId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One natural loop: its header and its place in the nesting tree. The
/// member set `T(header)` (which, following Tarjan, *excludes* the
/// header itself) is not stored; ask [`LoopForest::is_member`].
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// The unique entry node of the loop.
    pub header: NodeId,
    /// The immediately enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Nesting depth: 1 for outermost loops.
    pub depth: usize,
}

/// The loop nesting forest of a reducible CFG.
///
/// Loop ids run in ascending body size, ties broken by the loop's first
/// back edge in [`Cfg::edges`] order, so every loop has a smaller id than
/// the loops enclosing it. Normalization appends latch nodes in id order,
/// which is why the order is part of the contract.
///
/// Membership is a range check: the loops are numbered in a preorder of
/// the nesting tree, each loop owns the range `[lo, hi)` of its subtree,
/// and `n ∈ T(l)` exactly when the innermost loop of `n` lies in `l`'s
/// range.
#[derive(Clone, Debug)]
pub struct LoopForest {
    loops: Vec<LoopInfo>,
    /// Per loop: its subtree's `[lo, hi)` in the nesting-tree preorder
    /// (`lo` is the loop's own position).
    span: Vec<(u32, u32)>,
    /// Per node: the innermost loop having the node as a *member*.
    innermost: Vec<Option<LoopId>>,
    /// Per node: the loop this node heads, if any.
    headed: Vec<Option<LoopId>>,
}

impl LoopForest {
    /// Computes the loop forest from the back edges of a reducible graph
    /// (natural loops with identical headers are merged). Nodes
    /// unreachable from the entry belong to no loop.
    ///
    /// # Errors
    ///
    /// Returns [`IrreducibleError`] if the graph is irreducible.
    pub fn compute(cfg: &Cfg, dom: &Dominators) -> Result<LoopForest, IrreducibleError> {
        Self::compute_with(cfg, dom, &mut CfgScratchPool::global().checkout())
    }

    /// [`LoopForest::compute`] with caller-provided scratch buffers.
    ///
    /// One pass over the headers, innermost first (descending reverse
    /// postorder: an inner header comes after every header enclosing
    /// it), walks each natural loop backwards from its back-edge tails.
    /// A union-find collapses every finished loop into its header, so
    /// the walk of an enclosing loop steps over a nested loop through its
    /// header alone, and each node and edge is walked once overall.
    pub(crate) fn compute_with(
        cfg: &Cfg,
        dom: &Dominators,
        scratch: &mut CfgScratch,
    ) -> Result<LoopForest, IrreducibleError> {
        let backs = back_edges(cfg, dom)?;
        let n = cfg.num_nodes();
        let CfgScratch {
            up,
            uf,
            counts: size,
            work,
            headers,
            cursor,
            ..
        } = scratch;
        // Headers in first-back-edge order; `size` doubles as the "seen"
        // mark until the walks below start counting members.
        size.clear();
        size.resize(n, 0);
        headers.clear();
        for &(_, h) in &backs {
            if size[h.index()] == 0 {
                size[h.index()] = 1;
                headers.push(h);
            }
        }
        for &h in headers.iter() {
            size[h.index()] = 0;
        }
        up.clear();
        up.resize(n, None);
        uf.clear();
        uf.extend(0..n as u32);
        let reachable = |x: NodeId| dom.rpo_index(x) != usize::MAX;
        for &h in dom.rpo.iter().rev() {
            let order = dom.rpo_index(h);
            work.clear();
            work.extend(
                cfg.preds(h)
                    .iter()
                    .copied()
                    .filter(|&p| reachable(p) && dom.rpo_index(p) >= order),
            );
            while let Some(x) = work.pop() {
                let r = find(uf, x);
                if r == h {
                    continue;
                }
                // `r` is a plain member, or the header of a finished inner
                // loop: the only way into that loop is through `r`.
                up[r.index()] = Some(h);
                uf[r.index()] = h.0;
                size[h.index()] += 1 + size[r.index()];
                work.extend(cfg.preds(r).iter().copied().filter(|&p| reachable(p)));
            }
        }
        headers.sort_by_key(|h| size[h.index()]);
        let mut headed = vec![None; n];
        for (i, &h) in headers.iter().enumerate() {
            headed[h.index()] = Some(LoopId(i as u32));
        }
        let loop_of = |x: NodeId| up[x.index()].and_then(|u| headed[u.index()]);
        let loops = headers
            .iter()
            .map(|&h| LoopInfo {
                header: h,
                parent: loop_of(h),
                depth: 0,
            })
            .collect();
        let innermost = cfg.nodes().map(loop_of).collect();
        Ok(Self::from_tree(loops, innermost, headed, cursor))
    }

    /// Finishes a forest whose loops are sorted inner-to-outer (every
    /// parent id larger than its children's) and have their parents set:
    /// fills in depths and numbers the nesting tree in preorder. O(loops),
    /// no recursion. Also the entry point for the forest carried over to
    /// a reversed graph (§5.3).
    pub(crate) fn from_tree(
        mut loops: Vec<LoopInfo>,
        innermost: Vec<Option<LoopId>>,
        headed: Vec<Option<LoopId>>,
        cursor: &mut Vec<u32>,
    ) -> LoopForest {
        let k = loops.len();
        // Subtree sizes, children first.
        let mut span = vec![(0u32, 1u32); k];
        for i in 0..k {
            if let Some(p) = loops[i].parent {
                span[p.index()].1 += span[i].1;
            }
        }
        // Positions, parents first; `cursor[p]` is the next free position
        // inside `p`'s range.
        cursor.clear();
        cursor.resize(k, 0);
        let mut next_root = 0;
        for i in (0..k).rev() {
            let size = span[i].1;
            let (lo, depth) = match loops[i].parent {
                Some(p) => {
                    let lo = cursor[p.index()];
                    cursor[p.index()] += size;
                    (lo, loops[p.index()].depth + 1)
                }
                None => {
                    let lo = next_root;
                    next_root += size;
                    (lo, 1)
                }
            };
            span[i] = (lo, lo + size);
            cursor[i] = lo + 1;
            loops[i].depth = depth;
        }
        LoopForest {
            loops,
            span,
            innermost,
            headed,
        }
    }

    /// All loops, inner-to-outer (ids are valid indices).
    pub fn loops(&self) -> &[LoopInfo] {
        &self.loops
    }

    /// The loop headed by `n`, if `n` is a loop header.
    pub fn loop_headed_by(&self, n: NodeId) -> Option<LoopId> {
        self.headed[n.index()]
    }

    /// The innermost loop of which `n` is a member (headers are members of
    /// their *enclosing* loops only).
    pub fn innermost(&self, n: NodeId) -> Option<LoopId> {
        self.innermost[n.index()]
    }

    /// `[lo, hi)`: the positions of `l`'s subtree in the nesting-tree
    /// preorder.
    pub(crate) fn span(&self, l: LoopId) -> (u32, u32) {
        self.span[l.index()]
    }

    /// `true` if `inner` is `outer` or nested inside it.
    pub(crate) fn encloses(&self, outer: LoopId, inner: LoopId) -> bool {
        let (lo, hi) = self.span[outer.index()];
        let pos = self.span[inner.index()].0;
        lo <= pos && pos < hi
    }

    /// `true` if `n` is a member of loop `l` (members exclude the header).
    pub fn is_member(&self, l: LoopId, n: NodeId) -> bool {
        self.innermost(n).is_some_and(|i| self.encloses(l, i))
    }

    /// The number of loops enclosing `n` (counting a header's own loop for
    /// its members, not for the header itself).
    pub fn nesting_depth(&self, n: NodeId) -> usize {
        match self.innermost(n) {
            Some(l) => self.loops[l.index()].depth,
            None => 0,
        }
    }

    /// Registers `mid`, a node splitting the edge `m → n`, with the loops
    /// that should contain it: the loop itself when the split edge was a
    /// back edge (`n` heads a loop `m` belongs to) or an entry edge (`m`
    /// heads a loop `n` belongs to), else the deepest loop containing both
    /// endpoints. The climb from `m` visits only the loops the edge
    /// leaves.
    pub(crate) fn adopt(&mut self, m: NodeId, n: NodeId, mid: NodeId) {
        let target = if let Some(l) = self.loop_headed_by(n).filter(|&l| self.is_member(l, m)) {
            Some(l)
        } else if let Some(l) = self.loop_headed_by(m).filter(|&l| self.is_member(l, n)) {
            Some(l)
        } else {
            let mut cur = self.innermost(m);
            while let Some(l) = cur.filter(|&l| !self.is_member(l, n)) {
                cur = self.loops[l.index()].parent;
            }
            cur
        };
        self.adopt_into(target, mid);
    }

    /// Registers a freshly created node as a member of loop `l` (and so
    /// of every enclosing loop), or of no loop. Used by normalization when
    /// it inserts synthetic nodes.
    pub(crate) fn adopt_into(&mut self, l: Option<LoopId>, n: NodeId) {
        if n.index() >= self.innermost.len() {
            self.innermost.resize(n.index() + 1, None);
            self.headed.resize(n.index() + 1, None);
        }
        self.innermost[n.index()] = l;
    }
}

/// Union-find root of `x`, with path compression.
fn find(uf: &mut [u32], x: NodeId) -> NodeId {
    let mut root = x.0;
    while uf[root as usize] != root {
        root = uf[root as usize];
    }
    let mut cur = x.0;
    while uf[cur as usize] != root {
        let next = uf[cur as usize];
        uf[cur as usize] = root;
        cur = next;
    }
    NodeId(root)
}

/// Splits nodes until `cfg` is reducible (identity on reducible graphs).
///
/// Each round finds an irreducible retreating edge `(m, n)` and peels a
/// copy of `n` for that edge, preserving semantics (the copy has the same
/// [`NodeKind`](crate::NodeKind) and successors). Returns the number of
/// nodes added.
///
/// # Errors
///
/// Returns [`IrreducibleError`] if the graph is still irreducible after
/// `max_splits` rounds (node splitting can blow up exponentially; callers
/// choose the budget).
pub fn make_reducible(cfg: &mut Cfg, max_splits: usize) -> Result<usize, IrreducibleError> {
    let mut added = 0;
    loop {
        let dom = Dominators::compute(cfg);
        let Err(err) = back_edges(cfg, &dom) else {
            return Ok(added);
        };
        if added >= max_splits {
            return Err(err);
        }
        let (m, n) = err.edges[0];
        let copy = cfg.add_node(cfg.kind(n));
        for &s in cfg.succs(n).to_vec().iter() {
            cfg.add_edge(copy, s);
        }
        cfg.remove_edge(m, n);
        cfg.add_edge(m, copy);
        added += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{NodeKind, SynthKind};
    use gnt_ir::parse;

    fn synth(cfg: &mut Cfg) -> NodeId {
        cfg.add_node(NodeKind::Synthetic(SynthKind::EdgeSplit))
    }

    /// entry → a → b → exit plus back edge b → a.
    fn simple_loop() -> (Cfg, NodeId, NodeId) {
        let mut cfg = Cfg::new();
        let a = synth(&mut cfg);
        let b = synth(&mut cfg);
        cfg.add_edge(cfg.entry(), a);
        cfg.add_edge(a, b);
        cfg.add_edge(b, a);
        cfg.add_edge(a, cfg.exit());
        (cfg, a, b)
    }

    #[test]
    fn idom_on_diamond() {
        let mut cfg = Cfg::new();
        let t = synth(&mut cfg);
        let e = synth(&mut cfg);
        let j = synth(&mut cfg);
        cfg.add_edge(cfg.entry(), t);
        cfg.add_edge(cfg.entry(), e);
        cfg.add_edge(t, j);
        cfg.add_edge(e, j);
        cfg.add_edge(j, cfg.exit());
        let dom = Dominators::compute(&cfg);
        assert_eq!(dom.idom(j), Some(cfg.entry()));
        assert!(dom.dominates(cfg.entry(), j));
        assert!(!dom.dominates(t, j));
    }

    #[test]
    fn back_edge_detected_in_simple_loop() {
        let (cfg, a, b) = simple_loop();
        let dom = Dominators::compute(&cfg);
        let backs = back_edges(&cfg, &dom).unwrap();
        assert_eq!(backs, vec![(b, a)]);
    }

    #[test]
    fn loop_forest_members_exclude_header() {
        let (cfg, a, b) = simple_loop();
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::compute(&cfg, &dom).unwrap();
        let l = forest.loop_headed_by(a).unwrap();
        let members: Vec<NodeId> = cfg.nodes().filter(|&x| forest.is_member(l, x)).collect();
        assert_eq!(members, vec![b]);
        assert!(forest.is_member(l, b));
        assert!(!forest.is_member(l, a));
        assert_eq!(forest.nesting_depth(b), 1);
        assert_eq!(forest.nesting_depth(a), 0);
    }

    #[test]
    fn nested_loops_have_parents() {
        let l = crate::lower(
            &parse("do i = 1, N\n  do j = 1, M\n    x(j) = 1\n  enddo\nenddo").unwrap(),
        )
        .unwrap();
        let dom = Dominators::compute(&l.cfg);
        let forest = LoopForest::compute(&l.cfg, &dom).unwrap();
        assert_eq!(forest.loops().len(), 2);
        let inner = forest
            .loops()
            .iter()
            .position(|li| li.depth == 2)
            .expect("an inner loop");
        assert!(forest.loops()[inner].parent.is_some());
        // Inner header is a member of the outer loop.
        let outer = forest.loops()[inner].parent.unwrap();
        assert!(forest.is_member(outer, forest.loops()[inner].header));
    }

    #[test]
    fn irreducible_graph_is_rejected() {
        // entry → a, entry → b, a → b, b → a (two-entry cycle), a → exit.
        let mut cfg = Cfg::new();
        let a = synth(&mut cfg);
        let b = synth(&mut cfg);
        cfg.add_edge(cfg.entry(), a);
        cfg.add_edge(cfg.entry(), b);
        cfg.add_edge(a, b);
        cfg.add_edge(b, a);
        cfg.add_edge(a, cfg.exit());
        let dom = Dominators::compute(&cfg);
        let err = back_edges(&cfg, &dom).unwrap_err();
        assert!(!err.edges.is_empty());
        assert!(err.to_string().contains("irreducible"));
    }

    #[test]
    fn make_reducible_fixes_two_entry_cycle() {
        let mut cfg = Cfg::new();
        let a = synth(&mut cfg);
        let b = synth(&mut cfg);
        cfg.add_edge(cfg.entry(), a);
        cfg.add_edge(cfg.entry(), b);
        cfg.add_edge(a, b);
        cfg.add_edge(b, a);
        cfg.add_edge(a, cfg.exit());
        let added = make_reducible(&mut cfg, 16).unwrap();
        assert!(added >= 1);
        let dom = Dominators::compute(&cfg);
        assert!(back_edges(&cfg, &dom).is_ok());
    }

    #[test]
    fn make_reducible_is_identity_on_reducible_graphs() {
        let (mut cfg, _, _) = simple_loop();
        let before = cfg.num_nodes();
        assert_eq!(make_reducible(&mut cfg, 16).unwrap(), 0);
        assert_eq!(cfg.num_nodes(), before);
    }

    #[test]
    fn goto_between_sibling_loops_is_irreducible() {
        // A goto from inside one loop into another loop's body.
        let p = parse(
            "do i = 1, N\n  if t(i) goto 5\n  a = 1\nenddo\n\
             do j = 1, N\n  5 b = 2\nenddo",
        )
        .unwrap();
        let l = crate::lower(&p).unwrap();
        let dom = Dominators::compute(&l.cfg);
        assert!(back_edges(&l.cfg, &dom).is_err());
    }
}
