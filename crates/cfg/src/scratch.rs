//! Pooled scratch buffers for CFG construction.
//!
//! Lowering a program and assembling its [`crate::IntervalGraph`] churns
//! through a set of short-lived buffers — the dominator DFS worklist,
//! reverse-postorder tables, the loop-nesting pass's union-find and
//! worklist, the interval scheduler's indegree array, the lowering
//! goto-patch tables. Under batch linting the front end
//! runs thousands of times per second, and those allocations dominate
//! its profile. A [`CfgScratch`] keeps the buffers alive between runs;
//! the [`CfgScratchPool`] shares warm scratches across pipeline workers
//! exactly like `gnt-core`'s solver `ScratchPool` does for solves.
//!
//! The public construction entry points ([`crate::lower`],
//! `Dominators::compute` inside [`crate::IntervalGraph::from_cfg`])
//! check scratches out of [`CfgScratchPool::global`] transparently, so
//! callers keep their existing signatures and still reuse buffers.

use crate::graph::NodeId;
use gnt_ir::Label;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Reusable buffers for one CFG construction (lower → dominators →
/// loop forest → interval assembly). Create one per long-lived worker,
/// or check one out of [`CfgScratchPool::global`].
#[derive(Debug, Default)]
pub struct CfgScratch {
    // Dominator computation: DFS bookkeeping plus the buffers that
    // become the `Dominators` tables. The latter are moved *into* the
    // computed `Dominators` and come back via [`Dominators::recycle`].
    pub(crate) state: Vec<u8>,
    pub(crate) dfs: Vec<(NodeId, usize)>,
    pub(crate) rpo: Vec<NodeId>,
    pub(crate) rpo_index: Vec<usize>,
    pub(crate) idom: Vec<Option<NodeId>>,
    // Loop forest: per-node innermost enclosing header, union-find
    // parents, body sizes (reused as per-slot member counts when the
    // forest is carried over to a reversed graph), the walk's worklist,
    // the headers in id order and the preorder-numbering cursors.
    pub(crate) up: Vec<Option<NodeId>>,
    pub(crate) uf: Vec<u32>,
    pub(crate) counts: Vec<u32>,
    pub(crate) work: Vec<NodeId>,
    pub(crate) headers: Vec<NodeId>,
    pub(crate) cursor: Vec<u32>,
    // Interval assembly: the classified edge list and the preorder
    // scheduling indegrees.
    pub(crate) edges: Vec<(NodeId, NodeId, crate::EdgeClass)>,
    pub(crate) indeg: Vec<usize>,
    // Lowering: label resolution for goto patching.
    pub(crate) label_node: HashMap<Label, NodeId>,
    pub(crate) pending_gotos: Vec<(NodeId, Label)>,
}

impl CfgScratch {
    /// An empty scratch; buffers grow to the working-set high-water mark
    /// on first use and stay allocated.
    pub fn new() -> CfgScratch {
        CfgScratch::default()
    }
}

/// A pool of warm [`CfgScratch`]es shared across threads.
#[derive(Debug, Default)]
pub struct CfgScratchPool {
    free: Mutex<Vec<CfgScratch>>,
    created: AtomicUsize,
}

/// Free-list cap: returning more than this many scratches drops the
/// extras. Construction scratches are small (a few KB warm), so the cap
/// only matters after a burst of one-shot threads.
const POOL_CAP: usize = 32;

impl CfgScratchPool {
    /// Creates an empty pool; scratches are built on first checkout.
    pub fn new() -> CfgScratchPool {
        CfgScratchPool::default()
    }

    /// The process-wide pool used by [`crate::lower`] and
    /// [`crate::IntervalGraph::from_cfg`]. Its population converges on
    /// the number of threads building CFGs concurrently.
    pub fn global() -> &'static CfgScratchPool {
        static POOL: OnceLock<CfgScratchPool> = OnceLock::new();
        POOL.get_or_init(CfgScratchPool::new)
    }

    /// Checks a scratch out — the most recently returned (warmest) one,
    /// or a fresh one when none are free. The guard checks it back in
    /// on drop.
    pub fn checkout(&self) -> PooledCfgScratch<'_> {
        let scratch = self.free.lock().expect("cfg scratch pool").pop();
        let scratch = scratch.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            CfgScratch::new()
        });
        PooledCfgScratch {
            pool: self,
            scratch: Some(scratch),
        }
    }

    /// Number of scratches currently checked in (free).
    pub fn warm(&self) -> usize {
        self.free.lock().expect("cfg scratch pool").len()
    }

    /// Total scratches ever created by this pool. Steady-state batch
    /// traffic must not grow this.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    fn check_in(&self, scratch: CfgScratch) {
        let mut free = self.free.lock().expect("cfg scratch pool");
        if free.len() < POOL_CAP {
            free.push(scratch);
        }
    }
}

/// A checked-out [`CfgScratch`]; derefs to the scratch and returns it
/// to its [`CfgScratchPool`] on drop (also on unwind).
#[derive(Debug)]
pub struct PooledCfgScratch<'a> {
    pool: &'a CfgScratchPool,
    scratch: Option<CfgScratch>,
}

impl Deref for PooledCfgScratch<'_> {
    type Target = CfgScratch;

    fn deref(&self) -> &CfgScratch {
        self.scratch.as_ref().expect("present until drop")
    }
}

impl DerefMut for PooledCfgScratch<'_> {
    fn deref_mut(&mut self) -> &mut CfgScratch {
        self.scratch.as_mut().expect("present until drop")
    }
}

impl Drop for PooledCfgScratch<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool.check_in(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lower, IntervalGraph};

    #[test]
    fn checkout_reuses_returned_scratches() {
        let pool = CfgScratchPool::new();
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
            assert_eq!(pool.created(), 2);
        }
        assert_eq!(pool.warm(), 2);
        {
            let _c = pool.checkout();
            assert_eq!(pool.created(), 2);
        }
    }

    #[test]
    fn scratch_reuse_is_invisible_in_the_built_graph() {
        let srcs = [
            "do i = 1, N\n  y(i) = ...\nenddo",
            "if test then\n  a = 1\nelse\n  b = 2\nendif\nc = 3",
            "do i = 1, N\n  do j = 1, M\n    x(j) = 1\n  enddo\nenddo",
        ];
        let mut scratch = CfgScratch::new();
        for src in srcs {
            let p = gnt_ir::parse(src).unwrap();
            let fresh = lower(&p).unwrap();
            let pooled = crate::build::lower_with(&p, &mut scratch).unwrap();
            assert_eq!(fresh.node_of_stmt, pooled.node_of_stmt);
            let fresh_g = IntervalGraph::from_cfg(fresh.cfg).unwrap();
            let pooled_g = IntervalGraph::from_cfg_with(pooled.cfg, &mut scratch).unwrap();
            assert_eq!(fresh_g.preorder(), pooled_g.preorder());
            let all = crate::EdgeMask::CEFJ | crate::EdgeMask::S;
            for n in fresh_g.nodes() {
                assert_eq!(fresh_g.kind(n), pooled_g.kind(n));
                assert_eq!(
                    fresh_g.succs(n, all).collect::<Vec<_>>(),
                    pooled_g.succs(n, all).collect::<Vec<_>>()
                );
                assert_eq!(
                    fresh_g.preds(n, all).collect::<Vec<_>>(),
                    pooled_g.preds(n, all).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn steady_state_builds_create_one_scratch() {
        let pool = CfgScratchPool::new();
        let p = gnt_ir::parse("do i = 1, N\n  y(i) = ...\nenddo").unwrap();
        for _ in 0..16 {
            let mut s = pool.checkout();
            let lowered = crate::build::lower_with(&p, &mut s).unwrap();
            IntervalGraph::from_cfg_with(lowered.cfg, &mut s).unwrap();
        }
        assert_eq!(pool.created(), 1);
    }
}
