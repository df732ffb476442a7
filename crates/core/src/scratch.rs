//! Reusable solver workspace: all Figure-13 variable families in one
//! [`BitSlab`] arena.
//!
//! One GIVE-N-TAKE solve materialises 20 bitset families (the 10 shared
//! consumption variables plus 5 placement variables for each flavor) over
//! every node. [`SolverScratch`] lays them out as strided rows of a single
//! contiguous allocation — row `family · n + node` — plus two temporary
//! rows for the multi-operand meets/joins. Repeated solves of the same
//! shape ([`crate::solve_into`], the pressure re-solve loop, ablations,
//! proptests) reuse the allocation and touch the allocator not at all
//! after warm-up.

use crate::problem::Flavor;
use crate::solver::{ConsumptionVars, FlavorSolution, Solution};
use gnt_cfg::NodeId;
use gnt_dataflow::{BitRef, BitSet, BitSlab};

// Family indices. The 10 consumption families are shared between the two
// flavors; the 5 placement families exist once per flavor, LAZY offset by
// [`FLAVOR_STRIDE`] from EAGER.
pub(crate) const F_STEAL: usize = 0;
pub(crate) const F_GIVE: usize = 1;
pub(crate) const F_BLOCK: usize = 2;
pub(crate) const F_TAKEN_OUT: usize = 3;
pub(crate) const F_TAKE: usize = 4;
pub(crate) const F_TAKEN_IN: usize = 5;
pub(crate) const F_BLOCK_LOC: usize = 6;
pub(crate) const F_TAKE_LOC: usize = 7;
pub(crate) const F_GIVE_LOC: usize = 8;
pub(crate) const F_STEAL_LOC: usize = 9;
pub(crate) const F_GIVEN_IN: usize = 10;
pub(crate) const F_GIVEN: usize = 11;
pub(crate) const F_GIVEN_OUT: usize = 12;
pub(crate) const F_RES_IN: usize = 13;
pub(crate) const F_RES_OUT: usize = 14;
pub(crate) const FLAVOR_STRIDE: usize = 5;
pub(crate) const NUM_FAMILIES: usize = 20;
pub(crate) const NUM_TEMPS: usize = 2;

pub(crate) fn flavor_offset(flavor: Flavor) -> usize {
    match flavor {
        Flavor::Eager => 0,
        Flavor::Lazy => FLAVOR_STRIDE,
    }
}

/// A reusable arena holding every solver variable of one solve.
///
/// Create once, pass to [`crate::solve_into`] or
/// [`crate::solve_with_scratch`] repeatedly; after the first solve of a
/// given graph/universe shape, subsequent solves allocate nothing. The
/// solved variables are readable in place through the accessor methods
/// (zero-copy [`BitRef`] views) or exported wholesale with
/// [`SolverScratch::export`].
///
/// # Examples
///
/// ```
/// use gnt_core::{solve_into, PlacementProblem, SolverOptions, SolverScratch};
/// use gnt_cfg::IntervalGraph;
///
/// let p = gnt_ir::parse("do i = 1, N\n  ... = x(a(i))\nenddo")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let body = g.nodes().find(|&n| g.level(n) == 2).unwrap();
/// let mut problem = PlacementProblem::new(g.num_nodes(), 1);
/// problem.take(body, 0);
/// let mut scratch = SolverScratch::new();
/// solve_into(&g, &problem, &SolverOptions::default(), &mut scratch);
/// use gnt_core::Flavor;
/// assert!(scratch.res_in(Flavor::Eager, g.root()).contains(0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SolverScratch {
    pub(crate) slab: BitSlab,
    nodes: usize,
    bits: usize,
    /// The compiled BEFORE schedule tape, reused by the re-solve sessions
    /// (`solve_batch*`, [`crate::solve_delta`], the pressure loop) as long
    /// as the graph shape and hoisting options fingerprint the same (see
    /// [`crate::ScheduleTape`]).
    pub(crate) tapes: crate::tape::TapeCache,
    /// Fingerprint of the tape whose *full-universe* replay the arena
    /// currently holds, if any — the validity token for
    /// [`crate::solve_delta`]. Set by a full tape execution, cleared by
    /// [`SolverScratch::prepare`] (every interpreted solve goes through
    /// it).
    delta_basis: Option<u64>,
}

impl Default for SolverScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SolverScratch {
    /// Creates an empty scratch; the first solve sizes it.
    pub fn new() -> Self {
        SolverScratch {
            slab: BitSlab::new(0, 0),
            nodes: 0,
            bits: 0,
            tapes: crate::tape::TapeCache::default(),
            delta_basis: None,
        }
    }

    /// Sizes the arena for `nodes` × `bits` and zeroes every row, reusing
    /// the allocation when possible.
    pub(crate) fn prepare(&mut self, nodes: usize, bits: usize) {
        self.nodes = nodes;
        self.bits = bits;
        self.delta_basis = None;
        self.slab.reset(NUM_FAMILIES * nodes + NUM_TEMPS, bits);
    }

    /// The delta-validity token: the fingerprint of the tape whose full
    /// replay this arena holds, if any (see [`crate::solve_delta`]).
    pub(crate) fn delta_basis(&self) -> Option<u64> {
        self.delta_basis
    }

    pub(crate) fn set_delta_basis(&mut self, basis: Option<u64>) {
        self.delta_basis = basis;
    }

    /// Number of graph nodes of the last solve.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Bits per row (the universe size).
    pub fn universe_bits(&self) -> usize {
        self.bits
    }

    #[inline]
    pub(crate) fn fam(&self, family: usize, node: usize) -> usize {
        family * self.nodes + node
    }

    fn view(&self, family: usize, n: NodeId) -> BitRef<'_> {
        self.slab.row(self.fam(family, n.index()))
    }

    /// Eq. 1 — `STEAL(n)`.
    pub fn steal(&self, n: NodeId) -> BitRef<'_> {
        self.view(F_STEAL, n)
    }

    /// Eq. 2 — `GIVE(n)`.
    pub fn give(&self, n: NodeId) -> BitRef<'_> {
        self.view(F_GIVE, n)
    }

    /// Eq. 3 — `BLOCK(n)`.
    pub fn block(&self, n: NodeId) -> BitRef<'_> {
        self.view(F_BLOCK, n)
    }

    /// Eq. 4 — `TAKEN_out(n)`.
    pub fn taken_out(&self, n: NodeId) -> BitRef<'_> {
        self.view(F_TAKEN_OUT, n)
    }

    /// Eq. 5 — `TAKE(n)`.
    pub fn take(&self, n: NodeId) -> BitRef<'_> {
        self.view(F_TAKE, n)
    }

    /// Eq. 6 — `TAKEN_in(n)`.
    pub fn taken_in(&self, n: NodeId) -> BitRef<'_> {
        self.view(F_TAKEN_IN, n)
    }

    /// Eq. 7 — `BLOCK_loc(n)`.
    pub fn block_loc(&self, n: NodeId) -> BitRef<'_> {
        self.view(F_BLOCK_LOC, n)
    }

    /// Eq. 8 — `TAKE_loc(n)`.
    pub fn take_loc(&self, n: NodeId) -> BitRef<'_> {
        self.view(F_TAKE_LOC, n)
    }

    /// Eq. 9 — `GIVE_loc(n)`.
    pub fn give_loc(&self, n: NodeId) -> BitRef<'_> {
        self.view(F_GIVE_LOC, n)
    }

    /// Eq. 10 — `STEAL_loc(n)`.
    pub fn steal_loc(&self, n: NodeId) -> BitRef<'_> {
        self.view(F_STEAL_LOC, n)
    }

    /// Eq. 11 — `GIVEN_in(n)` for `flavor`.
    pub fn given_in(&self, flavor: Flavor, n: NodeId) -> BitRef<'_> {
        self.view(F_GIVEN_IN + flavor_offset(flavor), n)
    }

    /// Eq. 12 — `GIVEN(n)` for `flavor`.
    pub fn given(&self, flavor: Flavor, n: NodeId) -> BitRef<'_> {
        self.view(F_GIVEN + flavor_offset(flavor), n)
    }

    /// Eq. 13 — `GIVEN_out(n)` for `flavor`.
    pub fn given_out(&self, flavor: Flavor, n: NodeId) -> BitRef<'_> {
        self.view(F_GIVEN_OUT + flavor_offset(flavor), n)
    }

    /// Eq. 14 — `RES_in(n)` for `flavor`.
    pub fn res_in(&self, flavor: Flavor, n: NodeId) -> BitRef<'_> {
        self.view(F_RES_IN + flavor_offset(flavor), n)
    }

    /// Eq. 15 — `RES_out(n)` for `flavor`.
    pub fn res_out(&self, flavor: Flavor, n: NodeId) -> BitRef<'_> {
        self.view(F_RES_OUT + flavor_offset(flavor), n)
    }

    /// Total `(node, item)` production points for `flavor`, straight from
    /// the arena (no export needed).
    pub fn num_productions(&self, flavor: Flavor) -> usize {
        let off = flavor_offset(flavor);
        (0..self.nodes)
            .map(|i| {
                self.slab.count(self.fam(F_RES_IN + off, i))
                    + self.slab.count(self.fam(F_RES_OUT + off, i))
            })
            .sum()
    }

    /// `|GIVEN_in^eager(n) − GIVEN_in^lazy(n)|` — the in-flight item count
    /// at `n`'s entry, computed without materialising the difference.
    pub fn in_flight_count(&self, n: NodeId) -> usize {
        self.slab.diff_count(
            self.fam(F_GIVEN_IN, n.index()),
            self.fam(F_GIVEN_IN + FLAVOR_STRIDE, n.index()),
        )
    }

    /// The in-flight items at `n`'s entry, ascending.
    pub fn in_flight_items(&self, n: NodeId) -> Vec<usize> {
        let lazy = self.given_in(Flavor::Lazy, n);
        self.given_in(Flavor::Eager, n)
            .iter()
            .filter(|&i| !lazy.contains(i))
            .collect()
    }

    /// Exports the arena into an owned [`Solution`].
    pub fn export(&self) -> Solution {
        let mut sol = Solution::empty(self.nodes, self.bits);
        self.write_into(&mut sol);
        sol
    }

    /// Copies every row into `sol`, which must already be shaped for this
    /// scratch's nodes and universe.
    pub(crate) fn write_into(&self, sol: &mut Solution) {
        let stride = self.slab.stride();
        let put = |family: usize, sets: &mut [BitSet]| {
            debug_assert_eq!(sets.len(), self.nodes);
            for (i, set) in sets.iter_mut().enumerate() {
                let row = self.slab.row(self.fam(family, i));
                set.words_mut()[..stride].copy_from_slice(row.words());
            }
        };
        let ConsumptionVars {
            steal,
            give,
            block,
            taken_out,
            take,
            taken_in,
            block_loc,
            take_loc,
            give_loc,
            steal_loc,
        } = &mut sol.vars;
        put(F_STEAL, steal);
        put(F_GIVE, give);
        put(F_BLOCK, block);
        put(F_TAKEN_OUT, taken_out);
        put(F_TAKE, take);
        put(F_TAKEN_IN, taken_in);
        put(F_BLOCK_LOC, block_loc);
        put(F_TAKE_LOC, take_loc);
        put(F_GIVE_LOC, give_loc);
        put(F_STEAL_LOC, steal_loc);
        for (flavor, fs) in [
            (Flavor::Eager, &mut sol.eager),
            (Flavor::Lazy, &mut sol.lazy),
        ] {
            let off = flavor_offset(flavor);
            let FlavorSolution {
                given_in,
                given,
                given_out,
                res_in,
                res_out,
            } = fs;
            put(F_GIVEN_IN + off, given_in);
            put(F_GIVEN + off, given);
            put(F_GIVEN_OUT + off, given_out);
            put(F_RES_IN + off, res_in);
            put(F_RES_OUT + off, res_out);
        }
    }
}
