//! Schedule compilation: the Figure-15 elimination schedule lowered to a
//! flat tape of fused kernel ops, compiled once per graph and replayed for
//! every re-solve.
//!
//! The interpreted solver ([`crate::solve_into`]) re-derives the schedule
//! on every call: per-node edge-class filtering, interval lookups, and
//! per-equation branching. None of that depends on the *problem* — only
//! on the graph and the hoisting options — so [`ScheduleTape::compile`]
//! runs the four passes once against pre-resolved
//! [`gnt_cfg::NeighborTable`]s and records the exact kernel-call sequence
//! as [`TapeOp`]s over arena row ids. Executing a tape is then a single
//! linear sweep: load the problem's initial variables, replay the ops.
//!
//! A peephole pass fuses adjacent ops on the same destination row into
//! the multi-word kernels of `gnt-dataflow` (`copy`+`or` → `copy_or`,
//! `copy_or`+`andnot` → `copy_or_andnot`, …). Every rule is an exact set
//! identity guarded against operand aliasing, so the fused tape is
//! bit-identical to the interpreter — the differential suite
//! (`tests/tape_differential.rs`) locks this on hundreds of random
//! programs in both directions.
//!
//! A compile costs about eight interpreted solves, so the tape pays only
//! where one graph is solved again and again: the pressure re-solve loop,
//! [`crate::solve_delta`], and explicit [`solve_batch`] callers. One-shot
//! solves (plan generation, both AFTER attempts, blame re-derivations)
//! run on the interpreter and never compile. The tape those sessions
//! replay is cached in one slot inside the [`SolverScratch`] that
//! executes it; a 64-bit structural fingerprint over the classified
//! edges, the effective poison set, and the jump-in sources guards the
//! slot — poisoning a header or changing a hoisting knob recompiles,
//! anything else replays.

use crate::problem::{Flavor, PlacementProblem, SolverOptions};
use crate::scratch::{
    flavor_offset, SolverScratch, F_BLOCK, F_BLOCK_LOC, F_GIVE, F_GIVEN, F_GIVEN_IN, F_GIVEN_OUT,
    F_GIVE_LOC, F_RES_IN, F_RES_OUT, F_STEAL, F_STEAL_LOC, F_TAKE, F_TAKEN_IN, F_TAKEN_OUT,
    F_TAKE_LOC, NUM_FAMILIES,
};
use crate::solver::{check_coverage, Solution};
use gnt_cfg::{EdgeClass, EdgeMask, IntervalGraph, NodeId};

/// One instruction of a compiled schedule: a fused `gnt-dataflow` kernel
/// applied to solver-arena rows resolved at compile time. `dst`, `a`,
/// `b`, `c` are [`gnt_dataflow::BitSlab`] row ids (`family · n + node`,
/// or one of the two temporaries); `node` indexes the problem's
/// initial-variable arrays at execution time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TapeOp {
    /// `dst ← ∅`.
    Clear {
        /// Destination row.
        dst: u32,
    },
    /// `dst ← ⊤` (poisoned headers' `STEAL`, §4.1).
    Fill {
        /// Destination row.
        dst: u32,
    },
    /// `dst ← a`.
    Copy {
        /// Destination row.
        dst: u32,
        /// Source row.
        a: u32,
    },
    /// `dst ← dst ∪ a`.
    Or {
        /// Destination row.
        dst: u32,
        /// Source row.
        a: u32,
    },
    /// `dst ← dst ∩ a`.
    And {
        /// Destination row.
        dst: u32,
        /// Source row.
        a: u32,
    },
    /// `dst ← dst ∖ a`.
    AndNot {
        /// Destination row.
        dst: u32,
        /// Source row.
        a: u32,
    },
    /// `dst ← dst ∪ (a ∖ b)`.
    OrAndNot {
        /// Destination row.
        dst: u32,
        /// Minuend row.
        a: u32,
        /// Subtrahend row.
        b: u32,
    },
    /// `dst ← a ∪ b` (peephole of `Copy`+`Or`).
    CopyOr {
        /// Destination row.
        dst: u32,
        /// First operand row.
        a: u32,
        /// Second operand row.
        b: u32,
    },
    /// `dst ← a ∩ b` (peephole of `Copy`+`And`).
    CopyAnd {
        /// Destination row.
        dst: u32,
        /// First operand row.
        a: u32,
        /// Second operand row.
        b: u32,
    },
    /// `dst ← a ∖ b` (peephole of `Copy`+`AndNot`).
    CopyAndNot {
        /// Destination row.
        dst: u32,
        /// Minuend row.
        a: u32,
        /// Subtrahend row.
        b: u32,
    },
    /// `dst ← (a ∪ b) ∖ c` (peephole of `CopyOr`+`AndNot`).
    CopyOrAndNot {
        /// Destination row.
        dst: u32,
        /// First union operand row.
        a: u32,
        /// Second union operand row.
        b: u32,
        /// Subtrahend row.
        c: u32,
    },
    /// `dst ← TAKE_init(node)`.
    LoadTake {
        /// Destination row.
        dst: u32,
        /// Problem node index.
        node: u32,
    },
    /// `dst ← STEAL_init(node)`.
    LoadSteal {
        /// Destination row.
        dst: u32,
        /// Problem node index.
        node: u32,
    },
    /// `dst ← GIVE_init(node)`.
    LoadGive {
        /// Destination row.
        dst: u32,
        /// Problem node index.
        node: u32,
    },
}

/// A compiled Figure-15 schedule for one graph and one set of hoisting
/// options: the flat op sequence one solve replays, with all interval,
/// edge-class, and equation dispatch already resolved.
///
/// Compile once ([`ScheduleTape::compile`]), execute many times
/// ([`ScheduleTape::execute_into`], or the cache-managed entry points
/// [`crate::solve_batch`] / [`crate::solve_batch_into`]). Execution is
/// bit-identical to the interpreted solver on the same inputs.
#[derive(Clone, Debug)]
pub struct ScheduleTape {
    ops: Vec<TapeOp>,
    nodes: usize,
    unfused_ops: usize,
    fingerprint: u64,
    delta: crate::delta::DeltaIndex,
}

impl ScheduleTape {
    /// Compiles the four-pass schedule for `graph` under `opts`.
    ///
    /// The walk mirrors the interpreted solver exactly — REVERSEPREORDER
    /// for Eqs. 9–10 (per header's children, forward order) and Eqs. 1–8,
    /// PREORDER for Eqs. 11–13 per flavor, then Eqs. 14–15 — but emits
    /// ops against pre-resolved neighbor tables instead of calling
    /// kernels, and runs the peephole fuser over the result.
    pub fn compile(graph: &IntervalGraph, opts: &SolverOptions) -> ScheduleTape {
        let n = graph.num_nodes();
        let fam = |f: usize, i: usize| u32::try_from(f * n + i).expect("arena row fits u32");
        let tmp0 = u32::try_from(NUM_FAMILIES * n).expect("arena row fits u32");
        let tmp1 = tmp0 + 1;

        // The typed-neighbor tables: every mask the schedule consults,
        // filtered once.
        let preds_fj = graph.preds_table(EdgeMask::FJ);
        let preds_s = graph.preds_table(EdgeMask::S);
        let succs_e = graph.succs_table(EdgeMask::E);
        let succs_f = graph.succs_table(EdgeMask::F);
        let succs_ef = graph.succs_table(EdgeMask::EF);
        let succs_fj = graph.succs_table(EdgeMask::FJ);
        let succs_fjs = graph.succs_table(EdgeMask::FJS);

        let mut ops: Vec<TapeOp> = Vec::new();

        // ---- Pass 1: S2 (Eqs. 9–10) per header's children, then S1
        // (Eqs. 1–8), in REVERSEPREORDER. ---------------------------------
        for &node in graph.preorder().iter().rev() {
            let ni = node.index();
            for &c in graph.children(node) {
                let ci = c.index();
                // Eq. 9: GIVE_loc(c) =
                //   (GIVE(c) ∪ TAKE(c) ∪ ∩_{p ∈ PREDS^FJ} GIVE_loc(p)) − STEAL(c)
                ops.push(TapeOp::Copy {
                    dst: tmp0,
                    a: fam(F_GIVE, ci),
                });
                ops.push(TapeOp::Or {
                    dst: tmp0,
                    a: fam(F_TAKE, ci),
                });
                let mut first = true;
                for &p in preds_fj.of(c) {
                    let a = fam(F_GIVE_LOC, p.index());
                    ops.push(if first {
                        TapeOp::Copy { dst: tmp1, a }
                    } else {
                        TapeOp::And { dst: tmp1, a }
                    });
                    first = false;
                }
                if !first {
                    ops.push(TapeOp::Or { dst: tmp0, a: tmp1 });
                }
                ops.push(TapeOp::Copy {
                    dst: fam(F_GIVE_LOC, ci),
                    a: tmp0,
                });
                ops.push(TapeOp::AndNot {
                    dst: fam(F_GIVE_LOC, ci),
                    a: fam(F_STEAL, ci),
                });

                // Eq. 10: STEAL_loc(c) = STEAL(c)
                //   ∪ ⋃_{p ∈ PREDS^FJ} (STEAL_loc(p) − GIVE_loc(p))
                //   ∪ ⋃_{p ∈ PREDS^S} STEAL_loc(p)
                ops.push(TapeOp::Copy {
                    dst: tmp0,
                    a: fam(F_STEAL, ci),
                });
                for &p in preds_fj.of(c) {
                    ops.push(TapeOp::OrAndNot {
                        dst: tmp0,
                        a: fam(F_STEAL_LOC, p.index()),
                        b: fam(F_GIVE_LOC, p.index()),
                    });
                }
                for &p in preds_s.of(c) {
                    ops.push(TapeOp::Or {
                        dst: tmp0,
                        a: fam(F_STEAL_LOC, p.index()),
                    });
                }
                ops.push(TapeOp::Copy {
                    dst: fam(F_STEAL_LOC, ci),
                    a: tmp0,
                });
            }

            // Eq. 1 / Eq. 2: fold in the interval summary via LASTCHILD.
            let node_u32 = u32::try_from(ni).expect("node id fits u32");
            if effective_poison(graph, opts, node) {
                ops.push(TapeOp::Fill {
                    dst: fam(F_STEAL, ni),
                });
            } else {
                ops.push(TapeOp::LoadSteal {
                    dst: fam(F_STEAL, ni),
                    node: node_u32,
                });
            }
            ops.push(TapeOp::LoadGive {
                dst: fam(F_GIVE, ni),
                node: node_u32,
            });
            if let Some(lc) = graph.last_child(node) {
                ops.push(TapeOp::Or {
                    dst: fam(F_STEAL, ni),
                    a: fam(F_STEAL_LOC, lc.index()),
                });
                ops.push(TapeOp::Or {
                    dst: fam(F_GIVE, ni),
                    a: fam(F_GIVE_LOC, lc.index()),
                });
            }

            // Eq. 3: BLOCK(n) = STEAL ∪ GIVE ∪ ⋃_{s ∈ SUCCS^E} BLOCK_loc(s)
            ops.push(TapeOp::Copy {
                dst: fam(F_BLOCK, ni),
                a: fam(F_STEAL, ni),
            });
            ops.push(TapeOp::Or {
                dst: fam(F_BLOCK, ni),
                a: fam(F_GIVE, ni),
            });
            for &s in succs_e.of(node) {
                ops.push(TapeOp::Or {
                    dst: fam(F_BLOCK, ni),
                    a: fam(F_BLOCK_LOC, s.index()),
                });
            }

            // Eq. 4: TAKEN_out(n) = ∩_{s ∈ SUCCS^FJS} TAKEN_in(s)
            let mut first = true;
            for &s in succs_fjs.of(node) {
                let a = fam(F_TAKEN_IN, s.index());
                let dst = fam(F_TAKEN_OUT, ni);
                ops.push(if first {
                    TapeOp::Copy { dst, a }
                } else {
                    TapeOp::And { dst, a }
                });
                first = false;
            }
            if first {
                ops.push(TapeOp::Clear {
                    dst: fam(F_TAKEN_OUT, ni),
                });
            }

            // Eq. 5: TAKE(n) = TAKE_init
            //   ∪ (⋃_{s ∈ SUCCS^E} TAKEN_in(s) − STEAL(n))
            //   ∪ ((TAKEN_out(n) ∩ ⋃_{s ∈ SUCCS^E} TAKE_loc(s)) − BLOCK(n))
            ops.push(TapeOp::LoadTake {
                dst: fam(F_TAKE, ni),
                node: node_u32,
            });
            if !effective_poison(graph, opts, node) {
                ops.push(TapeOp::Clear { dst: tmp0 });
                for &s in succs_e.of(node) {
                    ops.push(TapeOp::Or {
                        dst: tmp0,
                        a: fam(F_TAKEN_IN, s.index()),
                    });
                }
                ops.push(TapeOp::OrAndNot {
                    dst: fam(F_TAKE, ni),
                    a: tmp0,
                    b: fam(F_STEAL, ni),
                });

                ops.push(TapeOp::Clear { dst: tmp0 });
                for &s in succs_e.of(node) {
                    ops.push(TapeOp::Or {
                        dst: tmp0,
                        a: fam(F_TAKE_LOC, s.index()),
                    });
                }
                ops.push(TapeOp::And {
                    dst: tmp0,
                    a: fam(F_TAKEN_OUT, ni),
                });
                ops.push(TapeOp::AndNot {
                    dst: tmp0,
                    a: fam(F_BLOCK, ni),
                });
                ops.push(TapeOp::Or {
                    dst: fam(F_TAKE, ni),
                    a: tmp0,
                });
            }

            // Eq. 6: TAKEN_in(n) = TAKE(n) ∪ (TAKEN_out(n) − BLOCK(n))
            ops.push(TapeOp::Copy {
                dst: fam(F_TAKEN_IN, ni),
                a: fam(F_TAKEN_OUT, ni),
            });
            ops.push(TapeOp::AndNot {
                dst: fam(F_TAKEN_IN, ni),
                a: fam(F_BLOCK, ni),
            });
            ops.push(TapeOp::Or {
                dst: fam(F_TAKEN_IN, ni),
                a: fam(F_TAKE, ni),
            });

            // Eq. 7: BLOCK_loc(n) = (BLOCK(n) ∪ ⋃_{s ∈ SUCCS^F} BLOCK_loc(s))
            //                        − TAKE(n)
            ops.push(TapeOp::Copy {
                dst: fam(F_BLOCK_LOC, ni),
                a: fam(F_BLOCK, ni),
            });
            for &s in succs_f.of(node) {
                ops.push(TapeOp::Or {
                    dst: fam(F_BLOCK_LOC, ni),
                    a: fam(F_BLOCK_LOC, s.index()),
                });
            }
            ops.push(TapeOp::AndNot {
                dst: fam(F_BLOCK_LOC, ni),
                a: fam(F_TAKE, ni),
            });

            // Eq. 8: TAKE_loc(n) = TAKE(n)
            //   ∪ (⋃_{s ∈ SUCCS^EF} TAKE_loc(s) − BLOCK(n))
            ops.push(TapeOp::Clear {
                dst: fam(F_TAKE_LOC, ni),
            });
            for &s in succs_ef.of(node) {
                ops.push(TapeOp::Or {
                    dst: fam(F_TAKE_LOC, ni),
                    a: fam(F_TAKE_LOC, s.index()),
                });
            }
            ops.push(TapeOp::AndNot {
                dst: fam(F_TAKE_LOC, ni),
                a: fam(F_BLOCK, ni),
            });
            ops.push(TapeOp::Or {
                dst: fam(F_TAKE_LOC, ni),
                a: fam(F_TAKE, ni),
            });
        }

        // ---- Passes 2–3: S3 (Eqs. 11–13) in PREORDER, then S4
        // (Eqs. 14–15), once per flavor. -----------------------------------
        for flavor in [Flavor::Eager, Flavor::Lazy] {
            let off = flavor_offset(flavor);
            let (f_gin, f_given, f_gout) = (F_GIVEN_IN + off, F_GIVEN + off, F_GIVEN_OUT + off);
            for &node in graph.preorder() {
                let ni = node.index();
                // Eq. 11 (with the STEAL(HEADER) deviation, see the
                // interpreted solver for the rationale).
                match graph.header_of(node) {
                    Some(h) => {
                        ops.push(TapeOp::Copy {
                            dst: fam(f_gin, ni),
                            a: fam(f_given, h.index()),
                        });
                        ops.push(TapeOp::AndNot {
                            dst: fam(f_gin, ni),
                            a: fam(F_STEAL, h.index()),
                        });
                    }
                    None => ops.push(TapeOp::Clear {
                        dst: fam(f_gin, ni),
                    }),
                }
                // Jump-in sources join the predecessor set on reversed
                // graphs (§5.3).
                let eq11_preds = || {
                    preds_fj
                        .of(node)
                        .iter()
                        .chain(graph.jump_in_sources(node))
                        .copied()
                };
                let mut first = true;
                for p in eq11_preds() {
                    let a = fam(f_gout, p.index());
                    ops.push(if first {
                        TapeOp::Copy { dst: tmp0, a }
                    } else {
                        TapeOp::And { dst: tmp0, a }
                    });
                    first = false;
                }
                if !first {
                    ops.push(TapeOp::Or {
                        dst: fam(f_gin, ni),
                        a: tmp0,
                    });
                }
                ops.push(TapeOp::Clear { dst: tmp0 });
                for q in eq11_preds() {
                    ops.push(TapeOp::Or {
                        dst: tmp0,
                        a: fam(f_gout, q.index()),
                    });
                }
                ops.push(TapeOp::And {
                    dst: tmp0,
                    a: fam(F_TAKEN_IN, ni),
                });
                ops.push(TapeOp::Or {
                    dst: fam(f_gin, ni),
                    a: tmp0,
                });

                // Eq. 12: GIVEN(n) = GIVEN_in(n) ∪ TAKEN_in(n)   (EAGER)
                //                  = GIVEN_in(n) ∪ TAKE(n)       (LAZY)
                let consumed = match flavor {
                    Flavor::Eager => F_TAKEN_IN,
                    Flavor::Lazy => F_TAKE,
                };
                ops.push(TapeOp::Copy {
                    dst: fam(f_given, ni),
                    a: fam(f_gin, ni),
                });
                ops.push(TapeOp::Or {
                    dst: fam(f_given, ni),
                    a: fam(consumed, ni),
                });

                // Eq. 13: GIVEN_out(n) = (GIVE(n) ∪ GIVEN(n)) − STEAL(n)
                ops.push(TapeOp::Copy {
                    dst: fam(f_gout, ni),
                    a: fam(F_GIVE, ni),
                });
                ops.push(TapeOp::Or {
                    dst: fam(f_gout, ni),
                    a: fam(f_given, ni),
                });
                ops.push(TapeOp::AndNot {
                    dst: fam(f_gout, ni),
                    a: fam(F_STEAL, ni),
                });
            }

            // S4: Eqs. 14–15.
            let (f_rin, f_rout) = (F_RES_IN + off, F_RES_OUT + off);
            for ni in 0..n {
                // Eq. 14: RES_in(n) = GIVEN(n) − GIVEN_in(n)
                ops.push(TapeOp::Copy {
                    dst: fam(f_rin, ni),
                    a: fam(f_given, ni),
                });
                ops.push(TapeOp::AndNot {
                    dst: fam(f_rin, ni),
                    a: fam(f_gin, ni),
                });

                // Eq. 15: RES_out(n) = ⋃_{s ∈ SUCCS^FJ} GIVEN_in(s)
                //                       − GIVEN_out(n)
                ops.push(TapeOp::Clear {
                    dst: fam(f_rout, ni),
                });
                for &s in succs_fj.of(NodeId(u32::try_from(ni).expect("node id fits u32"))) {
                    ops.push(TapeOp::Or {
                        dst: fam(f_rout, ni),
                        a: fam(f_gin, s.index()),
                    });
                }
                ops.push(TapeOp::AndNot {
                    dst: fam(f_rout, ni),
                    a: fam(f_gout, ni),
                });
            }
        }

        let unfused_ops = ops.len();
        let ops = fuse(ops);
        let delta = crate::delta::DeltaIndex::build(&ops, n);
        ScheduleTape {
            ops,
            nodes: n,
            unfused_ops,
            fingerprint: fingerprint(graph, opts),
            delta,
        }
    }

    /// Number of ops in the (fused) tape.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of ops the compiler emitted before peephole fusion; the
    /// difference to [`ScheduleTape::num_ops`] is how many arena passes
    /// fusion saved per replay.
    pub fn num_unfused_ops(&self) -> usize {
        self.unfused_ops
    }

    /// Number of graph nodes the tape was compiled for.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// The compiled ops, for inspection and tests.
    pub fn ops(&self) -> &[TapeOp] {
        &self.ops
    }

    /// Whether this tape admits incremental re-execution via
    /// [`crate::solve_delta`]. Forward tapes always do; tapes with
    /// forward references (e.g. jump-in sources on reversed graphs) do
    /// not, and [`crate::solve_delta`] silently falls back to a full
    /// replay for them.
    pub fn delta_supported(&self) -> bool {
        self.delta.supported()
    }

    /// The block partition and consumer indices behind
    /// [`crate::solve_delta`].
    pub(crate) fn delta_index(&self) -> &crate::delta::DeltaIndex {
        &self.delta
    }

    /// The structural fingerprint this tape was compiled under.
    pub(crate) fn fingerprint_value(&self) -> u64 {
        self.fingerprint
    }

    /// Replays the tape over the full universe into `scratch`, leaving
    /// every Figure-13 variable readable in place — the tape analogue of
    /// [`crate::solve_into`]. Prefer [`crate::solve_batch_into`], which
    /// additionally caches the tape inside the scratch.
    ///
    /// # Panics
    ///
    /// Panics if `problem` does not cover the graph this tape was
    /// compiled for.
    pub fn execute_into(&self, problem: &PlacementProblem, scratch: &mut SolverScratch) {
        assert_eq!(
            problem.num_nodes(),
            self.nodes,
            "problem must cover the compiled graph"
        );
        scratch.prepare(self.nodes, problem.universe_size);
        let slab = &mut scratch.slab;
        for &op in &self.ops {
            match op {
                TapeOp::Clear { dst } => slab.clear(dst as usize),
                TapeOp::Fill { dst } => slab.fill(dst as usize),
                TapeOp::Copy { dst, a } => slab.copy(dst as usize, a as usize),
                TapeOp::Or { dst, a } => slab.or(dst as usize, a as usize),
                TapeOp::And { dst, a } => slab.and(dst as usize, a as usize),
                TapeOp::AndNot { dst, a } => slab.andnot(dst as usize, a as usize),
                TapeOp::OrAndNot { dst, a, b } => {
                    slab.or_andnot(dst as usize, a as usize, b as usize);
                }
                TapeOp::CopyOr { dst, a, b } => slab.copy_or(dst as usize, a as usize, b as usize),
                TapeOp::CopyAnd { dst, a, b } => {
                    slab.copy_and(dst as usize, a as usize, b as usize);
                }
                TapeOp::CopyAndNot { dst, a, b } => {
                    slab.copy_andnot(dst as usize, a as usize, b as usize);
                }
                TapeOp::CopyOrAndNot { dst, a, b, c } => {
                    slab.copy_or_andnot(dst as usize, a as usize, b as usize, c as usize);
                }
                TapeOp::LoadTake { dst, node } => {
                    slab.load(dst as usize, problem.take_init[node as usize].words());
                }
                TapeOp::LoadSteal { dst, node } => {
                    slab.load(dst as usize, problem.steal_init[node as usize].words());
                }
                TapeOp::LoadGive { dst, node } => {
                    slab.load(dst as usize, problem.give_init[node as usize].words());
                }
            }
        }
        // A full replay establishes the basis the incremental engine
        // (`solve_delta`) re-solves against.
        scratch.set_delta_basis(Some(self.fingerprint));
    }
}

/// The peephole fuser: collapses adjacent ops on the same destination row
/// into the fused multi-word kernels. Every rule is an exact set identity
/// with aliasing guards (an operand equal to the destination would read
/// the half-updated row), so fusion can never change results.
fn fuse(ops: Vec<TapeOp>) -> Vec<TapeOp> {
    let mut out: Vec<TapeOp> = Vec::with_capacity(ops.len());
    for op in ops {
        let fused = match (out.last().copied(), op) {
            // ∅ ∪ a = a
            (Some(TapeOp::Clear { dst: d }), TapeOp::Or { dst, a }) if d == dst && a != dst => {
                Some(TapeOp::Copy { dst, a })
            }
            // ∅ ∩ a = ∅, ∅ ∖ a = ∅
            (Some(TapeOp::Clear { dst: d }), TapeOp::And { dst, .. })
            | (Some(TapeOp::Clear { dst: d }), TapeOp::AndNot { dst, .. })
                if d == dst =>
            {
                Some(TapeOp::Clear { dst })
            }
            // ∅ ∪ (a ∖ b) = a ∖ b
            (Some(TapeOp::Clear { dst: d }), TapeOp::OrAndNot { dst, a, b })
                if d == dst && a != dst && b != dst =>
            {
                Some(TapeOp::CopyAndNot { dst, a, b })
            }
            // a ∪ b, a ∩ b, a ∖ b over a fresh copy
            (Some(TapeOp::Copy { dst: d, a }), TapeOp::Or { dst, a: b })
                if d == dst && a != dst && b != dst =>
            {
                Some(TapeOp::CopyOr { dst, a, b })
            }
            (Some(TapeOp::Copy { dst: d, a }), TapeOp::And { dst, a: b })
                if d == dst && a != dst && b != dst =>
            {
                Some(TapeOp::CopyAnd { dst, a, b })
            }
            (Some(TapeOp::Copy { dst: d, a }), TapeOp::AndNot { dst, a: b })
                if d == dst && a != dst && b != dst =>
            {
                Some(TapeOp::CopyAndNot { dst, a, b })
            }
            // (a ∪ b) ∖ c
            (Some(TapeOp::CopyOr { dst: d, a, b }), TapeOp::AndNot { dst, a: c })
                if d == dst && c != dst =>
            {
                Some(TapeOp::CopyOrAndNot { dst, a, b, c })
            }
            _ => None,
        };
        match fused {
            Some(f) => *out.last_mut().expect("fusion requires a prior op") = f,
            None => out.push(op),
        }
    }
    out
}

/// Whether `h`'s `STEAL` is forced to ⊤: poisoned on the graph, or
/// hoisting disabled by the solver options (§4.1 zero-trip safety).
fn effective_poison(graph: &IntervalGraph, opts: &SolverOptions, h: NodeId) -> bool {
    graph.is_poisoned(h)
        || opts.no_hoist_headers.contains(&h)
        || (opts.no_zero_trip_hoist && graph.is_loop_header(h))
}

/// FNV-1a over everything the compiled tape depends on: node count,
/// classified successor edges, the effective poison set (graph poison ∪
/// option-induced poison), and the jump-in sources. Two graphs with equal
/// fingerprints compile to the same tape.
fn fingerprint(graph: &IntervalGraph, opts: &SolverOptions) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    let class_tag = |c: EdgeClass| -> u64 {
        match c {
            EdgeClass::Entry => 1,
            EdgeClass::Cycle => 2,
            EdgeClass::Jump => 3,
            EdgeClass::Forward => 4,
            EdgeClass::Synthetic => 5,
            EdgeClass::JumpIn => 6,
        }
    };
    mix(graph.num_nodes() as u64);
    for node in graph.nodes() {
        mix(0xE0E0);
        for (s, c) in graph.succ_edges(node) {
            mix((u64::from(s.0) << 3) | class_tag(c));
        }
        mix(u64::from(effective_poison(graph, opts, node)));
        for &j in graph.jump_in_sources(node) {
            mix(0x1000_0000 | u64::from(j.0));
        }
    }
    h
}

/// The per-scratch tape cache: the one BEFORE tape a re-solve session
/// replays, guarded by the structural fingerprint.
#[derive(Debug, Default)]
pub(crate) struct TapeCache {
    slot: Option<ScheduleTape>,
}

impl TapeCache {
    /// Takes the cached tape if its fingerprint still matches `graph`
    /// under `opts`; compiles a fresh tape otherwise. The caller returns
    /// it with [`TapeCache::put`] after executing (the tape moves out so
    /// the scratch can be mutably borrowed during execution).
    pub(crate) fn take_or_compile(
        &mut self,
        graph: &IntervalGraph,
        opts: &SolverOptions,
    ) -> ScheduleTape {
        match self.slot.take() {
            Some(tape) if tape.fingerprint == fingerprint(graph, opts) => tape,
            _ => ScheduleTape::compile(graph, opts),
        }
    }

    pub(crate) fn put(&mut self, tape: ScheduleTape) {
        self.slot = Some(tape);
    }
}

impl SolverScratch {
    /// The cached schedule tape, if any — populated by the `solve_batch*`
    /// entry points, [`crate::solve_delta`] and the pressure loop.
    pub fn cached_tape(&self) -> Option<&ScheduleTape> {
        self.tapes.slot.as_ref()
    }
}

/// Batched tape solve: replays the scratch-cached schedule tape for
/// `graph` and writes the result into the caller-reused `out`, allocating
/// nothing once `scratch` and `out` are warm. Results are bit-identical
/// to [`crate::solve`].
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`.
///
/// # Examples
///
/// ```
/// use gnt_core::{solve, solve_batch, PlacementProblem, Solution, SolverOptions, SolverScratch};
/// use gnt_cfg::IntervalGraph;
///
/// let p = gnt_ir::parse("do i = 1, N\n  ... = x(a(i))\nenddo")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let body = g.nodes().find(|&n| g.level(n) == 2).unwrap();
/// let mut problem = PlacementProblem::new(g.num_nodes(), 256);
/// problem.take(body, 200);
/// let opts = SolverOptions::default();
/// let (mut scratch, mut out) = (SolverScratch::new(), Solution::default());
/// solve_batch(&g, &problem, &opts, &mut scratch, &mut out); // compiles + caches the tape
/// solve_batch(&g, &problem, &opts, &mut scratch, &mut out); // replays it, allocation-free
/// assert_eq!(out, solve(&g, &problem, &opts));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_batch(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
    out: &mut Solution,
) {
    check_coverage(graph, problem);
    let tape = scratch.tapes.take_or_compile(graph, opts);
    // Every word of every row of `out` is overwritten below, so
    // re-shaping skips the zeroing.
    out.reshape_for_overwrite(graph.num_nodes(), problem.universe_size);
    tape.execute_into(problem, scratch);
    scratch.write_into(out);
    scratch.tapes.put(tape);
}

/// [`solve_batch`] without the export: replays the cached BEFORE tape and
/// leaves every variable readable in `scratch` (zero-copy views) — the
/// tape analogue of [`crate::solve_into`], used by the pressure re-solve
/// loop.
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`.
pub fn solve_batch_into(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
) {
    check_coverage(graph, problem);
    let tape = scratch.tapes.take_or_compile(graph, opts);
    tape.execute_into(problem, scratch);
    scratch.tapes.put(tape);
}

/// [`solve_batch_into`] followed by [`SolverScratch::export`]: the
/// tape-cached drop-in for [`crate::solve_with_scratch`].
///
/// # Panics
///
/// Panics if `problem` does not cover all nodes of `graph`.
pub fn solve_batch_with_scratch(
    graph: &IntervalGraph,
    problem: &PlacementProblem,
    opts: &SolverOptions,
    scratch: &mut SolverScratch,
) -> Solution {
    solve_batch_into(graph, problem, opts, scratch);
    scratch.export()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;
    use gnt_cfg::NodeKind;
    use gnt_ir::parse;

    fn graph(src: &str) -> IntervalGraph {
        IntervalGraph::from_program(&parse(src).unwrap()).unwrap()
    }

    fn take_everywhere(g: &IntervalGraph, items: usize) -> PlacementProblem {
        let mut prob = PlacementProblem::new(g.num_nodes(), items);
        for (k, n) in g
            .nodes()
            .filter(|&n| matches!(g.kind(n), NodeKind::Stmt(_)))
            .enumerate()
        {
            prob.take(n, k % items);
        }
        prob
    }

    const BRANCHY: &str = "do i = 1, N\n  ... = x(a(i))\n  if t(i) goto 7\n  z = 0\nenddo\n\
                           if test then\n  c = 3\nelse\n  d = 4\nendif\n7 e = 5";

    #[test]
    fn fusion_shrinks_the_tape_and_uses_fused_kernels() {
        let g = graph(BRANCHY);
        let tape = ScheduleTape::compile(&g, &SolverOptions::default());
        assert!(
            tape.num_ops() < tape.num_unfused_ops(),
            "{} !< {}",
            tape.num_ops(),
            tape.num_unfused_ops()
        );
        let has = |pred: fn(&TapeOp) -> bool| tape.ops().iter().any(pred);
        // Every peephole family fires on this shape: Eq. 3/12 (CopyOr),
        // Eq. 6/9/14 (CopyAndNot), Eq. 13 (CopyOrAndNot), Eq. 4/11 meets
        // over a fresh copy stay Copy+And chains, and Eq. 8 on nodes
        // without EF successors collapses Clear+Or to Copy.
        assert!(has(|op| matches!(op, TapeOp::CopyOr { .. })));
        assert!(has(|op| matches!(op, TapeOp::CopyAndNot { .. })));
        assert!(has(|op| matches!(op, TapeOp::CopyOrAndNot { .. })));
    }

    #[test]
    fn tape_execution_matches_the_interpreted_solver() {
        let g = graph(BRANCHY);
        for items in [1usize, 63, 64, 65, 300] {
            let prob = take_everywhere(&g, items);
            let opts = SolverOptions::default();
            let expected = solve(&g, &prob, &opts);
            let mut scratch = SolverScratch::new();
            let mut out = Solution::default();
            solve_batch(&g, &prob, &opts, &mut scratch, &mut out);
            assert_eq!(out, expected, "items = {items}");
            // Second call replays the cached tape into the warm buffer.
            assert!(scratch.cached_tape().is_some());
            solve_batch(&g, &prob, &opts, &mut scratch, &mut out);
            assert_eq!(out, expected, "replay, items = {items}");
        }
    }

    #[test]
    fn option_changes_invalidate_the_cached_tape() {
        let g = graph("do i = 1, N\n  ... = x(a(i))\nenddo");
        let prob = take_everywhere(&g, 4);
        let mut scratch = SolverScratch::new();
        let mut out = Solution::default();
        let plain = SolverOptions::default();
        let no_hoist = SolverOptions {
            no_zero_trip_hoist: true,
            ..Default::default()
        };
        // Solve, flip the hoisting knob, solve, flip back: each result
        // must match the interpreted solver under the *current* options,
        // i.e. the fingerprint mismatch forces a recompile every time.
        solve_batch(&g, &prob, &plain, &mut scratch, &mut out);
        assert_eq!(out, solve(&g, &prob, &plain));
        solve_batch(&g, &prob, &no_hoist, &mut scratch, &mut out);
        assert_eq!(out, solve(&g, &prob, &no_hoist));
        solve_batch(&g, &prob, &plain, &mut scratch, &mut out);
        assert_eq!(out, solve(&g, &prob, &plain));
        // And the fingerprints really differ (the knob poisons the header).
        assert_ne!(fingerprint(&g, &plain), fingerprint(&g, &no_hoist));
    }

    #[test]
    fn output_buffer_reshapes_across_universe_sizes() {
        let g = graph(BRANCHY);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        let mut out = Solution::default();
        // Shrinking and growing the universe through the same buffer must
        // never leak stale high bits into a narrower solve.
        for items in [130usize, 64, 65, 63, 1, 300] {
            let prob = take_everywhere(&g, items);
            solve_batch(&g, &prob, &opts, &mut scratch, &mut out);
            assert_eq!(out, solve(&g, &prob, &opts), "items = {items}");
        }
    }

    #[test]
    fn fuser_rules_are_guarded_against_aliasing() {
        // Clear(0); Or(0, 0) must NOT become Copy(0, 0) — the guard keeps
        // the Clear and drops nothing.
        let fused = fuse(vec![TapeOp::Clear { dst: 0 }, TapeOp::Or { dst: 0, a: 0 }]);
        assert_eq!(
            fused,
            vec![TapeOp::Clear { dst: 0 }, TapeOp::Or { dst: 0, a: 0 }]
        );
        // The straight-line chain: Clear + Or + AndNot → Copy + AndNot →
        // CopyAndNot.
        let fused = fuse(vec![
            TapeOp::Clear { dst: 0 },
            TapeOp::Or { dst: 0, a: 1 },
            TapeOp::AndNot { dst: 0, a: 2 },
        ]);
        assert_eq!(fused, vec![TapeOp::CopyAndNot { dst: 0, a: 1, b: 2 }]);
        // Copy + Or + AndNot → CopyOr + AndNot → CopyOrAndNot.
        let fused = fuse(vec![
            TapeOp::Copy { dst: 0, a: 1 },
            TapeOp::Or { dst: 0, a: 2 },
            TapeOp::AndNot { dst: 0, a: 3 },
        ]);
        assert_eq!(
            fused,
            vec![TapeOp::CopyOrAndNot {
                dst: 0,
                a: 1,
                b: 2,
                c: 3
            }]
        );
    }
}
