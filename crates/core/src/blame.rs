//! Provenance queries over a solved [`SolverScratch`]: *why* is a bit
//! set, and *why not*.
//!
//! The Figure-13 equations decide every placement, but the solved
//! variables alone do not say which term of which equation put a bit
//! there. [`BlameEngine::why`] recovers that: given a set bit
//! `(variable, node, item)`, it walks the equation graph *backwards* —
//! re-evaluating each equation's right-hand side against the solved
//! arena, picking the first justifying term in kernel order — down to a
//! GIVEN/TAKEN root (`TAKE_init`, `GIVE_init`, `STEAL_init`, or a
//! poisoned header). The dual [`BlameEngine::why_not`] explains a *clear*
//! bit: either no term generates it (the chain recurses into the most
//! informative absent antecedent) or a generating term is killed by a
//! subtrahend conjunct — e.g. the `STEAL(HEADER)` that blocks hoisting a
//! receive out of a loop — in which case the killer's own [`why`] chain
//! is attached as proof.
//!
//! Everything here is query-time recomputation over the existing word
//! kernels' results: single-bit reads of the arena, no forward tracing,
//! no shadow metadata, and the fast data plane is untouched. Because the
//! solver evaluates each `(variable, node)` pair exactly once in a fixed
//! schedule and every equation only reads values computed earlier in
//! that schedule, the backward walk strictly descends the schedule and
//! terminates; [`check_chain`] re-validates every link independently.

use crate::problem::{Flavor, PlacementProblem, SolverOptions};
use crate::scratch::SolverScratch;
use gnt_cfg::{EdgeMask, IntervalGraph, NodeId};
use std::fmt;

/// One Figure-13 variable (placement variables carry their flavor).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Var {
    /// Eq. 1 — `STEAL(n)`.
    Steal,
    /// Eq. 2 — `GIVE(n)`.
    Give,
    /// Eq. 3 — `BLOCK(n)`.
    Block,
    /// Eq. 4 — `TAKEN_out(n)`.
    TakenOut,
    /// Eq. 5 — `TAKE(n)`.
    Take,
    /// Eq. 6 — `TAKEN_in(n)`.
    TakenIn,
    /// Eq. 7 — `BLOCK_loc(n)`.
    BlockLoc,
    /// Eq. 8 — `TAKE_loc(n)`.
    TakeLoc,
    /// Eq. 9 — `GIVE_loc(n)`.
    GiveLoc,
    /// Eq. 10 — `STEAL_loc(n)`.
    StealLoc,
    /// Eq. 11 — `GIVEN_in(n)`.
    GivenIn(Flavor),
    /// Eq. 12 — `GIVEN(n)`.
    Given(Flavor),
    /// Eq. 13 — `GIVEN_out(n)`.
    GivenOut(Flavor),
    /// Eq. 14 — `RES_in(n)`.
    ResIn(Flavor),
    /// Eq. 15 — `RES_out(n)`.
    ResOut(Flavor),
}

impl Var {
    /// The Figure-13 equation defining this variable.
    pub fn equation(self) -> u8 {
        match self {
            Var::Steal => 1,
            Var::Give => 2,
            Var::Block => 3,
            Var::TakenOut => 4,
            Var::Take => 5,
            Var::TakenIn => 6,
            Var::BlockLoc => 7,
            Var::TakeLoc => 8,
            Var::GiveLoc => 9,
            Var::StealLoc => 10,
            Var::GivenIn(_) => 11,
            Var::Given(_) => 12,
            Var::GivenOut(_) => 13,
            Var::ResIn(_) => 14,
            Var::ResOut(_) => 15,
        }
    }

    /// Parses a variable name as used by `gnt-lint --why` — the paper's
    /// spelling, lowercased, with an optional `.eager`/`.lazy` suffix for
    /// the placement variables (default `eager`).
    ///
    /// # Examples
    ///
    /// ```
    /// use gnt_core::{Flavor, Var};
    /// assert_eq!(Var::parse("taken_out"), Some(Var::TakenOut));
    /// assert_eq!(Var::parse("res_in.lazy"), Some(Var::ResIn(Flavor::Lazy)));
    /// assert_eq!(Var::parse("res_in"), Some(Var::ResIn(Flavor::Eager)));
    /// assert_eq!(Var::parse("nonsense"), None);
    /// ```
    pub fn parse(s: &str) -> Option<Var> {
        let (base, flavor) = match s.split_once('.') {
            Some((b, "eager")) => (b, Flavor::Eager),
            Some((b, "lazy")) => (b, Flavor::Lazy),
            Some(_) => return None,
            None => (s, Flavor::Eager),
        };
        Some(match base {
            "steal" => Var::Steal,
            "give" => Var::Give,
            "block" => Var::Block,
            "taken_out" => Var::TakenOut,
            "take" => Var::Take,
            "taken_in" => Var::TakenIn,
            "block_loc" => Var::BlockLoc,
            "take_loc" => Var::TakeLoc,
            "give_loc" => Var::GiveLoc,
            "steal_loc" => Var::StealLoc,
            "given_in" => Var::GivenIn(flavor),
            "given" => Var::Given(flavor),
            "given_out" => Var::GivenOut(flavor),
            "res_in" => Var::ResIn(flavor),
            "res_out" => Var::ResOut(flavor),
            _ => return None,
        })
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let flavored = |f: &mut fmt::Formatter<'_>, name: &str, fl: Flavor| {
            let suffix = match fl {
                Flavor::Eager => "eager",
                Flavor::Lazy => "lazy",
            };
            write!(f, "{name}^{suffix}")
        };
        match *self {
            Var::Steal => f.write_str("STEAL"),
            Var::Give => f.write_str("GIVE"),
            Var::Block => f.write_str("BLOCK"),
            Var::TakenOut => f.write_str("TAKEN_out"),
            Var::Take => f.write_str("TAKE"),
            Var::TakenIn => f.write_str("TAKEN_in"),
            Var::BlockLoc => f.write_str("BLOCK_loc"),
            Var::TakeLoc => f.write_str("TAKE_loc"),
            Var::GiveLoc => f.write_str("GIVE_loc"),
            Var::StealLoc => f.write_str("STEAL_loc"),
            Var::GivenIn(fl) => flavored(f, "GIVEN_in", fl),
            Var::Given(fl) => flavored(f, "GIVEN", fl),
            Var::GivenOut(fl) => flavored(f, "GIVEN_out", fl),
            Var::ResIn(fl) => flavored(f, "RES_in", fl),
            Var::ResOut(fl) => flavored(f, "RES_out", fl),
        }
    }
}

/// A derivation root: the problem input (or poison marker) a chain
/// bottoms out in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Root {
    /// `TAKE_init(n)` contains the item — a statement consumes it here.
    TakeInit,
    /// `GIVE_init(n)` contains the item — produced for free here.
    GiveInit,
    /// `STEAL_init(n)` contains the item — destroyed here.
    StealInit,
    /// The node is a poisoned/no-hoist header: `STEAL = ⊤` by fiat.
    Poisoned,
}

impl fmt::Display for Root {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Root::TakeInit => "TAKE_init (a statement consumes the item here)",
            Root::GiveInit => "GIVE_init (the item is produced for free here)",
            Root::StealInit => "STEAL_init (the item is destroyed here)",
            Root::Poisoned => "poisoned header (hoisting across it is disabled)",
        })
    }
}

/// Why one chain step holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reason {
    /// The step is a derivation root; the chain ends here.
    Root(Root),
    /// The step follows from equation `eq`: the *next* step in the chain
    /// is the justifying antecedent, `what` describes the term.
    Term {
        /// Figure-13 equation number.
        eq: u8,
        /// Human-readable description of the justifying term.
        what: &'static str,
    },
}

/// One link of a [`BlameChain`]: a set bit and how it got set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlameStep {
    /// The variable.
    pub var: Var,
    /// The node.
    pub node: NodeId,
    /// The justification; for [`Reason::Term`] the antecedent is the
    /// following step.
    pub reason: Reason,
}

/// A minimal derivation chain for one set bit, from the queried variable
/// down to a [`Root`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlameChain {
    /// The item the chain derives.
    pub item: usize,
    /// `steps[0]` is the queried bit; the last step carries
    /// [`Reason::Root`].
    pub steps: Vec<BlameStep>,
}

/// Why one step of a [`WhyNot`] chain is clear.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Absence {
    /// A generating term applies but a subtrahend conjunct kills it:
    /// `killer` is set at `at`. The [`WhyNot::blocker`] chain proves it.
    Blocked {
        /// Figure-13 equation number.
        eq: u8,
        /// The conjunct that kills the bit.
        killer: Var,
        /// Where the killer is set.
        at: NodeId,
        /// Human-readable description of the killed term.
        what: &'static str,
    },
    /// A needed positive antecedent is itself clear; the chain recurses
    /// into it (the following step).
    Missing {
        /// Figure-13 equation number.
        eq: u8,
        /// Human-readable description of the absent term.
        what: &'static str,
    },
    /// No term of the equation can generate the bit at all.
    Never {
        /// Figure-13 equation number.
        eq: u8,
        /// Human-readable explanation.
        what: &'static str,
    },
}

/// One link of a [`WhyNot`] chain: a clear bit and why it stays clear.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WhyNotStep {
    /// The variable.
    pub var: Var,
    /// The node.
    pub node: NodeId,
    /// The reason the bit is clear.
    pub absence: Absence,
}

/// The result of a why-not query: a chain of clear bits ending either in
/// [`Absence::Never`] or in [`Absence::Blocked`] — in the latter case
/// [`WhyNot::blocker`] is the killing conjunct's own derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WhyNot {
    /// The item the query asked about.
    pub item: usize,
    /// `steps[0]` is the queried bit; each [`Absence::Missing`] step is
    /// followed by its absent antecedent.
    pub steps: Vec<WhyNotStep>,
    /// When the last step is [`Absence::Blocked`], the why-chain of the
    /// blocking conjunct.
    pub blocker: Option<BlameChain>,
}

impl WhyNot {
    /// The blocking `(conjunct, node)` pair, if the chain ends blocked.
    pub fn blocking_conjunct(&self) -> Option<(Var, NodeId)> {
        match self.steps.last()?.absence {
            Absence::Blocked { killer, at, .. } => Some((killer, at)),
            _ => None,
        }
    }
}

/// Internal single-step derivation outcome.
enum Deriv {
    Root(Root),
    Via {
        eq: u8,
        what: &'static str,
        next: (Var, NodeId),
    },
}

/// Backward provenance queries over one solved scratch.
///
/// The scratch must hold a **full-universe** solve of exactly
/// `(graph, problem, opts)` — e.g. via [`crate::solve_into`]. Queries
/// read single bits of the arena; nothing is copied or re-solved.
///
/// # Examples
///
/// ```
/// use gnt_core::{
///     solve_into, BlameEngine, Flavor, PlacementProblem, Root,
///     SolverOptions, SolverScratch, Var,
/// };
/// use gnt_cfg::IntervalGraph;
///
/// let p = gnt_ir::parse("do i = 1, N\n  ... = x(a(i))\nenddo")?;
/// let g = IntervalGraph::from_program(&p)?;
/// let body = g.nodes().find(|&n| g.level(n) == 2).unwrap();
/// let mut problem = PlacementProblem::new(g.num_nodes(), 1);
/// problem.take(body, 0);
/// let opts = SolverOptions::default();
/// let mut scratch = SolverScratch::new();
/// solve_into(&g, &problem, &opts, &mut scratch);
/// let engine = BlameEngine::new(&g, &problem, &opts, &scratch);
/// // Why is the eager production at ROOT? The chain bottoms out in the
/// // loop body's TAKE_init.
/// let chain = engine.why(Var::ResIn(Flavor::Eager), g.root(), 0).unwrap();
/// let last = chain.steps.last().unwrap();
/// assert_eq!(last.var, Var::Take);
/// assert_eq!(last.node, body);
/// gnt_core::check_chain(&engine, &chain).unwrap();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BlameEngine<'a> {
    graph: &'a IntervalGraph,
    problem: &'a PlacementProblem,
    opts: &'a SolverOptions,
    scratch: &'a SolverScratch,
}

impl<'a> BlameEngine<'a> {
    /// Creates an engine over a solved scratch.
    ///
    /// # Panics
    ///
    /// Panics if the scratch shape does not match `graph`/`problem`
    /// (wrong node count or universe width).
    pub fn new(
        graph: &'a IntervalGraph,
        problem: &'a PlacementProblem,
        opts: &'a SolverOptions,
        scratch: &'a SolverScratch,
    ) -> BlameEngine<'a> {
        assert_eq!(
            scratch.num_nodes(),
            graph.num_nodes(),
            "scratch must hold a solve of this graph"
        );
        assert_eq!(
            scratch.universe_bits(),
            problem.universe_size,
            "scratch must hold a full-universe solve"
        );
        BlameEngine {
            graph,
            problem,
            opts,
            scratch,
        }
    }

    /// The graph the solve ran on.
    pub fn graph(&self) -> &IntervalGraph {
        self.graph
    }

    /// Whether `(var, n)` contains `item` in the solved arena.
    pub fn holds(&self, var: Var, n: NodeId, item: usize) -> bool {
        let s = self.scratch;
        match var {
            Var::Steal => s.steal(n).contains(item),
            Var::Give => s.give(n).contains(item),
            Var::Block => s.block(n).contains(item),
            Var::TakenOut => s.taken_out(n).contains(item),
            Var::Take => s.take(n).contains(item),
            Var::TakenIn => s.taken_in(n).contains(item),
            Var::BlockLoc => s.block_loc(n).contains(item),
            Var::TakeLoc => s.take_loc(n).contains(item),
            Var::GiveLoc => s.give_loc(n).contains(item),
            Var::StealLoc => s.steal_loc(n).contains(item),
            Var::GivenIn(f) => s.given_in(f, n).contains(item),
            Var::Given(f) => s.given(f, n).contains(item),
            Var::GivenOut(f) => s.given_out(f, n).contains(item),
            Var::ResIn(f) => s.res_in(f, n).contains(item),
            Var::ResOut(f) => s.res_out(f, n).contains(item),
        }
    }

    /// Mirrors the solver's poisoning rule (graph poison markers plus the
    /// user's no-hoist options).
    fn poisoned(&self, n: NodeId) -> bool {
        self.graph.is_poisoned(n)
            || self.opts.no_hoist_headers.contains(&n)
            || (self.opts.no_zero_trip_hoist && self.graph.is_loop_header(n))
    }

    /// Eq. 11's predecessor set: FORWARD/JUMP preds plus jump-in sources.
    fn eq11_preds(&self, n: NodeId) -> Vec<NodeId> {
        self.graph
            .preds(n, EdgeMask::FJ)
            .chain(self.graph.jump_in_sources(n).iter().copied())
            .collect()
    }

    /// Derivation chain for the set bit `(var, n, item)`, or `None` if
    /// the bit is clear (ask [`BlameEngine::why_not`] instead).
    pub fn why(&self, var: Var, n: NodeId, item: usize) -> Option<BlameChain> {
        if !self.holds(var, n, item) {
            return None;
        }
        let mut steps = Vec::new();
        let mut cur = (var, n);
        let mut seen = std::collections::HashSet::new();
        loop {
            // The schedule argument guarantees descent; the seen-set is a
            // defensive backstop (a repeat would mean a solver/engine
            // disagreement, surfaced by check_chain in tests).
            if !seen.insert(cur) {
                break;
            }
            match self.derive(cur.0, cur.1, item) {
                Deriv::Root(root) => {
                    steps.push(BlameStep {
                        var: cur.0,
                        node: cur.1,
                        reason: Reason::Root(root),
                    });
                    break;
                }
                Deriv::Via { eq, what, next } => {
                    steps.push(BlameStep {
                        var: cur.0,
                        node: cur.1,
                        reason: Reason::Term { eq, what },
                    });
                    cur = next;
                }
            }
        }
        Some(BlameChain { item, steps })
    }

    /// Picks the first justifying term, in the kernels' evaluation order.
    /// Invariant: `(var, n, item)` holds.
    fn derive(&self, var: Var, n: NodeId, item: usize) -> Deriv {
        let g = self.graph;
        let set = |v: Var, m: NodeId| self.holds(v, m, item);
        match var {
            Var::Steal => {
                if self.poisoned(n) {
                    Deriv::Root(Root::Poisoned)
                } else if self.problem.steal_init[n.index()].contains(item) {
                    Deriv::Root(Root::StealInit)
                } else {
                    let lc = g.last_child(n).expect("STEAL set only via the summary");
                    Deriv::Via {
                        eq: 1,
                        what: "stolen inside the interval (STEAL_loc of the last child)",
                        next: (Var::StealLoc, lc),
                    }
                }
            }
            Var::Give => {
                if self.problem.give_init[n.index()].contains(item) {
                    Deriv::Root(Root::GiveInit)
                } else {
                    let lc = g.last_child(n).expect("GIVE set only via the summary");
                    Deriv::Via {
                        eq: 2,
                        what: "given inside the interval (GIVE_loc of the last child)",
                        next: (Var::GiveLoc, lc),
                    }
                }
            }
            Var::Block => {
                if set(Var::Steal, n) {
                    Deriv::Via {
                        eq: 3,
                        what: "the node steals the item",
                        next: (Var::Steal, n),
                    }
                } else if set(Var::Give, n) {
                    Deriv::Via {
                        eq: 3,
                        what: "the node gives the item",
                        next: (Var::Give, n),
                    }
                } else {
                    let s = g
                        .succs(n, EdgeMask::E)
                        .find(|&s| set(Var::BlockLoc, s))
                        .expect("BLOCK set via some term");
                    Deriv::Via {
                        eq: 3,
                        what: "blocked inside the interval body (BLOCK_loc of the entry)",
                        next: (Var::BlockLoc, s),
                    }
                }
            }
            Var::TakenOut => {
                let s = g
                    .succs(n, EdgeMask::FJS)
                    .next()
                    .expect("TAKEN_out set implies a successor");
                Deriv::Via {
                    eq: 4,
                    what: "consumed on every path leaving the node (first witness shown)",
                    next: (Var::TakenIn, s),
                }
            }
            Var::Take => {
                if self.problem.take_init[n.index()].contains(item) {
                    return Deriv::Root(Root::TakeInit);
                }
                if !set(Var::Steal, n) {
                    if let Some(s) = g.succs(n, EdgeMask::E).find(|&s| set(Var::TakenIn, s)) {
                        return Deriv::Via {
                            eq: 5,
                            what: "consumption hoisted out of the interval body",
                            next: (Var::TakenIn, s),
                        };
                    }
                }
                let s = g
                    .succs(n, EdgeMask::E)
                    .find(|&s| set(Var::TakeLoc, s))
                    .expect("TAKE set via some term");
                Deriv::Via {
                    eq: 5,
                    what: "consumed on all paths out and within the body, unblocked",
                    next: (Var::TakeLoc, s),
                }
            }
            Var::TakenIn => {
                if set(Var::Take, n) {
                    Deriv::Via {
                        eq: 6,
                        what: "the node itself consumes",
                        next: (Var::Take, n),
                    }
                } else {
                    Deriv::Via {
                        eq: 6,
                        what: "consumed on every outgoing path, not blocked here",
                        next: (Var::TakenOut, n),
                    }
                }
            }
            Var::BlockLoc => {
                if set(Var::Block, n) {
                    Deriv::Via {
                        eq: 7,
                        what: "the node blocks the item",
                        next: (Var::Block, n),
                    }
                } else {
                    let s = g
                        .succs(n, EdgeMask::F)
                        .find(|&s| set(Var::BlockLoc, s))
                        .expect("BLOCK_loc set via some term");
                    Deriv::Via {
                        eq: 7,
                        what: "blocked by a later node of the same interval",
                        next: (Var::BlockLoc, s),
                    }
                }
            }
            Var::TakeLoc => {
                if set(Var::Take, n) {
                    Deriv::Via {
                        eq: 8,
                        what: "the node itself consumes",
                        next: (Var::Take, n),
                    }
                } else {
                    let s = g
                        .succs(n, EdgeMask::EF)
                        .find(|&s| set(Var::TakeLoc, s))
                        .expect("TAKE_loc set via some term");
                    Deriv::Via {
                        eq: 8,
                        what: "taken by a later node or the interval body, unblocked",
                        next: (Var::TakeLoc, s),
                    }
                }
            }
            Var::GiveLoc => {
                if set(Var::Give, n) {
                    Deriv::Via {
                        eq: 9,
                        what: "the node gives the item",
                        next: (Var::Give, n),
                    }
                } else if set(Var::Take, n) {
                    Deriv::Via {
                        eq: 9,
                        what: "the node consumes the item (a balanced production ends here)",
                        next: (Var::Take, n),
                    }
                } else {
                    let p = g
                        .preds(n, EdgeMask::FJ)
                        .next()
                        .expect("GIVE_loc set via some term");
                    Deriv::Via {
                        eq: 9,
                        what: "given on every path reaching the node (first witness shown)",
                        next: (Var::GiveLoc, p),
                    }
                }
            }
            Var::StealLoc => {
                if set(Var::Steal, n) {
                    Deriv::Via {
                        eq: 10,
                        what: "the node steals the item",
                        next: (Var::Steal, n),
                    }
                } else if let Some(p) = g
                    .preds(n, EdgeMask::FJ)
                    .find(|&p| set(Var::StealLoc, p) && !set(Var::GiveLoc, p))
                {
                    Deriv::Via {
                        eq: 10,
                        what: "stolen earlier in the interval without resupply",
                        next: (Var::StealLoc, p),
                    }
                } else {
                    let p = g
                        .preds(n, EdgeMask::S)
                        .find(|&p| set(Var::StealLoc, p))
                        .expect("STEAL_loc set via some term");
                    Deriv::Via {
                        eq: 10,
                        what: "stolen on a jump path (synthetic edge)",
                        next: (Var::StealLoc, p),
                    }
                }
            }
            Var::GivenIn(f) => {
                if let Some(h) = g.header_of(n) {
                    if set(Var::Given(f), h) && !set(Var::Steal, h) {
                        return Deriv::Via {
                            eq: 11,
                            what: "inherited from the interval header (survives the body)",
                            next: (Var::Given(f), h),
                        };
                    }
                }
                let preds = self.eq11_preds(n);
                if !preds.is_empty() && preds.iter().all(|&p| set(Var::GivenOut(f), p)) {
                    return Deriv::Via {
                        eq: 11,
                        what: "available on every entering edge (first witness shown)",
                        next: (Var::GivenOut(f), preds[0]),
                    };
                }
                let q = preds
                    .iter()
                    .copied()
                    .find(|&q| set(Var::GivenOut(f), q))
                    .expect("GIVEN_in set via some term");
                Deriv::Via {
                    eq: 11,
                    what: "partially available and consumed ahead (RES_out pads the other paths)",
                    next: (Var::GivenOut(f), q),
                }
            }
            Var::Given(f) => {
                if set(Var::GivenIn(f), n) {
                    Deriv::Via {
                        eq: 12,
                        what: "already available at the node's entry",
                        next: (Var::GivenIn(f), n),
                    }
                } else {
                    let (consumed, what) = match f {
                        Flavor::Eager => (
                            Var::TakenIn,
                            "consumption at or beyond the node pulls the production here",
                        ),
                        Flavor::Lazy => (Var::Take, "consumption at the node itself"),
                    };
                    Deriv::Via {
                        eq: 12,
                        what,
                        next: (consumed, n),
                    }
                }
            }
            Var::GivenOut(f) => {
                if set(Var::Give, n) {
                    Deriv::Via {
                        eq: 13,
                        what: "given at the node, not destroyed",
                        next: (Var::Give, n),
                    }
                } else {
                    Deriv::Via {
                        eq: 13,
                        what: "available at the node, not destroyed",
                        next: (Var::Given(f), n),
                    }
                }
            }
            Var::ResIn(f) => Deriv::Via {
                eq: 14,
                what: "available at the node but not at its entry: production starts here",
                next: (Var::Given(f), n),
            },
            Var::ResOut(f) => {
                let s = g
                    .succs(n, EdgeMask::FJ)
                    .find(|&s| set(Var::GivenIn(f), s))
                    .expect("RES_out set via some successor");
                Deriv::Via {
                    eq: 15,
                    what: "a successor expects availability this exit lacks: pad production",
                    next: (Var::GivenIn(f), s),
                }
            }
        }
    }

    /// Explains the *clear* bit `(var, n, item)`, or `None` if the bit
    /// is actually set (ask [`BlameEngine::why`] instead).
    pub fn why_not(&self, var: Var, n: NodeId, item: usize) -> Option<WhyNot> {
        if self.holds(var, n, item) {
            return None;
        }
        let mut steps = Vec::new();
        let mut blocker = None;
        let mut cur = (var, n);
        let mut seen = std::collections::HashSet::new();
        loop {
            if !seen.insert(cur) {
                break;
            }
            let absence = self.derive_absent(cur.0, cur.1, item);
            let next = match &absence {
                Absence::Missing { .. } => Some(self.missing_next(cur.0, cur.1, item)),
                Absence::Blocked { killer, at, .. } => {
                    blocker = self.why(*killer, *at, item);
                    None
                }
                Absence::Never { .. } => None,
            };
            steps.push(WhyNotStep {
                var: cur.0,
                node: cur.1,
                absence,
            });
            match next {
                Some(next) => cur = next,
                None => break,
            }
        }
        Some(WhyNot {
            item,
            steps,
            blocker,
        })
    }

    /// Why `(var, n, item)` is clear. Invariant: the bit is clear.
    fn derive_absent(&self, var: Var, n: NodeId, item: usize) -> Absence {
        let g = self.graph;
        let set = |v: Var, m: NodeId| self.holds(v, m, item);
        match var {
            Var::Steal => Absence::Never {
                eq: 1,
                what: "STEAL_init is empty here and nothing inside the interval steals",
            },
            Var::Give => Absence::Never {
                eq: 2,
                what: "GIVE_init is empty here and nothing inside the interval gives",
            },
            Var::Block => Absence::Never {
                eq: 3,
                what: "the node neither steals, gives, nor encloses a blocker",
            },
            Var::TakenOut => {
                if g.succs(n, EdgeMask::FJS).next().is_none() {
                    Absence::Never {
                        eq: 4,
                        what: "the node has no FORWARD/JUMP/SYNTHETIC successors",
                    }
                } else {
                    Absence::Missing {
                        eq: 4,
                        what: "some path leaving the node escapes without consuming",
                    }
                }
            }
            Var::Take => {
                if self.poisoned(n) {
                    return Absence::Never {
                        eq: 5,
                        what: "TAKE_init is empty and the header is poisoned: \
                               body consumption may not hoist across it",
                    };
                }
                if g.succs(n, EdgeMask::E).any(|s| set(Var::TakenIn, s)) {
                    // Term 2 fires unless − STEAL(n) kills it.
                    return Absence::Blocked {
                        eq: 5,
                        killer: Var::Steal,
                        at: n,
                        what: "body consumption cannot hoist across a destroyer: − STEAL(n)",
                    };
                }
                if set(Var::TakenOut, n) && g.succs(n, EdgeMask::E).any(|s| set(Var::TakeLoc, s)) {
                    return Absence::Blocked {
                        eq: 5,
                        killer: Var::Block,
                        at: n,
                        what: "guaranteed consumption is stopped at the node: − BLOCK(n)",
                    };
                }
                if g.succs(n, EdgeMask::E).next().is_some() {
                    Absence::Missing {
                        eq: 5,
                        what: "no consumption surfaces in the interval body",
                    }
                } else {
                    Absence::Never {
                        eq: 5,
                        what: "the node does not consume (TAKE_init empty, no interval body)",
                    }
                }
            }
            Var::TakenIn => {
                if set(Var::TakenOut, n) {
                    Absence::Blocked {
                        eq: 6,
                        killer: Var::Block,
                        at: n,
                        what: "consumption beyond the node is blocked here: − BLOCK(n)",
                    }
                } else if g.succs(n, EdgeMask::FJS).next().is_some() {
                    Absence::Missing {
                        eq: 6,
                        what: "the node does not consume and not every outgoing path does",
                    }
                } else {
                    Absence::Missing {
                        eq: 6,
                        what: "the node does not consume",
                    }
                }
            }
            Var::BlockLoc => {
                if set(Var::Block, n) || g.succs(n, EdgeMask::F).any(|s| set(Var::BlockLoc, s)) {
                    Absence::Blocked {
                        eq: 7,
                        killer: Var::Take,
                        at: n,
                        what: "the node's own consumption clears the block: − TAKE(n)",
                    }
                } else {
                    Absence::Never {
                        eq: 7,
                        what: "nothing at or after the node blocks the item",
                    }
                }
            }
            Var::TakeLoc => {
                if g.succs(n, EdgeMask::EF).any(|s| set(Var::TakeLoc, s)) {
                    Absence::Blocked {
                        eq: 8,
                        killer: Var::Block,
                        at: n,
                        what: "later consumption does not reach past this blocker: − BLOCK(n)",
                    }
                } else {
                    Absence::Missing {
                        eq: 8,
                        what: "the node does not consume and nothing later in the interval does",
                    }
                }
            }
            Var::GiveLoc => {
                let preds: Vec<NodeId> = g.preds(n, EdgeMask::FJ).collect();
                if set(Var::Give, n)
                    || set(Var::Take, n)
                    || (!preds.is_empty() && preds.iter().all(|&p| set(Var::GiveLoc, p)))
                {
                    Absence::Blocked {
                        eq: 9,
                        killer: Var::Steal,
                        at: n,
                        what: "production does not survive the node: − STEAL(n)",
                    }
                } else if !preds.is_empty() {
                    Absence::Missing {
                        eq: 9,
                        what: "some path reaching the node lacks an earlier production",
                    }
                } else {
                    Absence::Never {
                        eq: 9,
                        what: "nothing produced at or before the node in this interval",
                    }
                }
            }
            Var::StealLoc => {
                if let Some(p) = g
                    .preds(n, EdgeMask::FJ)
                    .find(|&p| set(Var::StealLoc, p) && set(Var::GiveLoc, p))
                {
                    Absence::Blocked {
                        eq: 10,
                        killer: Var::GiveLoc,
                        at: p,
                        what: "an intervening production resupplies the item: − GIVE_loc(p)",
                    }
                } else {
                    Absence::Never {
                        eq: 10,
                        what: "nothing at or before the node steals the item",
                    }
                }
            }
            Var::GivenIn(f) => {
                if let Some(h) = g.header_of(n) {
                    if set(Var::Given(f), h) {
                        return Absence::Blocked {
                            eq: 11,
                            killer: Var::Steal,
                            at: h,
                            what: "the header's availability does not survive the loop body: \
                                   − STEAL(HEADER(n))",
                        };
                    }
                }
                let preds = self.eq11_preds(n);
                if preds.iter().any(|&q| set(Var::GivenOut(f), q)) {
                    Absence::Missing {
                        eq: 11,
                        what: "only partially available, and the partial-availability term \
                               needs consumption ahead (TAKEN_in)",
                    }
                } else if !preds.is_empty() {
                    Absence::Missing {
                        eq: 11,
                        what: "no entering edge carries availability",
                    }
                } else if g.header_of(n).is_some() {
                    Absence::Missing {
                        eq: 11,
                        what: "the interval header itself has no availability",
                    }
                } else {
                    Absence::Never {
                        eq: 11,
                        what: "the entry node: nothing can be available before it",
                    }
                }
            }
            Var::Given(f) => {
                let what = match f {
                    Flavor::Eager => {
                        "not available at entry and no consumption at or beyond the node"
                    }
                    Flavor::Lazy => "not available at entry and the node does not consume",
                };
                Absence::Missing { eq: 12, what }
            }
            Var::GivenOut(f) => {
                if set(Var::Give, n) || set(Var::Given(f), n) {
                    Absence::Blocked {
                        eq: 13,
                        killer: Var::Steal,
                        at: n,
                        what: "availability is destroyed at the node: − STEAL(n)",
                    }
                } else {
                    Absence::Missing {
                        eq: 13,
                        what: "nothing available at the node to carry out",
                    }
                }
            }
            Var::ResIn(f) => {
                if set(Var::Given(f), n) {
                    Absence::Blocked {
                        eq: 14,
                        killer: Var::GivenIn(f),
                        at: n,
                        what: "already available at entry: no production needs to start here",
                    }
                } else {
                    Absence::Missing {
                        eq: 14,
                        what: "the item is not available at the node at all",
                    }
                }
            }
            Var::ResOut(f) => {
                if g.succs(n, EdgeMask::FJ).any(|s| set(Var::GivenIn(f), s)) {
                    Absence::Blocked {
                        eq: 15,
                        killer: Var::GivenOut(f),
                        at: n,
                        what: "the exit already carries availability: no pad needed",
                    }
                } else if g.succs(n, EdgeMask::FJ).next().is_some() {
                    Absence::Missing {
                        eq: 15,
                        what: "no successor expects the item to be available",
                    }
                } else {
                    Absence::Never {
                        eq: 15,
                        what: "the node has no FORWARD/JUMP successors",
                    }
                }
            }
        }
    }

    /// The antecedent an [`Absence::Missing`] step recurses into.
    fn missing_next(&self, var: Var, n: NodeId, item: usize) -> (Var, NodeId) {
        let g = self.graph;
        let set = |v: Var, m: NodeId| self.holds(v, m, item);
        match var {
            Var::TakenOut => {
                let s = g
                    .succs(n, EdgeMask::FJS)
                    .find(|&s| !set(Var::TakenIn, s))
                    .expect("some operand of the intersection is clear");
                (Var::TakenIn, s)
            }
            Var::Take => {
                let s = g
                    .succs(n, EdgeMask::E)
                    .next()
                    .expect("Missing only with a body");
                (Var::TakenIn, s)
            }
            Var::TakenIn => {
                if g.succs(n, EdgeMask::FJS).next().is_some() {
                    (Var::TakenOut, n)
                } else {
                    (Var::Take, n)
                }
            }
            Var::TakeLoc => (Var::Take, n),
            Var::GiveLoc => {
                let p = g
                    .preds(n, EdgeMask::FJ)
                    .find(|&p| !set(Var::GiveLoc, p))
                    .expect("some operand of the intersection is clear");
                (Var::GiveLoc, p)
            }
            Var::GivenIn(f) => {
                let preds = self.eq11_preds(n);
                if preds.iter().any(|&q| set(Var::GivenOut(f), q)) {
                    (Var::TakenIn, n)
                } else if let Some(&p) = preds.first() {
                    (Var::GivenOut(f), p)
                } else {
                    let h = g.header_of(n).expect("Missing only with a header");
                    (Var::Given(f), h)
                }
            }
            Var::Given(f) => match f {
                Flavor::Eager => (Var::TakenIn, n),
                Flavor::Lazy => (Var::Take, n),
            },
            Var::GivenOut(f) => (Var::Given(f), n),
            Var::ResIn(f) => (Var::Given(f), n),
            Var::ResOut(f) => {
                let s = g
                    .succs(n, EdgeMask::FJ)
                    .next()
                    .expect("Missing only with successors");
                (Var::GivenIn(f), s)
            }
            // The remaining variables never produce `Missing`.
            _ => unreachable!("no Missing recursion for {var}"),
        }
    }
}

/// Independently re-validates every link of `chain` against the solved
/// arena: each step's bit must be set, each [`Reason::Term`] must be a
/// true application of the step's defining equation (antecedent related
/// to the node as the equation demands, guards satisfied), and each
/// [`Reason::Root`] must be backed by the problem's init sets.
///
/// This does **not** reuse the engine's term-selection logic — it
/// re-derives the structural relation and guard conditions from the
/// graph, the problem, and the arena directly, so a bug in the chain
/// builder cannot hide behind itself.
///
/// # Errors
///
/// Returns a description of the first invalid link.
pub fn check_chain(engine: &BlameEngine<'_>, chain: &BlameChain) -> Result<(), String> {
    let g = engine.graph;
    let item = chain.item;
    let fail = |k: usize, msg: String| -> Result<(), String> { Err(format!("step {k}: {msg}")) };
    if chain.steps.is_empty() {
        return Err("empty chain".to_string());
    }
    for (k, step) in chain.steps.iter().enumerate() {
        if !engine.holds(step.var, step.node, item) {
            fail(
                k,
                format!("{}({}) does not hold for item {item}", step.var, step.node),
            )?;
        }
        let next = chain.steps.get(k + 1);
        match (&step.reason, next) {
            (Reason::Root(root), None) => {
                let ni = step.node.index();
                let ok = match root {
                    Root::TakeInit => {
                        step.var == Var::Take && engine.problem.take_init[ni].contains(item)
                    }
                    Root::GiveInit => {
                        step.var == Var::Give && engine.problem.give_init[ni].contains(item)
                    }
                    Root::StealInit => {
                        step.var == Var::Steal && engine.problem.steal_init[ni].contains(item)
                    }
                    Root::Poisoned => step.var == Var::Steal && engine.poisoned(step.node),
                };
                if !ok {
                    fail(k, format!("root {root:?} not backed by the problem"))?;
                }
            }
            (Reason::Root(_), Some(_)) => fail(k, "root step is not last".to_string())?,
            (Reason::Term { .. }, None) => fail(k, "non-root step is last".to_string())?,
            (Reason::Term { eq, .. }, Some(ante)) => {
                if *eq != step.var.equation() {
                    fail(
                        k,
                        format!("Eq. {eq} does not define {} (its consequent)", step.var),
                    )?;
                }
                if !engine.holds(ante.var, ante.node, item) {
                    fail(k, format!("antecedent {}({}) clear", ante.var, ante.node))?;
                }
                check_link(engine, step, ante, item).map_err(|msg| format!("step {k}: {msg}"))?;
            }
        }
    }
    let _ = g; // used by check_link via engine
    Ok(())
}

/// Validates one `consequent ← antecedent` link as a true equation
/// application. The antecedent's membership has already been checked.
fn check_link(
    engine: &BlameEngine<'_>,
    step: &BlameStep,
    ante: &BlameStep,
    item: usize,
) -> Result<(), String> {
    let g = engine.graph;
    let n = step.node;
    let set = |v: Var, m: NodeId| engine.holds(v, m, item);
    let is_succ = |mask: EdgeMask| g.succs(n, mask).any(|s| s == ante.node);
    let is_pred = |mask: EdgeMask| g.preds(n, mask).any(|p| p == ante.node);
    let ok = match (step.var, ante.var) {
        // Eq. 1/2: the interval summary via LASTCHILD.
        (Var::Steal, Var::StealLoc) | (Var::Give, Var::GiveLoc) => {
            g.last_child(n) == Some(ante.node)
        }
        // Eq. 3: BLOCK = STEAL ∪ GIVE ∪ ⋃_E BLOCK_loc.
        (Var::Block, Var::Steal) | (Var::Block, Var::Give) => ante.node == n,
        (Var::Block, Var::BlockLoc) => is_succ(EdgeMask::E),
        // Eq. 4: TAKEN_out = ∩_FJS TAKEN_in — every operand must hold.
        (Var::TakenOut, Var::TakenIn) => {
            is_succ(EdgeMask::FJS) && g.succs(n, EdgeMask::FJS).all(|s| set(Var::TakenIn, s))
        }
        // Eq. 5 term 2: (⋃_E TAKEN_in) − STEAL, not poisoned.
        (Var::Take, Var::TakenIn) => {
            is_succ(EdgeMask::E) && !set(Var::Steal, n) && !engine.poisoned(n)
        }
        // Eq. 5 term 3: (TAKEN_out ∩ ⋃_E TAKE_loc) − BLOCK, not poisoned.
        (Var::Take, Var::TakeLoc) => {
            is_succ(EdgeMask::E)
                && set(Var::TakenOut, n)
                && !set(Var::Block, n)
                && !engine.poisoned(n)
        }
        // Eq. 6: TAKE ∪ (TAKEN_out − BLOCK).
        (Var::TakenIn, Var::Take) => ante.node == n,
        (Var::TakenIn, Var::TakenOut) => ante.node == n && !set(Var::Block, n),
        // Eq. 7: (BLOCK ∪ ⋃_F BLOCK_loc) − TAKE.
        (Var::BlockLoc, Var::Block) => ante.node == n && !set(Var::Take, n),
        (Var::BlockLoc, Var::BlockLoc) => is_succ(EdgeMask::F) && !set(Var::Take, n),
        // Eq. 8: TAKE ∪ (⋃_EF TAKE_loc − BLOCK).
        (Var::TakeLoc, Var::Take) => ante.node == n,
        (Var::TakeLoc, Var::TakeLoc) => is_succ(EdgeMask::EF) && !set(Var::Block, n),
        // Eq. 9: (GIVE ∪ TAKE ∪ ∩_FJ GIVE_loc) − STEAL.
        (Var::GiveLoc, Var::Give) | (Var::GiveLoc, Var::Take) => {
            ante.node == n && !set(Var::Steal, n)
        }
        (Var::GiveLoc, Var::GiveLoc) => {
            is_pred(EdgeMask::FJ)
                && !set(Var::Steal, n)
                && g.preds(n, EdgeMask::FJ).all(|p| set(Var::GiveLoc, p))
        }
        // Eq. 10: STEAL ∪ ⋃_FJ (STEAL_loc − GIVE_loc) ∪ ⋃_S STEAL_loc.
        (Var::StealLoc, Var::Steal) => ante.node == n,
        (Var::StealLoc, Var::StealLoc) => {
            (is_pred(EdgeMask::FJ) && !set(Var::GiveLoc, ante.node)) || is_pred(EdgeMask::S)
        }
        // Eq. 11, header term: (GIVEN(HEADER) − STEAL(HEADER)).
        (Var::GivenIn(f), Var::Given(f2)) => {
            f == f2 && g.header_of(n) == Some(ante.node) && !set(Var::Steal, ante.node)
        }
        // Eq. 11, edge terms: the must-intersection over all entering
        // edges, or the partial term guarded by TAKEN_in(n).
        (Var::GivenIn(f), Var::GivenOut(f2)) => {
            let preds = engine.eq11_preds(n);
            f == f2
                && preds.contains(&ante.node)
                && (preds.iter().all(|&p| set(Var::GivenOut(f), p)) || set(Var::TakenIn, n))
        }
        // Eq. 12: GIVEN_in ∪ consumed (TAKEN_in eager / TAKE lazy).
        (Var::Given(f), Var::GivenIn(f2)) => f == f2 && ante.node == n,
        (Var::Given(Flavor::Eager), Var::TakenIn) | (Var::Given(Flavor::Lazy), Var::Take) => {
            ante.node == n
        }
        // Eq. 13: (GIVE ∪ GIVEN) − STEAL.
        (Var::GivenOut(_), Var::Give) => ante.node == n && !set(Var::Steal, n),
        (Var::GivenOut(f), Var::Given(f2)) => f == f2 && ante.node == n && !set(Var::Steal, n),
        // Eq. 14: GIVEN − GIVEN_in.
        (Var::ResIn(f), Var::Given(f2)) => f == f2 && ante.node == n && !set(Var::GivenIn(f), n),
        // Eq. 15: ⋃_FJ GIVEN_in(s) − GIVEN_out.
        (Var::ResOut(f), Var::GivenIn(f2)) => {
            f == f2 && is_succ(EdgeMask::FJ) && !set(Var::GivenOut(f), n)
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}({}) \u{2190} {}({}) is not a valid Eq. {} application",
            step.var,
            n,
            ante.var,
            ante.node,
            step.var.equation()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PlacementProblem;
    use crate::solver::solve_into;
    use gnt_cfg::{IntervalGraph, NodeKind};

    fn setup(src: &str) -> (IntervalGraph, gnt_ir::Program) {
        let p = gnt_ir::parse(src).unwrap();
        let g = IntervalGraph::from_program(&p).unwrap();
        (g, p)
    }

    fn stmt_nodes(g: &IntervalGraph) -> Vec<NodeId> {
        g.nodes()
            .filter(|&n| matches!(g.kind(n), NodeKind::Stmt(_)))
            .collect()
    }

    #[test]
    fn straight_line_chain_roots_in_take_init() {
        let (g, _) = setup("a = 1\n... = x(1)");
        let stmts = stmt_nodes(&g);
        let consumer = stmts[1];
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        problem.take(consumer, 0);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_into(&g, &problem, &opts, &mut scratch);
        let engine = BlameEngine::new(&g, &problem, &opts, &scratch);

        let chain = engine.why(Var::ResIn(Flavor::Eager), g.root(), 0).unwrap();
        let last = chain.steps.last().unwrap();
        assert_eq!(last.reason, Reason::Root(Root::TakeInit));
        assert_eq!(last.node, consumer);
        check_chain(&engine, &chain).unwrap();

        // The lazy production sits at the consumer; its chain is short.
        let chain = engine.why(Var::ResIn(Flavor::Lazy), consumer, 0).unwrap();
        check_chain(&engine, &chain).unwrap();
        assert!(chain.steps.len() >= 3, "{chain:?}");
    }

    #[test]
    fn why_returns_none_for_clear_bits_and_vice_versa() {
        let (g, _) = setup("a = 1\n... = x(1)");
        let consumer = stmt_nodes(&g)[1];
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        problem.take(consumer, 0);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_into(&g, &problem, &opts, &mut scratch);
        let engine = BlameEngine::new(&g, &problem, &opts, &scratch);
        assert!(engine.why(Var::Steal, g.root(), 0).is_none());
        assert!(engine.why_not(Var::Take, consumer, 0).is_none());
    }

    #[test]
    fn hoist_blocked_recv_names_the_steal_conjunct() {
        // Consumption inside a loop that also destroys the item: the
        // receive cannot hoist to the header, and why-not says which
        // conjunct kills it (− STEAL at the header) with a proof chain
        // rooting in the destroyer's STEAL_init.
        let src = "do i = 1, N\n  ... = x(a(i))\n  z = 0\nenddo";
        let (g, _) = setup(src);
        let stmts = stmt_nodes(&g);
        let (consumer, killer) = (stmts[0], stmts[1]);
        let header = g.nodes().find(|&n| g.is_loop_header(n)).unwrap();
        let mut problem = PlacementProblem::new(g.num_nodes(), 1);
        problem.take(consumer, 0).steal(killer, 0);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_into(&g, &problem, &opts, &mut scratch);
        let engine = BlameEngine::new(&g, &problem, &opts, &scratch);

        let wn = engine.why_not(Var::ResIn(Flavor::Lazy), header, 0).unwrap();
        assert_eq!(wn.blocking_conjunct(), Some((Var::Steal, header)), "{wn:?}");
        let blocker = wn.blocker.as_ref().expect("killer chain attached");
        assert_eq!(
            blocker.steps.last().unwrap().reason,
            Reason::Root(Root::StealInit)
        );
        assert_eq!(blocker.steps.last().unwrap().node, killer);
        check_chain(&engine, blocker).unwrap();
    }

    #[test]
    fn every_solved_production_bit_has_a_checkable_chain() {
        // Exhaustive: on a branchy loop program, every set RES bit of
        // both flavors yields a chain that the independent checker
        // accepts, and every clear RES bit yields a why-not.
        let src = "do i = 1, N\n  if t then\n    ... = x(a(i))\n  else\n    y(i) = ...\n  endif\nenddo\n... = x(1)";
        let (g, _) = setup(src);
        let stmts = stmt_nodes(&g);
        let mut problem = PlacementProblem::new(g.num_nodes(), 2);
        problem
            .take(stmts[0], 0)
            .give(stmts[1], 1)
            .take(stmts[2], 1);
        problem.steal(stmts[1], 0);
        let opts = SolverOptions::default();
        let mut scratch = SolverScratch::new();
        solve_into(&g, &problem, &opts, &mut scratch);
        let engine = BlameEngine::new(&g, &problem, &opts, &scratch);
        for n in g.nodes() {
            for item in 0..2 {
                for var in [
                    Var::ResIn(Flavor::Eager),
                    Var::ResOut(Flavor::Eager),
                    Var::ResIn(Flavor::Lazy),
                    Var::ResOut(Flavor::Lazy),
                ] {
                    if let Some(chain) = engine.why(var, n, item) {
                        check_chain(&engine, &chain)
                            .unwrap_or_else(|e| panic!("{var}({n}) item {item}: {e}\n{chain:#?}"));
                    } else {
                        let wn = engine.why_not(var, n, item).expect("clear bit explained");
                        assert!(!wn.steps.is_empty());
                        if let Some(b) = &wn.blocker {
                            check_chain(&engine, b).unwrap();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn var_parse_round_trips_display_names() {
        for (s, v) in [
            ("steal", Var::Steal),
            ("given_in.lazy", Var::GivenIn(Flavor::Lazy)),
            ("res_out.eager", Var::ResOut(Flavor::Eager)),
        ] {
            assert_eq!(Var::parse(s), Some(v));
        }
        assert_eq!(Var::parse("res_in.weird"), None);
    }
}
