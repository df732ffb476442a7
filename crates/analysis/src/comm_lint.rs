//! Communication-plan lints: dead and redundant transfers, and the
//! static race/deadlock detector over `gnt-comm` output.
//!
//! The detector replays a [`CommPlan`]'s before/after operation slots
//! along bounded execution paths of the interval flow graph, using the
//! same edge-aware firing rules as the `gnt-core` verifiers (a loop
//! header's before-slot runs once, on entry from outside the loop; its
//! after-slot runs when leaving along a FORWARD/JUMP exit edge). Each
//! `Send` opens a per-item *in-flight window* that the matching `Recv`
//! closes:
//!
//! * a window still open at the end of a path is a **message leak**
//!   (`GNT020`),
//! * a `Recv` with no open window is a **deadlock potential** — the
//!   receive blocks on a message no one sent on this path (`GNT021`),
//! * two concurrently open windows whose section footprints
//!   [`DataRef::may_overlap`] with at least one write-side transfer
//!   involved are a **communication race** (`GNT022`),
//! * a `Send` of data already in flight or still locally available is
//!   **redundant communication** (`GNT012`),
//! * a transfer whose item is never consumed by any statement, or a
//!   send kind with no matching receive kind anywhere in the plan, is
//!   **dead communication** (`GNT011`).

use crate::diag::Diagnostic;
use gnt_cfg::{EdgeClass, NodeId};
use gnt_comm::{CommOp, CommPlan, OpKind};
use gnt_core::{enumerate_paths, path_has_zero_trip, Path};
use gnt_dataflow::ItemId;
use gnt_sections::DataRef;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Which side of the owner/referencer protocol an operation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Family {
    /// Write-backs and reductions (owner receives).
    Write,
    /// Reads (owner sends).
    Read,
}

fn family(kind: OpKind) -> Family {
    match kind {
        OpKind::ReadSend | OpKind::ReadRecv | OpKind::ReadAtomic => Family::Read,
        _ => Family::Write,
    }
}

/// Options for [`lint_plan`].
#[derive(Clone, Debug)]
pub struct CommLintOptions {
    /// Replay read-side operations (`READ_send`/`READ_recv`).
    pub reads: bool,
    /// Replay write-side operations (`WRITE_*`, `REDUCE_*`).
    pub writes: bool,
    /// Also replay zero-trip paths (reporting findings as warnings).
    pub zero_trip: bool,
    /// Path-enumeration bound: maximum visits per edge.
    pub max_edge_visits: usize,
    /// Path-enumeration bound: maximum number of paths.
    pub max_paths: usize,
}

impl Default for CommLintOptions {
    fn default() -> Self {
        CommLintOptions {
            reads: true,
            writes: true,
            zero_trip: false,
            max_edge_visits: 2,
            max_paths: 256,
        }
    }
}

/// Per-path replay state.
struct Replay<'a> {
    plan: &'a CommPlan,
    opts: &'a CommLintOptions,
    /// Open in-flight windows: (item, family) → node that sent.
    open: BTreeMap<(ItemId, Family), NodeId>,
    /// Items whose read transfer completed and is still valid.
    avail: HashSet<ItemId>,
    /// Findings of the current path, deduplicated across paths later.
    found: Vec<(Diagnostic, u32, u32)>,
}

impl Replay<'_> {
    fn name(&self, item: ItemId) -> String {
        self.plan.analysis.universe.resolve(item).to_string()
    }

    fn section(&self, item: ItemId) -> &DataRef {
        self.plan.analysis.universe.resolve(item)
    }

    fn apply(&mut self, op: CommOp, node: NodeId) {
        let fam = family(op.kind);
        if (fam == Family::Read && !self.opts.reads) || (fam == Family::Write && !self.opts.writes)
        {
            return;
        }
        if op.kind.is_atomic() {
            if fam == Family::Read {
                self.avail.insert(op.item);
            }
            return;
        }
        if op.kind.is_send() {
            if self.open.contains_key(&(op.item, fam)) {
                self.found.push((
                    Diagnostic::warning(
                        "GNT012",
                        format!("{} is re-sent while already in flight", self.name(op.item)),
                    )
                    .at(node)
                    .for_item(op.item.index()),
                    op.item.0,
                    node.0,
                ));
            } else if fam == Family::Read && self.avail.contains(&op.item) {
                self.found.push((
                    Diagnostic::warning(
                        "GNT012",
                        format!(
                            "{} is re-communicated although it is already locally available",
                            self.name(op.item)
                        ),
                    )
                    .at(node)
                    .for_item(op.item.index()),
                    op.item.0,
                    node.0,
                ));
            }
            // Race: this window vs. every other open window with an
            // overlapping footprint, if a write side is involved.
            let sec = self.section(op.item).clone();
            for (&(other, ofam), &onode) in &self.open {
                if other == op.item && ofam == fam {
                    continue;
                }
                if (fam == Family::Write || ofam == Family::Write)
                    && sec.may_overlap(self.section(other))
                {
                    self.found.push((
                        Diagnostic::error(
                            "GNT022",
                            format!(
                                "{} is sent while overlapping {} is still in flight",
                                self.name(op.item),
                                self.name(other)
                            ),
                        )
                        .at(node)
                        .for_item(op.item.index())
                        .note(format!("the conflicting transfer started at node {onode}"))
                        .note("read and write transfers of aliasing sections must not overlap in time"),
                        op.item.0,
                        node.0,
                    ));
                }
            }
            self.open.insert((op.item, fam), node);
        } else {
            // A receive.
            match self.open.remove(&(op.item, fam)) {
                Some(_) => {
                    if fam == Family::Read {
                        self.avail.insert(op.item);
                    }
                }
                None => {
                    self.found.push((
                        Diagnostic::error(
                            "GNT021",
                            format!(
                                "receive of {} is reachable before its send on some path",
                                self.name(op.item)
                            ),
                        )
                        .at(node)
                        .for_item(op.item.index())
                        .note(
                            "the receive blocks forever if the message was never sent (deadlock)",
                        ),
                        op.item.0,
                        node.0,
                    ));
                }
            }
        }
    }
}

/// Lints `plan`: dead/redundant communication plus the send/recv
/// matching and in-flight aliasing checks described in the module docs.
pub fn lint_plan(plan: &CommPlan, opts: &CommLintOptions) -> Vec<Diagnostic> {
    let graph = &plan.analysis.graph;
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut seen: BTreeSet<(&'static str, u32, u32)> = BTreeSet::new();

    // GNT011a: a send kind with no matching receive kind anywhere.
    let mut sends: HashMap<(ItemId, Family), (NodeId, OpKind)> = HashMap::new();
    let mut recvs: HashSet<(ItemId, Family)> = HashSet::new();
    // GNT011b: communicated items never consumed by any statement.
    let mut communicated: BTreeMap<(ItemId, Family), NodeId> = BTreeMap::new();
    for (node, _, op) in plan.ops() {
        let fam = family(op.kind);
        if (fam == Family::Read && !opts.reads) || (fam == Family::Write && !opts.writes) {
            continue;
        }
        if op.kind.is_send() {
            sends.entry((op.item, fam)).or_insert((node, op.kind));
        } else if !op.kind.is_atomic() {
            recvs.insert((op.item, fam));
        }
        communicated.entry((op.item, fam)).or_insert(node);
    }
    for (&(item, fam), &(node, kind)) in &sends {
        if !recvs.contains(&(item, fam)) {
            out.push(
                Diagnostic::error(
                    "GNT011",
                    format!(
                        "{kind}{{{}}} has no matching receive anywhere in the plan",
                        plan.analysis.universe.resolve(item)
                    ),
                )
                .at(node)
                .for_item(item.index()),
            );
            seen.insert(("GNT011", item.0, node.0));
        }
    }
    for (&(item, fam), &node) in &communicated {
        let problem = match fam {
            Family::Read => &plan.analysis.read_problem,
            Family::Write => &plan.analysis.write_problem,
        };
        let consumed =
            (0..problem.num_nodes()).any(|i| problem.take_init[i].contains(item.index()));
        if !consumed && seen.insert(("GNT011", item.0, node.0)) {
            out.push(
                Diagnostic::error(
                    "GNT011",
                    format!(
                        "{} is communicated but no statement consumes it",
                        plan.analysis.universe.resolve(item)
                    ),
                )
                .at(node)
                .for_item(item.index()),
            );
        }
    }

    // Replay the plan along bounded paths. Non-zero-trip paths first so
    // an error shadows the same finding rediscovered on a zero-trip path.
    let (plain, zero_trip): (Vec<Path>, Vec<Path>) =
        enumerate_paths(graph, opts.max_edge_visits, opts.max_paths)
            .into_iter()
            .partition(|p| !path_has_zero_trip(graph, p));
    let tagged = plain.iter().map(|p| (false, p));
    for (zero, path) in tagged.chain(zero_trip.iter().map(|p| (true, p))) {
        if zero && !opts.zero_trip {
            continue;
        }
        let mut replay = Replay {
            plan,
            opts,
            open: BTreeMap::new(),
            avail: HashSet::new(),
            found: Vec::new(),
        };
        for (k, &node) in path.iter().enumerate() {
            let i = node.index();
            let entered_on_cycle =
                k > 0 && graph.edge_class(path[k - 1], node) == Some(EdgeClass::Cycle);
            if !entered_on_cycle {
                for &op in &plan.before[i] {
                    replay.apply(op, node);
                }
            }
            // Statement execution: invalidations (STEAL) expire local
            // availability of overwritten/renormalized sections.
            for item in plan.analysis.read_problem.steal_init[i].iter() {
                replay.avail.remove(&ItemId(item as u32));
            }
            let exits_loop = graph.is_loop_header(node)
                && path.get(k + 1).is_none_or(|&next| {
                    matches!(
                        graph.edge_class(node, next),
                        Some(EdgeClass::Forward | EdgeClass::Jump | EdgeClass::JumpIn)
                    )
                });
            if !graph.is_loop_header(node) || exits_loop {
                for &op in &plan.after[i] {
                    replay.apply(op, node);
                }
            }
        }
        for (&(item, _), &node) in &replay.open {
            replay.found.push((
                Diagnostic::error(
                    "GNT020",
                    format!(
                        "message for {} is sent but never received on some path",
                        replay.name(item)
                    ),
                )
                .at(node)
                .for_item(item.index())
                .note("an unmatched eager send leaks the message buffer"),
                item.0,
                node.0,
            ));
        }
        for (mut d, item, node) in replay.found {
            if zero {
                d.severity = crate::diag::Severity::Warning;
                d.notes.push(
                    "only when a loop runs zero iterations (the paper assumes \u{2265}1 trip, \u{a7}2)"
                        .to_string(),
                );
            }
            if seen.insert((d.code, item, node)) {
                out.push(d);
            }
        }
    }

    out.sort_by_key(|d| (d.code, d.node.map_or(usize::MAX, NodeId::index)));
    out
}
