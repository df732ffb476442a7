//! The `gnt-lint` driver: parse a MiniF program, run the full pipeline
//! (analysis → placement → communication plan), and lint every layer.
//!
//! The driver is what the CLI binary wraps; it is equally usable as a
//! library (see `examples/lint_report.rs` at the workspace root).

use crate::audit::audit_plan;
use crate::comm_lint::{lint_plan, CommLintOptions};
use crate::diag::{attach_spans, Diagnostic, Severity};
use crate::invariants::lint_graph;
use crate::placement::{lint_placement_with_scratch, violation_to_diag, PlacementLintOptions};
use crate::provenance::{chain_trail, why_not_trail};
use gnt_cfg::{node_spans, DotOverlay};
use gnt_comm::{analyze, generate_with_options, CommConfig, CommPlan, GenerateOptions};
use gnt_core::{
    check_balance, check_sufficiency, solve_into, BlameEngine, Flavor, SolverOptions, Var,
};
use gnt_ir::{Program, StmtKind};
use std::fmt;

/// Which communication problems to lint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProblemSelect {
    /// Only the BEFORE (READ) problem.
    Before,
    /// Only the AFTER (WRITE) problem.
    After,
    /// Both (the default).
    #[default]
    Both,
}

/// Output format for the CLI.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutputFormat {
    /// Human-readable rustc-style text.
    #[default]
    Text,
    /// Machine-readable JSON array.
    Json,
    /// SARIF 2.1.0 log (blame trails as `relatedLocations`).
    Sarif,
}

/// Options controlling a lint run.
#[derive(Clone, Debug, Default)]
pub struct LintOptions {
    /// Which communication problems to lint.
    pub select: ProblemSelect,
    /// Diagnostic codes to deny (`"all"` denies everything). Errors
    /// always fail the run; denied warnings fail it too.
    pub deny: Vec<String>,
    /// Distributed arrays; `None` auto-detects every subscripted name.
    pub distributed: Option<Vec<String>>,
    /// Also lint zero-trip executions (reported as warnings).
    pub zero_trip: bool,
}

/// The outcome of linting one program.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// All diagnostics, errors first, in stable order.
    pub diagnostics: Vec<Diagnostic>,
    /// The communication plan the program was linted against.
    pub plan: CommPlan,
}

impl LintReport {
    /// `true` if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of diagnostics failing the run under `deny`.
    pub fn denied(&self, deny: &[String]) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| {
                d.severity == Severity::Error
                    || deny
                        .iter()
                        .any(|c| c == d.code || c.eq_ignore_ascii_case("all"))
            })
            .count()
    }

    /// Process exit code under `deny`: 0 clean, 1 denied findings.
    pub fn exit_code(&self, deny: &[String]) -> i32 {
        i32::from(self.denied(deny) > 0)
    }

    /// A Graphviz overlay marking every diagnostic-carrying node, for
    /// [`gnt_cfg::to_dot`].
    pub fn overlay(&self) -> DotOverlay {
        let mut overlay = DotOverlay::new();
        for d in &self.diagnostics {
            if let Some(n) = d.node {
                overlay.add(n, format!("{}: {}", d.code, d.message));
            }
        }
        overlay
    }
}

/// A failure to lint at all (as opposed to lint findings).
#[derive(Debug)]
pub enum LintError {
    /// The source failed to parse.
    Parse(gnt_ir::ParseError),
    /// The pipeline itself failed (graph construction, plan generation).
    Pipeline(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Parse(e) => write!(f, "parse error: {e}"),
            LintError::Pipeline(e) => write!(f, "analysis error: {e}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Auto-detects distributed arrays: every name used with a subscript
/// anywhere in the program, in first-appearance order.
pub fn detect_distributed(program: &Program) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let mut add = |n: &str| {
        if !names.iter().any(|x| x == n) {
            names.push(n.to_string());
        }
    };
    for (_, stmt) in program.iter() {
        let mut exprs: Vec<&gnt_ir::Expr> = Vec::new();
        match &stmt.kind {
            StmtKind::Assign { lhs, rhs } => {
                if let gnt_ir::LValue::Element(name, idx) = lhs {
                    add(name.as_str());
                    exprs.push(idx);
                }
                exprs.push(rhs);
            }
            StmtKind::Do { lo, hi, .. } => exprs.extend([lo, hi]),
            StmtKind::If { cond, .. } | StmtKind::IfGoto { cond, .. } => exprs.push(cond),
            StmtKind::Goto(_) | StmtKind::Continue => {}
        }
        for e in exprs {
            for (name, _) in e.subscripted_refs() {
                add(name.as_str());
            }
        }
    }
    names
}

/// Attaches a blame trail to a node-and-item-carrying diagnostic: a
/// `because:` chain when the item is available at the finding's node
/// (`GIVEN_in`), a `blocked by:` chain when it is not. Findings that
/// already carry a trail (the audits) are left alone.
fn enrich(d: &mut Diagnostic, engine: &BlameEngine<'_>, item_names: &[String]) {
    if !d.related.is_empty() {
        return;
    }
    let (Some(node), Some(item)) = (d.node, d.item) else {
        return;
    };
    if node.index() >= engine.graph().num_nodes() {
        return;
    }
    let name = item_names
        .get(item)
        .cloned()
        .unwrap_or_else(|| format!("item {item}"));
    let var = Var::GivenIn(Flavor::Eager);
    if let Some(chain) = engine.why(var, node, item) {
        d.related.extend(chain_trail(&chain, &name));
    } else if let Some(wn) = engine.why_not(var, node, item) {
        d.related.extend(why_not_trail(&wn, &name));
    }
}

/// Wall-clock nanoseconds spent in each pipeline stage, produced by
/// [`lint_source_timed`] for `gnt-lint --profile`. "cfg" covers lowering
/// and interval-graph assembly plus the communication analysis that
/// walks them; "generate" holds both placement solves and the one graph
/// reversal; "solve" only the re-solves that back blame trails, so it is
/// zero on a file without findings; "lint" is everything not attributed
/// to another stage (invariant layers, audits, blame queries, span
/// attachment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Source → AST.
    pub parse_ns: u64,
    /// AST → CFG → interval graph → communication analysis.
    pub cfg_ns: u64,
    /// Re-solves behind the blame trails of findings (zero when clean).
    pub solve_ns: u64,
    /// Plan generation: the READ and WRITE solves, the graph reversal
    /// for WRITE, and op emission.
    pub generate_ns: u64,
    /// Lint layers, audits, blame queries, span attachment.
    pub lint_ns: u64,
}

impl StageTimings {
    /// Sum over all stages.
    pub fn total_ns(&self) -> u64 {
        self.parse_ns + self.cfg_ns + self.solve_ns + self.generate_ns + self.lint_ns
    }

    /// One JSON object (no trailing newline), the `--profile` line.
    pub fn to_json(&self, file: &str) -> String {
        format!(
            "{{\"file\":\"{}\",\"parse_ns\":{},\"cfg_ns\":{},\"solve_ns\":{},\
             \"generate_ns\":{},\"lint_ns\":{},\"total_ns\":{}}}",
            crate::diag::json_escape(file),
            self.parse_ns,
            self.cfg_ns,
            self.solve_ns,
            self.generate_ns,
            self.lint_ns,
            self.total_ns(),
        )
    }
}

fn elapsed_ns(from: std::time::Instant) -> u64 {
    u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Lints `program` end to end and returns every finding with source
/// spans attached (when the program was parsed).
///
/// The solver workspace comes from [`gnt_core::ScratchPool::global`], so
/// repeated calls (and the batch front-end, [`crate::batch::lint_batch`])
/// reuse warm arenas instead of allocating.
///
/// # Errors
///
/// Fails only when the pipeline itself cannot run (irreducible control
/// flow, plan generation failure) — lint findings are not errors.
pub fn lint_program(program: &Program, opts: &LintOptions) -> Result<LintReport, LintError> {
    let mut scratch = gnt_core::ScratchPool::global().checkout();
    lint_program_with_scratch(program, opts, &mut scratch)
}

/// [`lint_program`] with a caller-provided solver workspace: one scratch
/// arena backs the whole pipeline — plan generation and the blame
/// re-solves. The batch front-end checks scratches out of a
/// [`gnt_core::ScratchPool`] per worker and calls this.
///
/// # Errors
///
/// Fails only when the pipeline itself cannot run (irreducible control
/// flow, plan generation failure) — lint findings are not errors.
pub fn lint_program_with_scratch(
    program: &Program,
    opts: &LintOptions,
    scratch: &mut gnt_core::SolverScratch,
) -> Result<LintReport, LintError> {
    lint_program_inner(program, opts, scratch, &mut StageTimings::default())
}

/// The pipeline body. Stage boundaries are timed into `timings` (the
/// `Instant` reads cost nanoseconds against millisecond stages, so the
/// untimed entry points share this body rather than duplicating it);
/// `lint_ns` is the run's remainder after the attributed stages.
fn lint_program_inner(
    program: &Program,
    opts: &LintOptions,
    scratch: &mut gnt_core::SolverScratch,
    timings: &mut StageTimings,
) -> Result<LintReport, LintError> {
    let run_start = std::time::Instant::now();
    let distributed = opts
        .distributed
        .clone()
        .unwrap_or_else(|| detect_distributed(program));
    let refs: Vec<&str> = distributed.iter().map(String::as_str).collect();
    let stage = std::time::Instant::now();
    let analysis = analyze(program, &CommConfig::distributed(&refs))
        .map_err(|e| LintError::Pipeline(e.to_string()))?;
    timings.cfg_ns = elapsed_ns(stage);
    let stage = std::time::Instant::now();
    let plan = generate_with_options(analysis, &GenerateOptions::default(), scratch)
        .map_err(|e| LintError::Pipeline(e.to_string()))?;
    timings.generate_ns = elapsed_ns(stage);
    let graph = &plan.analysis.graph;

    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    // Layer 1: structural invariants of both graph orientations. The
    // reversed one is the graph the plan's WRITE problem was solved on.
    diagnostics.extend(lint_graph(graph, false));
    diagnostics.extend(lint_graph(&plan.write.reversed, true));

    let item_names: Vec<String> = plan
        .analysis
        .universe
        .iter()
        .map(|(_, r)| r.to_string())
        .collect();

    // Layer 2: placement criteria of the READ (BEFORE) problem, linted
    // on the shifted solution the plan was emitted from. The optimality
    // comparison (O2/O3) and the GNT03x audits are off: they re-solve
    // READ only to compare the solver's placement with itself, so they
    // are silent by construction here. Library callers linting
    // hand-made placements keep both.
    let solver_opts = SolverOptions::default();
    if opts.select != ProblemSelect::After {
        let read = &plan.analysis.read_problem;
        let popts = PlacementLintOptions {
            zero_trip: opts.zero_trip,
            check_optimality: false,
            item_names: item_names.clone(),
            ..Default::default()
        };
        let mut found = lint_placement_with_scratch(
            graph,
            read,
            &plan.read.eager,
            &plan.read.lazy,
            &popts,
            scratch,
        );
        if !found.is_empty() {
            // Blame reads every Figure-13 variable of the unshifted
            // solve from the arena, so findings pay for one re-solve.
            let stage = std::time::Instant::now();
            solve_into(graph, read, &solver_opts, scratch);
            timings.solve_ns += elapsed_ns(stage);
            let engine = BlameEngine::new(graph, read, &solver_opts, scratch);
            for d in &mut found {
                enrich(d, &engine, &item_names);
            }
        }
        diagnostics.extend(found);
    }

    // The WRITE (AFTER) problem: check the plan's solution as solved
    // (unshifted, on its reversed graph) over the reversed flow like the
    // core verifiers do.
    if opts.select != ProblemSelect::Before {
        let after = &plan.write;
        let mut problem = plan.write_problem.clone();
        problem.resize_nodes(after.reversed.num_nodes());
        let mut found: Vec<Diagnostic> =
            check_sufficiency(&after.reversed, &problem, &after.solution.eager, true)
                .into_iter()
                .chain(check_balance(
                    &after.reversed,
                    &problem,
                    &after.solution.eager,
                    &after.solution.lazy,
                ))
                .map(|v| violation_to_diag(&v, &item_names))
                .collect();
        if !found.is_empty() {
            let stage = std::time::Instant::now();
            solve_into(&after.reversed, &problem, &solver_opts, scratch);
            timings.solve_ns += elapsed_ns(stage);
            let engine = BlameEngine::new(&after.reversed, &problem, &solver_opts, scratch);
            for d in &mut found {
                enrich(d, &engine, &item_names);
            }
        }
        diagnostics.extend(found);
    }

    // Layer 3: the communication plan itself — dead/redundant transfers
    // and the race/deadlock replay.
    let copts = CommLintOptions {
        reads: opts.select != ProblemSelect::After,
        writes: opts.select != ProblemSelect::Before,
        zero_trip: opts.zero_trip,
        ..Default::default()
    };
    diagnostics.extend(lint_plan(&plan, &copts));
    // GNT030: mergeable same-slot transfers (message aggregation, §6).
    diagnostics.extend(audit_plan(&plan, &item_names));

    let spans = node_spans(program, graph);
    attach_spans(&mut diagnostics, &spans);
    diagnostics.sort_by_key(|d| {
        (
            std::cmp::Reverse(d.severity),
            d.code,
            d.node.map_or(usize::MAX, gnt_cfg::NodeId::index),
        )
    });
    timings.lint_ns = elapsed_ns(run_start)
        .saturating_sub(timings.cfg_ns + timings.generate_ns + timings.solve_ns);
    Ok(LintReport { diagnostics, plan })
}

/// Parses `src` and lints it; the convenience entry point used by the
/// CLI and tests.
///
/// # Errors
///
/// Fails on parse errors and pipeline failures (see [`lint_program`]).
pub fn lint_source(src: &str, opts: &LintOptions) -> Result<(Program, LintReport), LintError> {
    let program = gnt_ir::parse(src).map_err(LintError::Parse)?;
    let report = lint_program(&program, opts)?;
    Ok((program, report))
}

/// [`lint_source`] with per-stage wall-clock attribution — the engine
/// behind `gnt-lint --profile`. Always runs the pipeline (no cache), so
/// the timings describe real stage work.
///
/// # Errors
///
/// Fails on parse errors and pipeline failures (see [`lint_program`]).
pub fn lint_source_timed(
    src: &str,
    opts: &LintOptions,
) -> Result<(Program, LintReport, StageTimings), LintError> {
    let mut timings = StageTimings::default();
    let stage = std::time::Instant::now();
    let program = gnt_ir::parse(src).map_err(LintError::Parse)?;
    timings.parse_ns = elapsed_ns(stage);
    let mut scratch = gnt_core::ScratchPool::global().checkout();
    let report = lint_program_inner(&program, opts, &mut scratch, &mut timings)?;
    Ok((program, report, timings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_lint_reads_the_plan_and_solves_nothing_itself() {
        let src = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/fig1.minif"
        ))
        .unwrap();
        let (_, report, timings) = lint_source_timed(&src, &LintOptions::default()).unwrap();
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        // No findings, so no blame re-solve: every solve ran in generate.
        assert_eq!(timings.solve_ns, 0);
        let mut scratch = gnt_core::SolverScratch::new();
        let program = gnt_ir::parse(&src).unwrap();
        lint_program_with_scratch(&program, &LintOptions::default(), &mut scratch).unwrap();
        assert!(
            scratch.cached_tape().is_none(),
            "a lint run compiles no tape"
        );
    }
}
