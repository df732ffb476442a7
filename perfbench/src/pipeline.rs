//! The benchmark's two ways through the pipeline: the public entry points
//! a user calls (`lint_source`, `generate_with_options`), timed whole,
//! and a traced copy of the same work that opens a span around each
//! layer's public call.
//!
//! The traced lint path restates `gnt_analyze::driver`'s pipeline step by
//! step so every layer gets its own span; the benchmark's checks compare
//! its rendered stream with the untraced one byte for byte, so the copy
//! cannot drift from what `gnt-lint` does without failing the run.
//! Calls that the pipeline makes only inside another layer (lowering,
//! dominators, loop forest and interval assembly inside `analyze`; tape
//! compiles and solves inside `generate`) are timed as *probes*: the same
//! public call made once more on the same input, outside the `file` span,
//! so they add to the per-layer table without adding to the file's time.

use crate::trace::Tracer;
use gnt_analyze::audit::{audit_placement, audit_plan, AuditOptions};
use gnt_analyze::comm_lint::{lint_plan, CommLintOptions};
use gnt_analyze::diag::{attach_spans, render_text_into, Diagnostic, Severity};
use gnt_analyze::driver::{detect_distributed, lint_program, LintOptions, LintReport};
use gnt_analyze::invariants::lint_graph;
use gnt_analyze::placement::{
    lint_placement_with_scratch, violation_to_diag, PlacementLintOptions,
};
use gnt_analyze::provenance::{chain_trail, why_not_trail};
use gnt_cfg::{lower, node_spans, reversed_graph, Dominators, IntervalGraph, LoopForest};
use gnt_comm::{analyze, generate_with_options, CommConfig, CommPlan, GenerateOptions};
use gnt_core::{
    check_balance, check_sufficiency, shift_off_synthetic, solve, solve_after_with_scratch,
    solve_batch_with_scratch, solve_with_pressure_limit_in_place, BlameEngine, Flavor,
    ScheduleTape, ScratchPool, SolverOptions, SolverScratch, Var,
};
use gnt_ir::Program;

/// Appends the `gnt-lint` text report of one file to `out`: every
/// diagnostic rendered and followed by a blank line, then the summary
/// line (the CLI's `--format=text` stream).
pub fn render_stream(out: &mut String, report: &LintReport, name: &str, text: &str) {
    render_diagnostics(out, &report.diagnostics, name, text);
    summary_line(out, report, name);
}

fn render_diagnostics(out: &mut String, diagnostics: &[Diagnostic], name: &str, text: &str) {
    for d in diagnostics {
        render_text_into(out, d, name, text);
        out.push('\n');
    }
}

fn summary_line(out: &mut String, report: &LintReport, name: &str) {
    let errors = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if report.diagnostics.is_empty() {
        out.push_str(&format!(
            "{name}: clean ({} communication ops placed)\n",
            report.plan.ops().count()
        ));
    } else {
        out.push_str(&format!(
            "{name}: {errors} error(s), {} warning(s)\n",
            report.diagnostics.len() - errors
        ));
    }
}

/// One file through `gnt_analyze::lint_source`, rendered into `out`.
pub fn lint_file(
    text: &str,
    name: &str,
    opts: &LintOptions,
    out: &mut String,
) -> Result<(Program, LintReport), String> {
    let (program, report) = gnt_analyze::lint_source(text, opts).map_err(|e| e.to_string())?;
    render_stream(out, &report, name, text);
    Ok((program, report))
}

/// One `pressure` verdict: `analyze` plus `generate_with_options` under
/// the in-flight `bound`, on a scratch from the global pool.
pub fn plan_program(program: &Program, bound: Option<usize>) -> Result<CommPlan, String> {
    let analysis = analyze(program, &pressure_config()).map_err(|e| e.to_string())?;
    let mut scratch = ScratchPool::global().checkout();
    generate_with_options(analysis, &generate_options(bound), &mut scratch)
        .map_err(|e| e.to_string())
}

fn pressure_config() -> CommConfig {
    CommConfig::distributed(&crate::workloads::PRESSURE_ARRAYS)
}

fn generate_options(bound: Option<usize>) -> GenerateOptions {
    GenerateOptions {
        max_in_flight: bound,
        ..Default::default()
    }
}

/// FNV-1a over a byte stream: the fingerprint two passes are compared by.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Fingerprint of a plan's operations (node, side, kind, item).
pub fn plan_fingerprint(plan: &CommPlan) -> u64 {
    let listing: String = plan
        .ops()
        .map(|(n, before, op)| format!("{}:{before}:{:?}:{}\n", n.index(), op.kind, op.item))
        .collect();
    fnv(listing.as_bytes())
}

/// Counts the traced lint path gathers besides its spans.
#[derive(Default, Clone, Copy, Debug)]
pub struct TracedCounts {
    /// Diagnostics a blame engine was asked to explain.
    pub findings: usize,
    /// Diagnostics rendered.
    pub diagnostics: usize,
}

/// Attaches a blame trail to a finding, as `gnt_analyze::driver` does: `because:`
/// when the item is available at the node, `blocked by:` when not.
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

/// The traced lint path for file `f`: the steps of `lint_source` (both
/// problems, default options) with one span per layer, rendered into
/// `out`. Spans open under the caller's `file` span.
pub fn lint_file_traced(
    t: &mut Tracer,
    f: usize,
    text: &str,
    name: &str,
    opts: &LintOptions,
    out: &mut String,
    counts: &mut TracedCounts,
) -> Result<(Program, LintReport), String> {
    let program = t
        .span("ir.parse", f, || gnt_ir::parse(text))
        .map_err(|e| format!("parse error: {e}"))?;
    let mut scratch = ScratchPool::global().checkout();
    let analysis = t
        .span("comm.analyze", f, || {
            let distributed = opts
                .distributed
                .clone()
                .unwrap_or_else(|| detect_distributed(&program));
            let refs: Vec<&str> = distributed.iter().map(String::as_str).collect();
            analyze(&program, &CommConfig::distributed(&refs))
        })
        .map_err(|e| format!("analysis error: {e}"))?;
    let plan = t
        .span("comm.generate", f, || {
            generate_with_options(analysis, &GenerateOptions::default(), &mut scratch)
        })
        .map_err(|e| format!("analysis error: {e}"))?;
    let graph = &plan.analysis.graph;
    let mut diagnostics = t.span("analysis.lint_graph", f, || lint_graph(graph, false));
    match t.span("cfg.reverse", f, || reversed_graph(graph)) {
        Ok(rev) => diagnostics.extend(t.span("analysis.lint_graph", f, || lint_graph(&rev, true))),
        Err(e) => diagnostics.push(
            Diagnostic::error("GNT010", format!("the graph cannot be reversed: {e}"))
                .at(graph.root()),
        ),
    }
    let item_names: Vec<String> = plan
        .analysis
        .universe
        .iter()
        .map(|(_, r)| r.to_string())
        .collect();
    let solver_opts = SolverOptions::default();

    // READ (BEFORE) problem.
    let read = &plan.analysis.read_problem;
    let mut sol = t.span("core.solve_batch", f, || {
        solve_batch_with_scratch(graph, read, &solver_opts, &mut scratch)
    });
    t.span("core.shift", f, || {
        shift_off_synthetic(graph, &mut sol.eager);
        shift_off_synthetic(graph, &mut sol.lazy);
    });
    let popts = PlacementLintOptions {
        zero_trip: opts.zero_trip,
        item_names: item_names.clone(),
        ..Default::default()
    };
    let mut found = t.span("analysis.lint_placement", f, || {
        lint_placement_with_scratch(graph, read, &sol.eager, &sol.lazy, &popts, &mut scratch)
    });
    found.extend(t.span("analysis.audit", f, || {
        audit_placement(
            graph,
            read,
            &sol.eager,
            &sol.lazy,
            &AuditOptions {
                item_names: item_names.clone(),
                ..Default::default()
            },
        )
    }));
    counts.findings += found.len();
    t.span("core.blame", f, || {
        let engine = BlameEngine::new(graph, read, &solver_opts, &scratch);
        for d in &mut found {
            enrich(d, &engine, &item_names);
        }
    });
    diagnostics.extend(found);

    // WRITE (AFTER) problem, solved and checked on the reversed graph.
    let write = &plan.analysis.write_problem;
    match t.span("core.solve_after", f, || {
        solve_after_with_scratch(graph, write, &solver_opts, &mut scratch)
    }) {
        Ok(after) => {
            let mut problem = write.clone();
            problem.resize_nodes(after.reversed.num_nodes());
            let mut found: Vec<Diagnostic> = t.span("core.verify", f, || {
                check_sufficiency(&after.reversed, &problem, &after.solution.eager, true)
                    .into_iter()
                    .chain(check_balance(
                        &after.reversed,
                        &problem,
                        &after.solution.eager,
                        &after.solution.lazy,
                    ))
                    .map(|v| violation_to_diag(&v, &item_names))
                    .collect()
            });
            if !found.is_empty() {
                counts.findings += found.len();
                t.span("core.blame", f, || {
                    let engine =
                        BlameEngine::new(&after.reversed, &problem, &solver_opts, &scratch);
                    for d in &mut found {
                        enrich(d, &engine, &item_names);
                    }
                });
            }
            diagnostics.extend(found);
        }
        Err(e) => diagnostics.push(
            Diagnostic::error("GNT010", format!("the WRITE problem cannot be solved: {e}"))
                .at(graph.root()),
        ),
    }

    diagnostics.extend(t.span("analysis.lint_plan", f, || {
        lint_plan(
            &plan,
            &CommLintOptions {
                zero_trip: opts.zero_trip,
                ..Default::default()
            },
        )
    }));
    diagnostics.extend(t.span("analysis.audit", f, || audit_plan(&plan, &item_names)));
    t.span("analysis.attach_spans", f, || {
        attach_spans(&mut diagnostics, &node_spans(&program, graph));
        diagnostics.sort_by_key(|d| {
            (
                std::cmp::Reverse(d.severity),
                d.code,
                d.node.map_or(usize::MAX, gnt_cfg::NodeId::index),
            )
        });
    });
    let report = LintReport { diagnostics, plan };
    counts.diagnostics += report.diagnostics.len();
    t.span("analysis.render", f, || {
        render_diagnostics(out, &report.diagnostics, name, text);
    });
    summary_line(out, &report, name);
    Ok((program, report))
}

/// The traced `pressure` verdict: `analyze` and `generate_with_options`
/// each in a span, under the caller's `file` span.
pub fn plan_program_traced(
    t: &mut Tracer,
    f: usize,
    program: &Program,
    bound: Option<usize>,
) -> Result<CommPlan, String> {
    let analysis = t
        .span("comm.analyze", f, || analyze(program, &pressure_config()))
        .map_err(|e| e.to_string())?;
    let mut scratch = ScratchPool::global().checkout();
    t.span("comm.generate", f, || {
        generate_with_options(analysis, &generate_options(bound), &mut scratch)
    })
    .map_err(|e| e.to_string())
}

/// What the probes learned besides their spans.
#[derive(Default, Clone, Copy, Debug)]
pub struct ProbeCounts {
    /// Pressure re-solve rounds run by the `core.pressure` probe.
    pub pressure_rounds: usize,
}

/// Which probes to run on a file.
#[derive(Clone, Copy, Debug)]
pub struct ProbeSet<'a> {
    /// Source text, re-parsed by an `ir.parse` probe when set.
    pub parse: Option<&'a str>,
    /// Time `reversed_graph` on its own (the lint path already spans it).
    pub reverse: bool,
    /// Pressure bound for a `core.pressure` probe.
    pub pressure: Option<usize>,
    /// Lint options for a whole-file `analysis.lint_program` probe.
    pub lint_program: Option<&'a LintOptions>,
}

/// Runs the layer probes for file `f` (see the module docs) inside the
/// caller's `probe` span. `plan` is the file's verdict, whose graph and
/// problems the solver probes reuse.
pub fn probes(
    t: &mut Tracer,
    f: usize,
    program: &Program,
    plan: &CommPlan,
    set: ProbeSet<'_>,
    counts: &mut ProbeCounts,
) {
    if let Some(text) = set.parse {
        let parsed = t.span("ir.parse", f, || gnt_ir::parse(text));
        std::hint::black_box(parsed.is_ok());
    }
    let Ok(lowered) = t.span("cfg.lower", f, || lower(program)) else {
        return;
    };
    let dom = t.span("cfg.dominators", f, || Dominators::compute(&lowered.cfg));
    let forest = t.span("cfg.loop_forest", f, || {
        LoopForest::compute(&lowered.cfg, &dom)
    });
    std::hint::black_box(forest.is_ok());
    let graph = t.span("cfg.intervals", f, || IntervalGraph::from_cfg(lowered.cfg));
    std::hint::black_box(graph.is_ok());
    let graph = &plan.analysis.graph;
    if set.reverse {
        let rev = t.span("cfg.reverse", f, || reversed_graph(graph));
        std::hint::black_box(rev.is_ok());
    }
    let opts = SolverOptions::default();
    let tape = t.span("core.tape_compile", f, || {
        ScheduleTape::compile(graph, &opts)
    });
    std::hint::black_box(tape.num_ops());
    let read = &plan.analysis.read_problem;
    let sol = t.span("core.solve", f, || solve(graph, read, &opts));
    std::hint::black_box(sol.eager.num_productions());
    let mut fresh = SolverScratch::new();
    let sol = t.span("core.solve_batch.cold", f, || {
        solve_batch_with_scratch(graph, read, &opts, &mut fresh)
    });
    std::hint::black_box(sol.eager.num_productions());
    if let Some(limit) = set.pressure {
        let mut working = read.clone();
        let mut scratch = ScratchPool::global().checkout();
        let max_rounds = GenerateOptions::default().max_pressure_rounds;
        let (_, report) = t.span("core.pressure", f, || {
            solve_with_pressure_limit_in_place(
                graph,
                &mut working,
                &opts,
                limit,
                max_rounds,
                &mut scratch,
            )
        });
        counts.pressure_rounds += report.rounds;
    }
    if let Some(lint_opts) = set.lint_program {
        let report = t.span("analysis.lint_program", f, || {
            lint_program(program, lint_opts)
        });
        std::hint::black_box(report.is_ok());
    }
}
