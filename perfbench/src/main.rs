//! The repository benchmark: drives MiniF source → CFG → intervals →
//! placement → `CommPlan` → `gnt-lint` diagnostics through the public
//! entry points of the workspace crates, on seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus|scaling|pressure --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced copy of the pipeline and reports per-layer
//! metrics, writing the spans to `perfbench/out/` as Chrome trace JSON.
//! Both runs check every output (see `README.md`) and print one JSON
//! result object as the last line of standard output.

mod calibrate;
mod pipeline;
mod stats;
mod trace;
mod workloads;

use calibrate::{Calibrator, Tally};
use gnt_analyze::driver::LintOptions;
use gnt_analyze::{lint_batch, lint_batch_on, PipelineCache, Source};
use gnt_comm::CommPlan;
use gnt_core::{ScheduleTape, ScratchPool, SolverOptions};
use gnt_dataflow::WorkerPool;
use gnt_ir::Program;
use gnt_sim::{simulate, Mode, SimConfig};
use pipeline::{ProbeCounts, ProbeSet, TracedCounts};
use stats::{loglog_slope, median, quantile};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{File, Ladder};

const USAGE: &str = "usage: gnt-perfbench --workload corpus|scaling|pressure \
                     --seed N --seconds S --trace 0|1";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Passes of each kind a run makes at least, time permitting: every
/// verdict is reported at its fastest pass.
const MIN_PASSES: usize = 10;
/// Verdicts per timed chunk of a parallel pass.
const PAR_CHUNK: usize = 8;
/// Spans written to the Chrome trace file.
const TRACE_EVENTS: usize = 200_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Corpus,
    Scaling,
    Pressure,
}

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?.clone();
    let kind = match name.as_str() {
        "corpus" => Kind::Corpus,
        "scaling" => Kind::Scaling,
        "pressure" => Kind::Pressure,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if let Some(k) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Args {
        kind,
        name,
        seed,
        seconds,
        trace,
    })
}

/// One verdict: a file linted end to end, or (`pressure`) one program
/// planned under one in-flight bound.
#[derive(Clone, Copy, Debug)]
struct Job {
    file: usize,
    bound: Option<usize>,
}

/// What one verdict produced.
enum Verdict {
    Lint(Program, gnt_analyze::LintReport),
    Plan(CommPlan),
}

impl Verdict {
    fn plan(&self) -> &CommPlan {
        match self {
            Verdict::Lint(_, r) => &r.plan,
            Verdict::Plan(p) => p,
        }
    }
}

/// A set-up workload: inputs, the parallel pool, and the reference
/// output of every verdict from the warm-up pass.
struct Bench {
    kind: Kind,
    files: Vec<File>,
    /// Parsed `pressure` programs (the lint workloads parse per verdict).
    programs: Vec<Program>,
    sources: Vec<Source>,
    jobs: Vec<Job>,
    /// Verdicts in the order the parallel pass takes them: largest first,
    /// so a pool's schedule does not hinge on where the big files fall.
    par_order: Vec<usize>,
    /// `sources` in `par_order` (the lint workloads).
    par_sources: Vec<Source>,
    pool: WorkerPool,
    opts: LintOptions,
    /// Output fingerprint per verdict, from the warm-up pass.
    reference: Vec<u64>,
    /// CFG nodes per verdict.
    nodes: Vec<usize>,
    /// Communication items (universe size) per verdict.
    items: Vec<usize>,
    /// Verdicts whose output differed from the reference in some pass.
    drifted: Vec<bool>,
    /// Verdicts whose pipeline returned `Err`.
    errored: Vec<bool>,
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl Bench {
    fn setup(kind: Kind, seed: u64) -> Result<Bench, String> {
        let files = match kind {
            Kind::Corpus => workloads::corpus(seed),
            Kind::Scaling => workloads::scaling(seed),
            Kind::Pressure => workloads::pressure(seed),
        };
        let (programs, jobs) = if kind == Kind::Pressure {
            let programs = files
                .iter()
                .map(|f| gnt_ir::parse(&f.text).map_err(|e| format!("{}: {e}", f.name)))
                .collect::<Result<Vec<_>, _>>()?;
            let jobs = (0..files.len())
                .flat_map(|file| {
                    workloads::PRESSURE_BOUNDS
                        .iter()
                        .map(move |&bound| Job { file, bound })
                })
                .collect();
            (programs, jobs)
        } else {
            let jobs = (0..files.len())
                .map(|file| Job { file, bound: None })
                .collect();
            (Vec::new(), jobs)
        };
        let sources = files
            .iter()
            .map(|f| Source::new(f.name.clone(), f.text.clone()))
            .collect();
        let mut bench = Bench {
            kind,
            files,
            programs,
            sources,
            par_order: Vec::new(),
            par_sources: Vec::new(),
            pool: WorkerPool::new(workers()),
            opts: LintOptions::default(),
            reference: Vec::new(),
            nodes: Vec::new(),
            items: Vec::new(),
            drifted: Vec::new(),
            errored: Vec::new(),
            jobs,
        };
        let jobs = bench.jobs.len();
        bench.drifted = vec![false; jobs];
        bench.errored = vec![false; jobs];
        // Warm-up pass: fills the scratch pools and records the reference
        // output every later pass is compared with.
        let mut buf = String::new();
        for j in 0..jobs {
            buf.clear();
            match bench.run(j, &mut buf) {
                Ok(v) => {
                    bench.reference.push(bench.fingerprint(&v, &buf));
                    bench.nodes.push(v.plan().analysis.graph.num_nodes());
                    bench.items.push(v.plan().analysis.universe.len());
                }
                Err(_) => {
                    bench.errored[j] = true;
                    bench.reference.push(0);
                    bench.nodes.push(0);
                    bench.items.push(0);
                }
            }
        }
        let mut order: Vec<usize> = (0..jobs).collect();
        order.sort_by_key(|&j| std::cmp::Reverse(bench.size(j)));
        bench.par_order = order;
        if kind != Kind::Pressure {
            bench.par_sources = bench
                .par_order
                .iter()
                .map(|&j| bench.sources[j].clone())
                .collect();
        }
        Ok(bench)
    }

    fn run(&self, j: usize, buf: &mut String) -> Result<Verdict, String> {
        let job = self.jobs[j];
        let file = &self.files[job.file];
        match self.kind {
            Kind::Pressure => {
                pipeline::plan_program(&self.programs[job.file], job.bound).map(Verdict::Plan)
            }
            _ => pipeline::lint_file(&file.text, &file.name, &self.opts, buf)
                .map(|(p, r)| Verdict::Lint(p, r)),
        }
    }

    fn fingerprint(&self, v: &Verdict, rendered: &str) -> u64 {
        match v {
            Verdict::Lint(..) => pipeline::fnv(rendered.as_bytes()),
            Verdict::Plan(p) => pipeline::plan_fingerprint(p),
        }
    }

    fn compare(&mut self, j: usize, outcome: Result<u64, String>) {
        match outcome {
            Ok(h) if h == self.reference[j] => {}
            Ok(_) => self.drifted[j] = true,
            Err(_) => self.errored[j] = true,
        }
    }

    /// The size a verdict's cost is fitted against and the parallel pass
    /// is ordered by: CFG nodes, or communication items on `pressure`
    /// (whose node counts barely differ).
    fn size(&self, j: usize) -> usize {
        match self.kind {
            Kind::Pressure => self.items[j],
            _ => self.nodes[j],
        }
    }

    fn total_nodes(&self) -> usize {
        self.nodes.iter().sum()
    }

    /// One closed-loop pass on this thread, each verdict followed by
    /// calibration chunks. Pushes each verdict's time and returns the pass
    /// time (their sum), in ns, with the slowdown the chunks measured.
    fn single_pass(&mut self, cal: &mut Calibrator, per_job: &mut [Vec<f64>]) -> (f64, f64) {
        let mut buf = String::new();
        let mut total = 0.0;
        let mut tally = Tally::default();
        for (j, samples) in per_job.iter_mut().enumerate() {
            buf.clear();
            let start = Instant::now();
            let out = self.run(j, &mut buf);
            let ns = start.elapsed().as_nanos() as f64;
            total += ns;
            samples.push(ns);
            let outcome = out.map(|v| self.fingerprint(&v, &buf));
            self.compare(j, outcome);
            cal.run(calibrate::SHARE * ns, &mut tally);
        }
        (total, tally.factor())
    }

    /// The same pass fanned over the `WorkerPool`, in chunks of
    /// `PAR_CHUNK` verdicts of `par_order` timed one by one: `lint_batch_on` over the
    /// chunk's files for the lint workloads, one pool job per verdict for
    /// `pressure`. Pushes each chunk's wall time in ns and returns the
    /// pass time (their sum).
    fn parallel_pass(&mut self, per_chunk: &mut [Vec<f64>]) -> f64 {
        let mut total = 0.0;
        for (c, samples) in per_chunk.iter_mut().enumerate() {
            let range = c * PAR_CHUNK..((c + 1) * PAR_CHUNK).min(self.jobs.len());
            let ns;
            let start = Instant::now();
            // Fingerprinted once the chunk's clock has stopped.
            let fps: Vec<Result<u64, String>> = if self.kind == Kind::Pressure {
                let mut slots: Vec<Option<Result<CommPlan, String>>> =
                    range.clone().map(|_| None).collect();
                let programs = &self.programs;
                self.pool.scope(|s| {
                    for (slot, &j) in slots.iter_mut().zip(&self.par_order[range.clone()]) {
                        let job = self.jobs[j];
                        s.spawn(move || {
                            *slot = Some(pipeline::plan_program(&programs[job.file], job.bound));
                        });
                    }
                });
                ns = start.elapsed().as_nanos() as f64;
                slots
                    .into_iter()
                    .map(|s| {
                        s.expect("every pool job ran")
                            .map(|p| pipeline::plan_fingerprint(&p))
                    })
                    .collect()
            } else {
                let sources = &self.par_sources[range.clone()];
                let streams: Vec<Result<String, String>> =
                    lint_batch_on(&self.pool, sources, &self.opts)
                        .iter()
                        .zip(sources)
                        .map(|(o, s)| match &o.result {
                            Ok(report) => {
                                let mut out = String::new();
                                pipeline::render_stream(&mut out, report, &s.name, &s.text);
                                Ok(out)
                            }
                            Err(e) => Err(e.to_string()),
                        })
                        .collect();
                ns = start.elapsed().as_nanos() as f64;
                streams
                    .into_iter()
                    .map(|s| s.map(|t| pipeline::fnv(t.as_bytes())))
                    .collect()
            };
            total += ns;
            samples.push(ns);
            for (pos, outcome) in range.zip(fps) {
                self.compare(self.par_order[pos], outcome);
            }
        }
        total
    }

    /// Number of `PAR_CHUNK`-verdict chunks of a parallel pass.
    fn chunks(&self) -> usize {
        self.jobs.len().div_ceil(PAR_CHUNK)
    }
}

/// Counters gathered by the traced passes.
#[derive(Default)]
struct TraceRun {
    tracer: Tracer,
    lint: TracedCounts,
    probe: ProbeCounts,
    passes: usize,
    /// Slowdown measured after each traced pass.
    factors: Vec<f64>,
}

impl Bench {
    fn job_name(&self, j: usize) -> String {
        let job = self.jobs[j];
        let name = &self.files[job.file].name;
        match (self.kind, job.bound) {
            (Kind::Pressure, Some(b)) => format!("{name}@{b}"),
            (Kind::Pressure, None) => format!("{name}@none"),
            _ => name.clone(),
        }
    }

    /// One pass through the traced pipeline: a `file` span per verdict
    /// holding one span per layer call, then, once every verdict is done
    /// (so they do not disturb its heap and caches), a `probe` span per
    /// verdict with the standalone layer calls. The whole-file
    /// `analysis.lint_program` probe runs in the first traced pass only.
    fn traced_pass(&mut self, cal: &mut Calibrator, run: &mut TraceRun) {
        let start = Instant::now();
        let t = &mut run.tracer;
        t.pass = run.passes;
        let mut buf = String::new();
        let mut verdicts = Vec::with_capacity(self.jobs.len());
        for j in 0..self.jobs.len() {
            let job = self.jobs[j];
            let file = &self.files[job.file];
            buf.clear();
            t.open("file", j);
            let out = match self.kind {
                Kind::Pressure => {
                    pipeline::plan_program_traced(t, j, &self.programs[job.file], job.bound)
                        .map(Verdict::Plan)
                }
                _ => pipeline::lint_file_traced(
                    t,
                    j,
                    &file.text,
                    &file.name,
                    &self.opts,
                    &mut buf,
                    &mut run.lint,
                )
                .map(|(p, r)| Verdict::Lint(p, r)),
            };
            t.close();
            let outcome = out.as_ref().map(|v| self.fingerprint(v, &buf));
            self.compare(j, outcome.map_err(String::clone));
            verdicts.push(out);
        }
        let pressure = self.kind == Kind::Pressure;
        for (j, out) in verdicts.iter().enumerate() {
            let Ok(v) = out else { continue };
            let job = self.jobs[j];
            let program = match v {
                Verdict::Lint(p, _) => p,
                Verdict::Plan(_) => &self.programs[job.file],
            };
            let once = run.passes == 0 && job.bound.is_none();
            let set = ProbeSet {
                parse: (pressure && job.bound.is_none())
                    .then_some(self.files[job.file].text.as_str()),
                reverse: pressure,
                pressure: job.bound,
                lint_program: once.then_some(&self.opts),
            };
            t.open("probe", j);
            pipeline::probes(t, j, program, v.plan(), set, &mut run.probe);
            t.close();
        }
        run.passes += 1;
        let mut tally = Tally::default();
        cal.run(
            calibrate::SHARE * start.elapsed().as_nanos() as f64,
            &mut tally,
        );
        run.factors.push(tally.factor());
    }
}

/// Untimed output checks over one more pass.
#[derive(Default)]
struct Checks {
    failed_jobs: Vec<String>,
    makespan: f64,
    messages: u64,
    unattributed: u64,
    unattributed_seeds: Vec<String>,
    nodes: usize,
    edges: usize,
    items: usize,
    max_level: usize,
    tape_ops: usize,
    diagnostics: usize,
    comm_ops: usize,
    pressure_rounds: usize,
    golden_failures: Vec<String>,
}

/// Branch streams each plan is simulated under; `sim_makespan` averages
/// over them.
const SIM_STREAMS: u64 = 4;

fn sim_config(stream: u64) -> SimConfig {
    let mut config = SimConfig::with_n(16);
    // The deep ladder's loops run once each, or the nest never finishes.
    config.bindings.insert("L".to_string(), 1);
    config.array_size = 128;
    config.seed += stream;
    config
}

impl Bench {
    fn check(&mut self) -> Checks {
        let mut c = Checks::default();
        let sims: Vec<SimConfig> = (0..SIM_STREAMS).map(sim_config).collect();
        let mut buf = String::new();
        for j in 0..self.jobs.len() {
            let job = self.jobs[j];
            buf.clear();
            let mut why: Vec<&str> = Vec::new();
            match self.run(j, &mut buf) {
                Err(_) => self.errored[j] = true,
                Ok(v) => {
                    if self.fingerprint(&v, &buf) != self.reference[j] {
                        self.drifted[j] = true;
                    }
                    let (program, errors) = match &v {
                        Verdict::Lint(p, r) => (p, r.has_errors()),
                        Verdict::Plan(plan) => {
                            let found = gnt_analyze::lint_plan(plan, &Default::default());
                            let errors = found
                                .iter()
                                .any(|d| d.severity == gnt_analyze::Severity::Error);
                            (&self.programs[job.file], errors)
                        }
                    };
                    if errors {
                        why.push("error diagnostic");
                    }
                    let plan = v.plan();
                    let mut more_messages = false;
                    for (k, sim) in sims.iter().enumerate() {
                        let naive = simulate(program, plan, sim, Mode::Naive);
                        let gnt = simulate(program, plan, sim, Mode::GiveNTake);
                        more_messages |= gnt.messages > naive.messages;
                        c.makespan += gnt.makespan / gnt.compute_time.max(1.0) / SIM_STREAMS as f64;
                        if k > 0 {
                            continue;
                        }
                        c.messages += gnt.messages;
                        c.unattributed += gnt.unattributed_ops;
                        if gnt.unattributed_ops > 0 {
                            let seed = self.files[job.file].seed;
                            c.unattributed_seeds
                                .push(format!("{}(seed {seed:#x})", self.job_name(j)));
                        }
                    }
                    if more_messages {
                        why.push("more messages than naive");
                    }
                    let g = &plan.analysis.graph;
                    c.nodes += g.num_nodes();
                    c.edges += g.num_edges();
                    c.items += plan.analysis.universe.len();
                    c.max_level = c
                        .max_level
                        .max(g.nodes().map(|n| g.level(n)).max().unwrap_or(0));
                    c.tape_ops += ScheduleTape::compile(g, &SolverOptions::default()).num_ops();
                    c.comm_ops += plan.ops().count();
                    c.pressure_rounds += plan.read_pressure.as_ref().map_or(0, |r| r.rounds);
                    if let Verdict::Lint(_, r) = &v {
                        c.diagnostics += r.diagnostics.len();
                    }
                }
            }
            if self.errored[j] {
                why.push("pipeline error");
            }
            if self.drifted[j] {
                why.push("output differs between passes");
            }
            if !why.is_empty() {
                c.failed_jobs
                    .push(format!("{}: {}", self.job_name(j), why.join(", ")));
            }
        }
        c.golden_failures = golden_failures();
        c
    }
}

/// Compares the CLI text stream of the paper's figures with the committed
/// goldens (read only), with and without `--zero-trip`, and returns the
/// figures whose stream differs.
fn golden_failures() -> Vec<String> {
    let mut failures = Vec::new();
    for fig in ["fig1", "fig3", "fig11"] {
        let path = format!("examples/{fig}.minif");
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let matches = [("lint.txt", false), ("zerotrip.txt", true)]
            .into_iter()
            .all(|(suffix, zero_trip)| {
                let golden = format!("crates/analysis/tests/golden/{fig}.{suffix}");
                let opts = LintOptions {
                    zero_trip,
                    ..Default::default()
                };
                let mut out = String::new();
                let linted = pipeline::lint_file(&text, &path, &opts, &mut out).is_ok();
                linted && std::fs::read_to_string(&golden).is_ok_and(|expected| out == expected)
            });
        if !matches {
            failures.push(format!("{path}: stream differs from its goldens"));
        }
    }
    failures
}

/// Peak resident set of this process so far (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Log-log slope of `value(job)` against the size the workload varies:
/// CFG nodes along each scaling ladder (the larger slope of the two when
/// `only` is `None`) and across the `corpus` files; the item count
/// across `pressure` programs, whose node counts barely differ.
fn exponent(bench: &Bench, value: &dyn Fn(usize) -> f64, only: Option<Ladder>) -> f64 {
    let fit = |ladder: Option<Ladder>| {
        let pts: Vec<(f64, f64)> = (0..bench.jobs.len())
            .filter(|&j| bench.files[bench.jobs[j].file].ladder == ladder)
            .map(|j| (bench.size(j) as f64, value(j)))
            .collect();
        loglog_slope(&pts)
    };
    match (bench.kind, only) {
        (Kind::Scaling, Some(l)) => fit(Some(l)),
        (Kind::Scaling, None) => fit(Some(Ladder::Wide)).max(fit(Some(Ladder::Deep))),
        (_, Some(_)) => 0.0,
        (_, None) => fit(None),
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Per-layer metrics from the traced passes.
fn layer_metrics(
    bench: &Bench,
    run: &TraceRun,
    per_job_untraced: &[Vec<f64>],
    single: &[f64],
    par: &[f64],
    checks: &Checks,
    cache: (u64, u64),
) -> Vec<Metric> {
    let t = &run.tracer;
    let spans = t.spans();
    let passes = run.passes.max(1) as f64;
    let mut dur: BTreeMap<&str, f64> = BTreeMap::new();
    let mut ran_on: BTreeMap<&str, HashSet<(usize, usize)>> = BTreeMap::new();
    // Per (layer, verdict): duration per pass, for the ladder fits.
    let mut per_job: BTreeMap<(&str, usize), Vec<f64>> = BTreeMap::new();
    // Per verdict and traced pass: time in the stage spans directly under
    // `file`, and in `file` itself.
    let mut stage = vec![vec![0.0; run.passes]; bench.jobs.len()];
    let mut file = vec![vec![0.0; run.passes]; bench.jobs.len()];
    for s in spans {
        // Per-layer times are calibrated like the end-to-end ones; the
        // shares below compare raw traced and raw untraced times.
        *dur.entry(s.name).or_default() += s.dur as f64 / run.factors[s.pass];
        ran_on.entry(s.name).or_default().insert((s.pass, s.file));
        let v = per_job.entry((s.name, s.file)).or_default();
        v.resize(run.passes.max(s.pass + 1), 0.0);
        v[s.pass] += s.dur as f64;
        match s.parent.map(|p| spans[p].name) {
            Some("file") => stage[s.file][s.pass] += s.dur as f64,
            None if s.name == "file" => file[s.file][s.pass] += s.dur as f64,
            _ => {}
        }
    }
    let d = |name: &str| dur.get(name).copied().unwrap_or(0.0);
    let nodes_of = |name: &str| -> f64 {
        ran_on.get(name).map_or(0.0, |set| {
            set.iter().map(|&(_, j)| bench.nodes[j] as f64).sum()
        })
    };
    let per_node = |name: &str| {
        let n = nodes_of(name);
        if n > 0.0 {
            d(name) / n
        } else {
            0.0
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ladder_exp = |name: &str, ladder: Ladder| {
        let value = |j: usize| per_job.get(&(name, j)).map_or(0.0, |v| median(v));
        exponent(bench, &value, Some(ladder))
    };
    // Shares of the untraced time, summed over verdicts of their medians
    // across passes, so one slow pass does not skew them.
    let untraced: f64 = per_job_untraced.iter().map(|v| median(v)).sum();
    let share = |per_pass: &[Vec<f64>]| ratio(per_pass.iter().map(|v| median(v)).sum(), untraced);
    let layer_share = |names: &[&str]| {
        let per_pass: Vec<Vec<f64>> = (0..bench.jobs.len())
            .map(|j| {
                (0..run.passes)
                    .map(|p| {
                        names
                            .iter()
                            .filter_map(|n| per_job.get(&(*n, j)))
                            .map(|v| v.get(p).copied().unwrap_or(0.0))
                            .sum()
                    })
                    .collect()
            })
            .collect();
        share(&per_pass)
    };
    let analyze_self = d("comm.analyze") - d("cfg.lower") - d("cfg.intervals");
    let speedup = ratio(median(single), median(par));
    let count = |n: usize| n as f64;
    [
        ("ir.parse.ns_per_node", per_node("ir.parse"), "ns/node"),
        ("cfg.lower.ns_per_node", per_node("cfg.lower"), "ns/node"),
        (
            "cfg.dominators.ns_per_node",
            per_node("cfg.dominators"),
            "ns/node",
        ),
        (
            "cfg.loop_forest.ns_per_node",
            per_node("cfg.loop_forest"),
            "ns/node",
        ),
        (
            "cfg.intervals.ns_per_node",
            per_node("cfg.intervals"),
            "ns/node",
        ),
        (
            "cfg.intervals.exponent.wide",
            ladder_exp("cfg.intervals", Ladder::Wide),
            "slope",
        ),
        (
            "cfg.intervals.exponent.deep",
            ladder_exp("cfg.intervals", Ladder::Deep),
            "slope",
        ),
        (
            "cfg.reverse.ns_per_node",
            per_node("cfg.reverse"),
            "ns/node",
        ),
        (
            "cfg.reverse.exponent.wide",
            ladder_exp("cfg.reverse", Ladder::Wide),
            "slope",
        ),
        (
            "cfg.reverse.exponent.deep",
            ladder_exp("cfg.reverse", Ladder::Deep),
            "slope",
        ),
        (
            "comm.analyze.self_ns_per_node",
            ratio(analyze_self, nodes_of("comm.analyze")),
            "ns/node",
        ),
        (
            "comm.generate.ns_per_node",
            per_node("comm.generate"),
            "ns/node",
        ),
        (
            "comm.generate.exponent.wide",
            ladder_exp("comm.generate", Ladder::Wide),
            "slope",
        ),
        (
            "comm.generate.exponent.deep",
            ladder_exp("comm.generate", Ladder::Deep),
            "slope",
        ),
        (
            "core.tape_compile.ns_per_node",
            per_node("core.tape_compile"),
            "ns/node",
        ),
        ("core.solve.ns_per_node", per_node("core.solve"), "ns/node"),
        (
            "core.solve_batch.cold_ns_per_node",
            per_node("core.solve_batch.cold"),
            "ns/node",
        ),
        (
            "core.solve_batch.warm_ns_per_node",
            per_node("core.solve_batch"),
            "ns/node",
        ),
        (
            "core.solve_after.ns_per_node",
            per_node("core.solve_after"),
            "ns/node",
        ),
        (
            "core.pressure.ns_per_round",
            ratio(d("core.pressure"), count(run.probe.pressure_rounds)),
            "ns/round",
        ),
        (
            "core.pressure.rounds",
            count(checks.pressure_rounds),
            "count",
        ),
        (
            "core.blame.ns_per_finding",
            ratio(d("core.blame"), count(run.lint.findings)),
            "ns/finding",
        ),
        (
            "core.blame.findings",
            count(run.lint.findings) / passes,
            "count",
        ),
        ("core.blame.ns_per_node", per_node("core.blame"), "ns/node"),
        (
            "core.verify.ns_per_node",
            per_node("core.verify"),
            "ns/node",
        ),
        (
            "analysis.lint_graph.ns_per_node",
            per_node("analysis.lint_graph"),
            "ns/node",
        ),
        (
            "analysis.lint_placement.ns_per_node",
            per_node("analysis.lint_placement"),
            "ns/node",
        ),
        (
            "analysis.audit.ns_per_node",
            per_node("analysis.audit"),
            "ns/node",
        ),
        (
            "analysis.lint_plan.ns_per_node",
            per_node("analysis.lint_plan"),
            "ns/node",
        ),
        (
            "analysis.render.ns_per_diagnostic",
            ratio(d("analysis.render"), count(run.lint.diagnostics)),
            "ns/diagnostic",
        ),
        (
            "analysis.lint_program.ns_per_node",
            per_node("analysis.lint_program"),
            "ns/node",
        ),
        ("analysis.cache.hits", cache.0 as f64, "count"),
        ("analysis.cache.misses", cache.1 as f64, "count"),
        ("dataflow.pool.speedup", speedup, "ratio"),
        (
            "core.scratch_pool.created",
            count(ScratchPool::global().created()),
            "count",
        ),
        (
            "cfg.scratch_pool.created",
            count(gnt_cfg::CfgScratchPool::global().created()),
            "count",
        ),
        ("sim.messages", checks.messages as f64, "count"),
        ("sim.unattributed_ops", checks.unattributed as f64, "count"),
        ("shape.nodes", count(checks.nodes), "count"),
        ("shape.edges", count(checks.edges), "count"),
        ("shape.items", count(checks.items), "count"),
        ("shape.max_level", count(checks.max_level), "count"),
        ("shape.tape_ops", count(checks.tape_ops), "count"),
        ("shape.diagnostics", count(checks.diagnostics), "count"),
        ("shape.comm_ops", count(checks.comm_ops), "count"),
        ("trace.covered_share", share(&stage), "share"),
        ("trace.overhead_share", share(&file) - 1.0, "share"),
        (
            "split.graph_share",
            layer_share(&["cfg.intervals", "cfg.reverse"]),
            "share",
        ),
        (
            "split.comm_share",
            layer_share(&["comm.analyze", "comm.generate"]),
            "share",
        ),
    ]
    .into_iter()
    .map(|(name, value, unit)| Metric { name, value, unit })
    .collect()
}

fn print_self_time_table(run: &TraceRun, untraced_pass: f64) {
    let t = &run.tracer;
    let passes = run.passes.max(1) as f64;
    println!(
        "per-layer self time over {} traced passes (share of the untraced pass):",
        run.passes
    );
    println!(
        "  {:<34} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "share"
    );
    for (name, (count, total, own)) in t.table() {
        println!(
            "  {:<34} {:>8} {:>12.3} {:>12.3} {:>7.3}",
            name,
            count,
            total as f64 / 1e6,
            own as f64 / 1e6,
            own as f64 / passes / untraced_pass.max(1.0)
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Sets the workload up once, timed, and pushes the time in s divided by
/// the slowdown the calibration kernel measures right after it.
fn timed_setup(args: &Args, cal: &mut Calibrator, setups: &mut Vec<f64>) -> Result<Bench, String> {
    let start = Instant::now();
    let bench = Bench::setup(args.kind, args.seed)?;
    let ns = start.elapsed().as_nanos() as f64;
    let mut tally = Tally::default();
    cal.run(calibrate::SHARE * ns, &mut tally);
    setups.push(ns / tally.factor() / 1e9);
    Ok(bench)
}

/// Runs one benchmark invocation; `Ok(false)` when an output check
/// failed (the result line is still printed).
fn run(args: &Args) -> Result<bool, String> {
    // The goldens double as a check that the benchmark runs from the root
    // of a complete checkout; without them nothing is measured.
    for path in [
        "examples/fig1.minif",
        "crates/analysis/tests/golden/fig1.lint.txt",
    ] {
        if !std::path::Path::new(path).is_file() {
            return Err(format!("{path} not found: run from the repository root"));
        }
    }
    let mut cal = Calibrator::new();
    // Set-up times in s, each divided by the slowdown measured after it.
    // The first set-up is the one measured; the others are spread over the
    // measuring loop, one after each pass, so that no one slow second of
    // the host holds them all.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench = timed_setup(args, &mut cal, &mut setups)?;
    // Read before any parallel pass: with several workers the peak
    // depends on which verdicts happen to overlap, and would not repeat.
    let peak_rss = peak_rss_mb();
    let total_nodes = bench.total_nodes() as f64;
    println!(
        "workload {} seed {}: {} verdicts over {} files, {} CFG nodes, {} workers",
        args.name,
        args.seed,
        bench.jobs.len(),
        bench.files.len(),
        total_nodes,
        workers()
    );

    // Raw per-verdict, per-chunk and per-pass times in ns, and the
    // slowdown measured during each pass (per_job[j][k] belongs to single
    // pass k, per_chunk[c][k] to parallel pass k).
    let mut per_job: Vec<Vec<f64>> = vec![Vec::new(); bench.jobs.len()];
    let mut per_chunk: Vec<Vec<f64>> = vec![Vec::new(); bench.chunks()];
    let (mut single, mut single_factor) = (Vec::new(), Vec::new());
    let (mut par, mut par_factor) = (Vec::new(), Vec::new());
    let mut traced = TraceRun {
        ..Default::default()
    };
    let mut setup_spent = 0.0;
    let start = Instant::now();
    loop {
        let (ns, factor) = bench.single_pass(&mut cal, &mut per_job);
        single.push(ns);
        single_factor.push(factor);
        let ns = bench.parallel_pass(&mut per_chunk);
        let mut tally = Tally::default();
        cal.run(calibrate::SHARE * ns, &mut tally);
        par.push(ns);
        par_factor.push(tally.factor());
        if args.trace {
            bench.traced_pass(&mut cal, &mut traced);
        }
        if setups.len() < SETUPS {
            let at = Instant::now();
            drop(timed_setup(args, &mut cal, &mut setups)?);
            setup_spent += at.elapsed().as_secs_f64();
        }
        // Set-ups do not count against the measuring time.
        let elapsed = start.elapsed().as_secs_f64() - setup_spent;
        let done = elapsed >= args.seconds && single.len() >= MIN_PASSES && setups.len() >= SETUPS;
        if done || elapsed >= 3.0 * args.seconds {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64() - setup_spent;
    let cache = if args.trace && bench.kind != Kind::Pressure {
        // One pass down the CLI's default path (global pool and pipeline
        // cache), for the cache counters.
        for (j, o) in lint_batch(&bench.sources, &bench.opts).iter().enumerate() {
            if o.result.is_err() {
                bench.errored[j] = true;
            }
        }
        let s = PipelineCache::global().stats();
        (s.hits, s.misses)
    } else {
        (0, 0)
    };
    let checks = bench.check();
    let attempted = bench.jobs.len() + 3;
    let failed = checks.failed_jobs.len() + checks.golden_failures.len();
    for f in checks.failed_jobs.iter().chain(&checks.golden_failures) {
        println!("FAILED {f}");
    }
    println!(
        "measured {measured_s:.1} s: {} single passes, {} parallel passes, {} traced passes; \
         {} set-ups ({setup_spent:.1} s in the loop)",
        single.len(),
        par.len(),
        traced.passes,
        setups.len()
    );
    println!(
        "fail_rate {:.4} share ({failed} of {attempted} files; goldens fig1/fig3/fig11 {})",
        failed as f64 / attempted as f64,
        if checks.golden_failures.is_empty() {
            "match"
        } else {
            "DIFFER"
        }
    );
    println!(
        "sim.unattributed_ops {} count (not in fail_rate) in {} verdicts: {}",
        checks.unattributed,
        checks.unattributed_seeds.len(),
        checks.unattributed_seeds.join(" ")
    );

    let metrics = if args.trace {
        print_self_time_table(&traced, median(&single));
        let names: Vec<String> = (0..bench.jobs.len()).map(|j| bench.job_name(j)).collect();
        let tracer = &traced.tracer;
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.name, args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json(&names, TRACE_EVENTS)))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "chrome trace: {} ({} of {} spans)",
            path.display(),
            tracer.spans().len().min(TRACE_EVENTS),
            tracer.spans().len()
        );
        layer_metrics(&bench, &traced, &per_job, &single, &par, &checks, cache)
    } else {
        // Each verdict (and parallel chunk) is timed at its fastest pass:
        // on a shared host neighbours slow single passes by up to 1.7x
        // for a second or so at a time, and contention only ever adds
        // time, so the fastest of many passes repeats where a median does
        // not. The sums are then divided by the run's median slowdown,
        // which follows the slower drifts of the host over minutes.
        let best = |samples: &[f64]| samples.iter().copied().fold(f64::INFINITY, f64::min);
        let single_f = median(&single_factor);
        let par_f = median(&par_factor);
        let job_best: Vec<f64> = per_job.iter().map(|v| best(v) / single_f).collect();
        let single_best: f64 = job_best.iter().sum();
        let par_best: f64 = per_chunk.iter().map(|v| best(v)).sum::<f64>() / par_f;
        println!(
            "percentile samples: {} verdicts, each the fastest of {} passes",
            job_best.len(),
            single.len()
        );
        println!(
            "machine slowdown (calibration): median {single_f:.3} over single passes, \
             {par_f:.3} over parallel passes; uncalibrated ns_per_node {:.1}, \
             par_ns_per_node {:.1} (median passes)",
            median(&single) / total_nodes,
            median(&par) / total_nodes
        );
        let makespan = checks.makespan / bench.jobs.len() as f64;
        [
            ("ns_per_node", single_best / total_nodes, "ns/node"),
            ("file_p50_ms", quantile(&job_best, 0.5) / 1e6, "ms"),
            ("file_p90_ms", quantile(&job_best, 0.9) / 1e6, "ms"),
            (
                "scaling_exponent",
                exponent(&bench, &|j| job_best[j], None),
                "slope",
            ),
            ("par_ns_per_node", par_best / total_nodes, "ns/node"),
            ("sim_makespan", makespan, "ratio"),
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mb", peak_rss, "MiB"),
        ]
        .into_iter()
        .map(|(name, value, unit)| Metric { name, value, unit })
        .collect()
    };
    for m in &metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, m) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            if m.value.is_finite() { m.value } else { 0.0 },
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}
