//! Perf-trajectory harness: measures the solver data plane and writes a
//! machine-readable `BENCH_solver.json` at the repo root, so each commit
//! can be compared against the last.
//!
//! Records:
//! * `solve/16items` — the EXP-C1 protocol (end-to-end [`solve`] at
//!   universe 16, sequential) at several program sizes;
//! * `solve_into/16items` — the zero-allocation scratch-reuse path at the
//!   same sizes;
//! * `solve_batch/16items` — the schedule-tape replay
//!   ([`gnt_core::solve_batch`], cached tape + reused output buffer) at
//!   the same sizes;
//! * `pressure_resolve/full` and `pressure_resolve/delta` — one
//!   pressure-loop round (toggle a `STEAL_init` bit, re-solve) served by
//!   a full tape replay vs the incremental delta engine
//!   ([`gnt_core::solve_delta`], the EXP-C4 protocol);
//! * `delta_1row/16items` — a single `TAKE_init` bit toggled and
//!   re-solved incrementally, the engine's best case;
//! * `solve/256items` and `solve_batch/256items` — a 4-word universe
//!   solved by the interpreter and by cached-tape replay (the EXP-C2
//!   protocol);
//! * `solve/2048items` — a 32-word universe on the same graph;
//! * `pipeline/ns_per_node` — one complete lint pipeline run (parse →
//!   CFG/intervals → analyze → solve → generate → lint) over a sized
//!   program, warm scratch pool;
//! * `frontend/ns_per_node` — parse plus CFG/interval construction only,
//!   the slice the interning/arena/scratch-pool work targets;
//! * `lint_batch/1threads` and `lint_batch/8threads` — the EXP-C5
//!   protocol: a corpus of generated programs linted end to end via
//!   [`gnt_analyze::lint_batch_on`] on fixed-size worker pools,
//!   normalized to total CFG nodes (items is 0 for pipeline rows: the
//!   work unit is the program, not the set-universe item);
//! * `lint_batch_warm/1threads` — the same corpus served out of a warm
//!   [`gnt_analyze::PipelineCache`]: fingerprint, text-equality guard,
//!   and `Arc` clone per program instead of a pipeline run.
//!
//! ```sh
//! cargo run -p gnt-bench --release --bin bench_json \
//!     [-- --smoke] [--json path] [--check baseline.json] [--tolerance PCT]
//! ```
//!
//! `--smoke` shrinks the sizes for CI; the default output path is
//! `BENCH_solver.json` in the current directory. With `--check`, every
//! new record matching a baseline record on (bench, nodes, items) must
//! be within `--tolerance` percent (default 30) of the baseline's
//! ns/node, or the process exits 1 — the CI perf gate. Smoke runs gate
//! against the committed `BENCH_solver_smoke.json` (smoke medians use
//! fewer runs and smaller sizes, so full-run baselines would not
//! compare). New records with no baseline row are ignored; a baseline
//! row with no measurement in the run fails the gate, so silently
//! dropping or renaming a benchmark cannot slip through.

use gnt_analyze::driver::{lint_source, LintOptions};
use gnt_analyze::{lint_batch_on, lint_batch_on_cached, PipelineCache, Source};
use gnt_bench::{
    check_against_baseline, json_flag_from_args, median_ns, read_records_json, write_records_json,
    BenchRecord,
};
use gnt_cfg::IntervalGraph;
use gnt_core::{
    random_problem, random_program, sized_program, solve, solve_batch, solve_batch_into,
    solve_delta, solve_into, DeltaSet, GenConfig, Solution, SolverOptions, SolverScratch,
};
use gnt_dataflow::WorkerPool;
use std::path::PathBuf;
use std::process::ExitCode;

/// Flips one `STEAL_init` bit at `node` (item 3), so each call really
/// mutates the row the delta benchmarks mark.
fn toggle_steal(problem: &mut gnt_core::PlacementProblem, node: gnt_cfg::NodeId) {
    let row = &mut problem.steal_init[node.index()];
    if row.contains(3) {
        row.remove(3);
    } else {
        row.insert(3);
    }
}

/// Flips one `TAKE_init` bit at `node` (item 3).
fn toggle_take(problem: &mut gnt_core::PlacementProblem, node: gnt_cfg::NodeId) {
    let row = &mut problem.take_init[node.index()];
    if row.contains(3) {
        row.remove(3);
    } else {
        row.insert(3);
    }
}

/// Value of `--flag <value>` in the process arguments, if present.
fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return Some(
                args.next()
                    .unwrap_or_else(|| panic!("{flag} requires a value")),
            );
        }
    }
    None
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let path = json_flag_from_args().unwrap_or_else(|| PathBuf::from("BENCH_solver.json"));
    let check = flag_value("--check").map(PathBuf::from);
    let tolerance: f64 = flag_value("--tolerance")
        .map(|v| v.parse().expect("--tolerance takes a percentage"))
        .unwrap_or(30.0);
    // Smoke sizes are small enough that a single sample is microseconds;
    // more samples (not bigger sizes) is what keeps the medians inside
    // the CI gate's tolerance on a noisy shared host.
    let (sizes, runs): (&[usize], usize) = if smoke {
        (&[100, 400], 7)
    } else {
        (&[400, 1600, 6400], 5)
    };
    let mut records = Vec::new();

    for &target in sizes {
        let program = sized_program(target);
        let graph = IntervalGraph::from_program(&program).expect("reducible");
        let nodes = graph.num_nodes();
        let problem = random_problem(42, &graph, 16, 0.3);
        let opts = SolverOptions::default();

        let ns = median_ns(runs, || solve(&graph, &problem, &opts));
        records.push(BenchRecord {
            bench: "solve/16items".to_string(),
            nodes,
            items: 16,
            ns_per_node: ns / nodes as f64,
            threads: 1,
        });

        let mut scratch = SolverScratch::new();
        let ns = median_ns(runs, || solve_into(&graph, &problem, &opts, &mut scratch));
        records.push(BenchRecord {
            bench: "solve_into/16items".to_string(),
            nodes,
            items: 16,
            ns_per_node: ns / nodes as f64,
            threads: 1,
        });

        // The schedule-tape replay: compile once (the warm-up call inside
        // median_ns), then every timed call replays the cached tape into
        // the reused output buffer.
        let mut scratch = SolverScratch::new();
        let mut out = Solution::default();
        let ns = median_ns(runs, || {
            solve_batch(&graph, &problem, &opts, &mut scratch, &mut out);
        });
        records.push(BenchRecord {
            bench: "solve_batch/16items".to_string(),
            nodes,
            items: 16,
            ns_per_node: ns / nodes as f64,
            threads: 1,
        });

        // One pressure-loop round — toggle a STEAL_init bit at a mid-
        // program node, re-solve — served two ways over the same warm
        // scratch. `full` replays the whole cached tape (what the loop
        // did before the delta engine); `delta` replays only the dirty
        // cone. The mutation alternates insert/remove so every timed
        // call really changes the row, honoring the delta contract.
        let hot = gnt_cfg::NodeId((nodes / 2) as u32);
        let mut working = problem.clone();
        let mut scratch = SolverScratch::new();
        solve_batch_into(&graph, &working, &opts, &mut scratch);
        let ns = median_ns(runs, || {
            toggle_steal(&mut working, hot);
            solve_batch_into(&graph, &working, &opts, &mut scratch);
        });
        records.push(BenchRecord {
            bench: "pressure_resolve/full".to_string(),
            nodes,
            items: 16,
            ns_per_node: ns / nodes as f64,
            threads: 1,
        });

        let mut working = problem.clone();
        let mut scratch = SolverScratch::new();
        let mut delta = DeltaSet::new();
        solve_batch_into(&graph, &working, &opts, &mut scratch);
        let ns = median_ns(runs, || {
            toggle_steal(&mut working, hot);
            delta.clear();
            delta.mark_steal(hot);
            solve_delta(&graph, &working, &opts, &mut scratch, &delta)
        });
        records.push(BenchRecord {
            bench: "pressure_resolve/delta".to_string(),
            nodes,
            items: 16,
            ns_per_node: ns / nodes as f64,
            threads: 1,
        });

        // The engine's best case: one TAKE_init bit at one node.
        let mut working = problem.clone();
        let mut scratch = SolverScratch::new();
        let mut delta = DeltaSet::new();
        solve_batch_into(&graph, &working, &opts, &mut scratch);
        let ns = median_ns(runs, || {
            toggle_take(&mut working, hot);
            delta.clear();
            delta.mark_take(hot);
            solve_delta(&graph, &working, &opts, &mut scratch, &delta)
        });
        records.push(BenchRecord {
            bench: "delta_1row/16items".to_string(),
            nodes,
            items: 16,
            ns_per_node: ns / nodes as f64,
            threads: 1,
        });
    }

    // Multi-word universe: interpreter vs cached tape on the largest size.
    let target = if smoke { 400 } else { 6400 };
    let program = sized_program(target);
    let graph = IntervalGraph::from_program(&program).expect("reducible");
    let nodes = graph.num_nodes();
    let problem = random_problem(43, &graph, 256, 0.3);
    let seq_opts = SolverOptions::default();
    let ns = median_ns(runs, || solve(&graph, &problem, &seq_opts));
    records.push(BenchRecord {
        bench: "solve/256items".to_string(),
        nodes,
        items: 256,
        ns_per_node: ns / nodes as f64,
        threads: 1,
    });
    let mut scratch = SolverScratch::new();
    let mut out = Solution::default();
    let ns = median_ns(runs, || {
        solve_batch(&graph, &problem, &seq_opts, &mut scratch, &mut out);
    });
    records.push(BenchRecord {
        bench: "solve_batch/256items".to_string(),
        nodes,
        items: 256,
        ns_per_node: ns / nodes as f64,
        threads: 1,
    });

    // A 32-word universe on the same graph.
    let problem = random_problem(44, &graph, 2048, 0.3);
    let ns = median_ns(runs, || solve(&graph, &problem, &seq_opts));
    records.push(BenchRecord {
        bench: "solve/2048items".to_string(),
        nodes,
        items: 2048,
        ns_per_node: ns / nodes as f64,
        threads: 1,
    });

    // End-to-end pipeline cost for a single program: parse → CFG →
    // analyze → solve → generate → lint, scratch checked out of the
    // warm global pool on every call (steady-state service shape).
    let target = if smoke { 200 } else { 800 };
    let lint_opts = LintOptions::default();
    let src = gnt_ir::pretty(&sized_program(target));
    let (_, report) = lint_source(&src, &lint_opts).expect("sized programs lint");
    let nodes = report.plan.analysis.graph.num_nodes();
    let ns = median_ns(runs, || lint_source(&src, &lint_opts).expect("lints"));
    records.push(BenchRecord {
        bench: "pipeline/ns_per_node".to_string(),
        nodes,
        items: 0,
        ns_per_node: ns / nodes as f64,
        threads: 1,
    });

    // Front end alone: parse (interned symbols, zero-copy lexer) plus
    // CFG lowering and interval assembly out of the warm scratch pool.
    // This is the slice the arena/interning/pooling work targets; the
    // pipeline row above includes solver and lint cost on top.
    let ns = median_ns(runs, || {
        let program = gnt_ir::parse(&src).expect("sized programs parse");
        IntervalGraph::from_program(&program).expect("reducible")
    });
    records.push(BenchRecord {
        bench: "frontend/ns_per_node".to_string(),
        nodes,
        items: 0,
        ns_per_node: ns / nodes as f64,
        threads: 1,
    });

    // EXP-C5: batch lint throughput on fixed-size pools. ns/node is
    // normalized to the corpus's total CFG nodes so the 1- and 8-thread
    // rows compare directly; the printed programs/sec is the service-
    // level number. On a single-core host the 8-thread row measures
    // scheduling overhead, not speedup — the baselines record whatever
    // this machine honestly does.
    let corpus = if smoke { 16 } else { 64 };
    let sources: Vec<Source> = (0..corpus)
        .map(|i| {
            let program = random_program(i as u64, &GenConfig::default());
            Source::new(format!("gen{i}.minif"), gnt_ir::pretty(&program))
        })
        .collect();
    let total_nodes: usize = lint_batch_on(&WorkerPool::new(1), &sources, &lint_opts)
        .iter()
        .map(|o| {
            let report = o.result.as_ref().expect("generated programs lint");
            report.plan.analysis.graph.num_nodes()
        })
        .sum();
    for threads in [1usize, 8] {
        let pool = WorkerPool::new(threads);
        let ns = median_ns(runs, || lint_batch_on(&pool, &sources, &lint_opts));
        records.push(BenchRecord {
            bench: format!("lint_batch/{threads}threads"),
            nodes: total_nodes,
            items: 0,
            ns_per_node: ns / total_nodes as f64,
            threads,
        });
        println!(
            "lint_batch/{threads}threads: {corpus} programs in {:.2} ms ({:.1} programs/sec)",
            ns / 1e6,
            corpus as f64 / (ns / 1e9)
        );
    }

    // The warm-cache path: every source already fingerprinted into a
    // dedicated `PipelineCache`, so each timed call is hash + text
    // compare + `Arc` clone per program. The gap between this row and
    // `lint_batch/1threads` is what re-linting an unchanged file costs.
    let cache = PipelineCache::with_capacity(sources.len());
    let pool = WorkerPool::new(1);
    lint_batch_on_cached(&pool, &sources, &lint_opts, Some(&cache));
    // A warm batch is tens of microseconds — far too small for one call
    // per sample to survive scheduler jitter under a ±30% gate — so
    // each sample times a block of batches and reports the mean.
    const WARM_REPS: u32 = 32;
    let ns = median_ns(runs, || {
        for _ in 0..WARM_REPS {
            lint_batch_on_cached(&pool, &sources, &lint_opts, Some(&cache));
        }
    }) / WARM_REPS as f64;
    records.push(BenchRecord {
        bench: "lint_batch_warm/1threads".to_string(),
        nodes: total_nodes,
        items: 0,
        ns_per_node: ns / total_nodes as f64,
        threads: 1,
    });
    println!(
        "lint_batch_warm/1threads: {corpus} programs in {:.3} ms ({:.1} programs/sec)",
        ns / 1e6,
        corpus as f64 / (ns / 1e9)
    );

    for r in &records {
        println!(
            "{:>22} nodes={:<6} threads={} {:>8.1} ns/node",
            r.bench, r.nodes, r.threads, r.ns_per_node
        );
    }
    write_records_json(&path, &records).expect("write json");
    println!("wrote {} records to {}", records.len(), path.display());

    if let Some(baseline_path) = check {
        let baseline = read_records_json(&baseline_path).expect("read baseline");
        let failures = check_against_baseline(&records, &baseline, tolerance);
        for f in &failures {
            eprintln!("PERF REGRESSION: {f}");
        }
        if !failures.is_empty() {
            return ExitCode::FAILURE;
        }
        println!(
            "perf gate passed against {} (\u{b1}{tolerance}%)",
            baseline_path.display()
        );
    }
    ExitCode::SUCCESS
}
