//! Wide inputs on pool threads: a flat chain of thousands of sequential
//! loops makes every bounded execution path tens of thousands of nodes
//! long, which a recursive path enumeration cannot fit on a worker
//! thread's stack.

use gnt_analyze::driver::LintOptions;
use gnt_analyze::{lint_batch_on, Source};
use gnt_dataflow::WorkerPool;

/// `loops` sequential `do` loops, each writing `y` and reading `x`
/// through `a`: 4 statements per loop, nesting depth 1.
fn flat_chain(loops: usize) -> String {
    (0..loops)
        .map(|k| format!("do i{k} = 1, N\n  y(i{k}) = ...\n  ... = x(a(i{k}))\nenddo\n"))
        .collect()
}

#[test]
fn two_three_thousand_loop_files_lint_on_a_two_worker_pool() {
    let text = flat_chain(3_000);
    let sources = [
        Source::new("a.minif", text.clone()),
        Source::new("b.minif", text),
    ];
    let outcomes = lint_batch_on(&WorkerPool::new(2), &sources, &LintOptions::default());
    assert_eq!(outcomes.len(), 2);
    for o in &outcomes {
        let result = o
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e:?}", o.name));
        assert!(
            result.diagnostics.is_empty(),
            "{}: {:?}",
            o.name,
            result.diagnostics
        );
    }
}
