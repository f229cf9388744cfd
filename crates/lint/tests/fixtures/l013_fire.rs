//@path crates/orpheus-core/src/query_demo.rs
//! L013 positive: relstore operators built outside `plan::lower`.

use relstore::{BoxExec, Estimate, Filter, SeqScan, Table};

pub fn select<'a>(data: &'a Table, predicate: relstore::Expr) -> BoxExec<'a> {
    // A second plan path: scan and filter built by hand.
    let scan = Box::new(SeqScan::new(data));
    Box::new(Filter::new(scan, predicate))
}

pub fn explain<'a>(plan: BoxExec<'a>) -> BoxExec<'a> {
    // Instrumenting outside the lowering fires too.
    relstore::wrap(plan, "Filter", Estimate::new(1.0, 0.0), vec![]).0
}
