//@path crates/orpheus-server/src/read_demo.rs
//! L013 negative: queries go through the plan path; operators are built
//! only by tests, and plan variants named like operators are not
//! constructions.

use orpheus_core::plan::{self, LogicalPlan, Source};
use orpheus_core::query::QueryResult;

pub fn read(query: &orpheus_core::query::VQuery, source: &Source) -> orpheus_core::Result<QueryResult> {
    plan::run(query, source, None, &mut relstore::ExecContext::new())
}

pub fn is_filtered(plan: &LogicalPlan) -> bool {
    matches!(plan, LogicalPlan::Filter { .. })
}

pub struct Span;

impl Span {
    /// A method named `wrap` is not `relstore::wrap`.
    pub fn wrap(&self) -> Span {
        Span
    }
}

pub fn nested(s: &Span) -> Span {
    s.wrap()
}

#[cfg(test)]
mod tests {
    use relstore::{collect, ExecContext, Values};

    #[test]
    fn tests_may_build_operators() {
        let mut values = Values::ints("rid", [1, 2]);
        let rows = collect(&mut values, &mut ExecContext::new()).unwrap();
        assert_eq!(rows.len(), 2);
    }
}
