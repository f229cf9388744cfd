//! Property-based tests for the morsel-driven parallel operators: for
//! arbitrary tables — including tables bigger than their buffer pool, so
//! the zero-copy lease waves are forced to run under eviction pressure —
//! the parallel hash join, with and without its fused projection, stays
//! byte-identical to the sequential pipeline at every thread count.

use proptest::prelude::*;
use relstore::{
    collect, BufferPool, Column, DataType, ExecContext, HashJoin, ParHashJoin, Project, Schema,
    SeqScan, Table, Value, Values, WorkerPool,
};
use std::rc::Rc;

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("rid", DataType::Int64),
        Column::new("k", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
}

/// A table over a deliberately tiny pool: with enough rows the heap
/// outgrows the pool, so parallel leases must be granted in waves rather
/// than all at once.
fn tiny_pool_table(rows: &[(i64, u8)], pool_frames: usize, flush: bool) -> Table {
    let pool = Rc::new(BufferPool::in_memory(pool_frames));
    let mut t = Table::with_pool("p", schema(), pool);
    for (i, &(k, pad)) in rows.iter().enumerate() {
        t.insert(vec![
            Value::Int64(i as i64),
            Value::Int64(k),
            Value::Text("x".repeat(pad as usize)),
        ])
        .unwrap();
    }
    if flush {
        // Checkpoint so pages are clean and leasable (zero-copy path);
        // the unflushed case exercises the counted-copy fallback instead.
        t.pool().flush_all().unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused rid join (`ParHashJoin` with a projection) is
    /// byte-identical to the sequential `Project(HashJoin(Values rids,
    /// SeqScan))` pipeline at 1/2/4/8 threads, for clean and dirty pages
    /// alike, under a pool of as few as 4 frames — and pulls each heap
    /// page through the pool exactly as often.
    #[test]
    fn par_rid_join_matches_serial_at_all_thread_counts(
        rows in prop::collection::vec((0..50i64, 0..200u8), 1..120),
        pool_frames in 4usize..12,
        flush in any::<bool>(),
    ) {
        let t = tiny_pool_table(&rows, pool_frames, flush);
        // The rids whose `k < 25`.
        let build = || {
            let rids = rows.iter().enumerate().filter(|(_, &(k, _))| k < 25);
            Box::new(Values::ints("rid", rids.map(|(i, _)| i as i64)))
        };
        let mut seq_ctx = ExecContext::new();
        let join = HashJoin::new(build(), Box::new(SeqScan::new(&t)), 0, 0);
        let mut seq = Project::columns(Box::new(join), &[1, 2, 3]);
        let seq_rows = collect(&mut seq, &mut seq_ctx).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let mut ctx = ExecContext::new();
            let mut join = ParHashJoin::new(build(), &t, 0, 0, WorkerPool::new(threads))
                .with_projection(&[1, 2, 3]);
            let par_rows = collect(&mut join, &mut ctx).unwrap();
            prop_assert_eq!(&par_rows, &seq_rows, "threads={}", threads);
            prop_assert_eq!(
                ctx.tracker.measured.logical_reads,
                seq_ctx.tracker.measured.logical_reads,
                "threads={}", threads
            );
        }
    }

    /// Parallel hash join (duplicate keys included) is byte-identical to
    /// the sequential hash join at 1/2/4/8 threads under a tiny pool.
    #[test]
    fn par_join_matches_serial_at_all_thread_counts(
        rows in prop::collection::vec((0..8i64, 0..64u8), 1..80),
        build_keys in prop::collection::vec(0..8i64, 0..40),
        pool_frames in 4usize..10,
        flush in any::<bool>(),
    ) {
        let t = tiny_pool_table(&rows, pool_frames, flush);
        let build = || Values::ints("bk", build_keys.iter().copied());
        let mut seq_ctx = ExecContext::new();
        let mut seq_join = HashJoin::new(
            Box::new(build()), Box::new(SeqScan::new(&t)), 0, 1,
        );
        let seq_rows = collect(&mut seq_join, &mut seq_ctx).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let mut ctx = ExecContext::new();
            let mut join = ParHashJoin::new(
                Box::new(build()), &t, 0, 1, WorkerPool::new(threads),
            );
            let par_rows = collect(&mut join, &mut ctx).unwrap();
            prop_assert_eq!(&par_rows, &seq_rows, "threads={}", threads);
        }
    }
}
