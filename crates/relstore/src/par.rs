//! Morsel-driven parallel operators.
//!
//! The buffer pool is single-threaded (`Rc<BufferPool>`), so parallelism
//! follows the morsel-driven split of HyPer: the **coordinator** thread
//! does every page access — charging estimated and measured I/O exactly
//! like the sequential operators — and hands out **zero-copy page
//! leases** ([`PageView`](pagestore::PageView)), while the
//! [`WorkerPool`](exec_pool::WorkerPool) workers do the CPU-only work
//! (slot parsing, tuple decoding, predicate evaluation, projection, hash
//! build and probe) against the shared frames with worker-local
//! [`CostTracker`]s that are merged back afterwards.
//!
//! Leases share the frame's `Arc<Page>` — the coordinator no longer
//! materialises an owned snapshot of every page before dispatch, which
//! is what made 4-thread runs *slower* than sequential ones. Only pages
//! that cannot be leased (overflow chains, dirty frames) fall back to an
//! owned copy, counted in `IoStats::bytes_copied_to_workers` so the perf
//! gate can assert the hot path stays at zero. Because live leases pin
//! their frames against eviction, dispatch proceeds in [`LeaseWaves`]
//! bounded by the pool capacity, so a pool smaller than the heap still
//! scans — zero-copy — wave by wave.
//!
//! Determinism: morsels are contiguous page ranges and results are
//! reassembled in morsel order, so output row order is identical to the
//! sequential pipeline at every thread count — including the hash join,
//! which replays the sequential operator's quirk of emitting each probe
//! row's matches in *reverse* build order (the sequential `HashJoin`
//! drains its pending matches as a stack).
//!
//! A pool with one thread runs every morsel inline on the coordinator
//! without spawning, so `threads=1` is the sequential engine in both
//! result bytes and thread behaviour.

use crate::cost::CostTracker;
use crate::error::{Error, Result};
use crate::exec::{join_key, BoxExec, ExecContext, Executor};
use crate::expr::Expr;
use crate::schema::Schema;
use crate::table::{Row, Table};
use exec_pool::WorkerPool;
use pagestore::PageView;
use std::cell::{Ref, RefCell};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::{Mutex, PoisonError};

/// Default pages per morsel. Sixteen 8 KiB pages ≈ 128 KiB of tuple data
/// — small enough that a morsel's working set stays cache-resident on a
/// worker, large enough to amortise the per-task queue round trip (~800
/// rows at the default 50 rows/page). Measured on SCI_100K: 8 and 32
/// land within a few percent; 16 is the flat middle of that plateau.
pub const MORSEL_PAGES: usize = 16;

/// Effective pages per morsel: the `ORPHEUS_MORSEL_PAGES` environment
/// variable (read once) overrides the measured default [`MORSEL_PAGES`].
/// Morsel size never affects output bytes — merge order is morsel order —
/// only the task granularity.
pub fn morsel_pages() -> usize {
    static PAGES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *PAGES.get_or_init(|| {
        std::env::var("ORPHEUS_MORSEL_PAGES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(MORSEL_PAGES)
    })
}

/// Frames kept free of leases during a dispatch wave, so the coordinator
/// can still pull overflow-chain and dirty pages through the pool while
/// the wave's leases pin their frames against eviction.
const LEASE_RESERVE: usize = 2;

/// Leases heap pages in coordinator-paced **waves**: each wave holds at
/// most `pool.capacity() - LEASE_RESERVE` simultaneous leases, grouped
/// into contiguous [`morsel_pages`]-sized morsels. Leases refuse eviction,
/// so leasing the whole heap up front would wedge any pool smaller than
/// the table; waves bound the lease footprint while keeping every page on
/// the zero-copy path. Wave boundaries never affect output bytes — merge
/// order is morsel order and waves are dispatched in order.
struct LeaseWaves<'a> {
    table: &'a Table,
    next_ord: usize,
    total: usize,
    budget: usize,
    pages_per_morsel: usize,
}

impl<'a> LeaseWaves<'a> {
    fn new(table: &'a Table) -> Self {
        let budget = table.pool().capacity().saturating_sub(LEASE_RESERVE).max(1);
        LeaseWaves {
            table,
            next_ord: 0,
            total: table.num_heap_pages(),
            budget,
            pages_per_morsel: morsel_pages().min(budget),
        }
    }

    /// Lease the next wave of morsels — zero-copy for clean all-inline
    /// pages — charging the measured pool traffic to `tracker`. Returns
    /// `None` once the heap is exhausted.
    fn next_wave(&mut self, tracker: &mut CostTracker) -> Result<Option<Vec<Vec<PageView>>>> {
        if self.next_ord >= self.total {
            return Ok(None);
        }
        let mut wave: Vec<Vec<PageView>> = Vec::new();
        let mut leased = 0;
        while self.next_ord < self.total && leased < self.budget {
            let take = self
                .pages_per_morsel
                .min(self.budget - leased)
                .min(self.total - self.next_ord);
            let mut morsel = Vec::with_capacity(take);
            for ord in self.next_ord..self.next_ord + take {
                morsel.push(self.table.lease_page(ord, tracker)?);
            }
            self.next_ord += take;
            leased += take;
            wave.push(morsel);
        }
        Ok(Some(wave))
    }
}

/// Accumulate one morsel result into the output buffer, the per-worker
/// row counts, and the coordinator's tracker.
fn merge_morsel(
    out: &mut VecDeque<Row>,
    worker_rows: &mut [u64],
    ctx: &mut ExecContext,
    worker: usize,
    rows: Vec<Row>,
    tracker: CostTracker,
) {
    worker_rows[worker] += rows.len() as u64;
    out.extend(rows);
    ctx.tracker.absorb(&tracker);
}

/// Parallel hash join of a build-side executor against a probed table.
///
/// The coordinator drains the build child, the workers build per-chunk
/// hash partitions that are merged in chunk order (so each key's match
/// list is in global build order), and the probe side is scanned as page
/// morsels. Byte-identical to the sequential
/// `HashJoin(build, SeqScan(probe))` pipeline: same output order (each
/// probe row's matches in reverse build order), same estimated charges
/// (one hash-insert op per build row, one probe op per scanned row, one
/// emit per output row).
pub struct ParHashJoin<'a> {
    build: Option<BoxExec<'a>>,
    probe: &'a Table,
    build_key: usize,
    probe_key: usize,
    pool: WorkerPool,
    projection: Option<Vec<Expr>>,
    schema: Schema,
    out: VecDeque<Row>,
    started: bool,
    worker_rows: Rc<RefCell<Vec<u64>>>,
}

impl<'a> ParHashJoin<'a> {
    pub fn new(
        build: BoxExec<'a>,
        probe: &'a Table,
        build_key: usize,
        probe_key: usize,
        pool: WorkerPool,
    ) -> Self {
        let schema = build.schema().join(probe.schema());
        let workers = pool.threads();
        ParHashJoin {
            build: Some(build),
            probe,
            build_key,
            probe_key,
            pool,
            projection: None,
            schema,
            out: VecDeque::new(),
            started: false,
            worker_rows: Rc::new(RefCell::new(vec![0; workers])),
        }
    }

    /// Fuse a column projection over the joined `build ⨝ probe` row
    /// (applied on the workers), replacing a `Project` on top of the join.
    pub fn with_projection(mut self, indices: &[usize]) -> Self {
        self.schema = self.schema.project(indices);
        self.projection = Some(indices.iter().map(|&i| Expr::col(i)).collect());
        self
    }

    /// Degree of parallelism this join runs at.
    pub fn parallelism(&self) -> usize {
        self.pool.threads()
    }

    /// Shared per-worker emitted-row counts (probe phase).
    pub fn worker_rows(&self) -> Rc<RefCell<Vec<u64>>> {
        Rc::clone(&self.worker_rows)
    }

    /// Cheap copy-on-read view of the per-worker row counts: borrows the
    /// shared cell instead of cloning the vector on every report call.
    pub fn worker_rows_view(&self) -> Ref<'_, [u64]> {
        Ref::map(self.worker_rows.borrow(), Vec::as_slice)
    }

    /// Partition the build rows into contiguous chunks, hash each chunk on
    /// a worker, and merge the partitions in chunk order. Match lists hold
    /// indices into `build_rows`, so per-key order is global build order
    /// no matter how the per-chunk maps iterate.
    fn build_table(
        &self,
        build_rows: &[Row],
        ctx: &mut ExecContext,
    ) -> Result<HashMap<i64, Vec<usize>>> {
        let build_key = self.build_key;
        let chunks = self.pool.degree_for(build_rows.len());
        let tasks: Vec<_> = (0..chunks)
            .map(|c| {
                let lo = c * build_rows.len() / chunks;
                let hi = (c + 1) * build_rows.len() / chunks;
                let rows = &build_rows[lo..hi];
                move |_worker: usize| -> Result<(HashMap<i64, Vec<usize>>, CostTracker)> {
                    let mut tracker = CostTracker::new();
                    let mut map: HashMap<i64, Vec<usize>> = HashMap::new();
                    for (i, row) in rows.iter().enumerate() {
                        tracker.ops(1); // hash insert
                        if let Some(k) = join_key(row, build_key)? {
                            map.entry(k).or_default().push(lo + i);
                        }
                    }
                    Ok((map, tracker))
                }
            })
            .collect();
        let mut merged: HashMap<i64, Vec<usize>> = HashMap::new();
        for result in self.pool.run(tasks)? {
            let (map, tracker) = result?;
            ctx.tracker.absorb(&tracker);
            for (k, mut idxs) in map {
                merged.entry(k).or_default().append(&mut idxs);
            }
        }
        Ok(merged)
    }

    fn run(&mut self, ctx: &mut ExecContext) -> Result<()> {
        let mut build = self
            .build
            .take()
            .ok_or_else(|| Error::Parallel("ParHashJoin::run called twice".into()))?;
        let mut build_rows: Vec<Row> = Vec::new();
        while let Some(row) = build.next(ctx)? {
            build_rows.push(row);
        }
        let table = self.build_table(&build_rows, ctx)?;

        ctx.tracker
            .seq_scan(self.probe.heap_size() as u64, &ctx.model);
        let probe_key = self.probe_key;
        let build_rows = &build_rows;
        let table = &table;
        let projection = self.projection.as_deref();
        // One reusable scratch row per worker for the fused projection:
        // the old hot loop cloned the build row (plus a growth realloc
        // from the extend) for *every emitted join row* only to project
        // from it and throw it away. A worker runs its tasks one at a
        // time, so its scratch lock is always uncontended.
        let workers = self.pool.threads();
        let scratch: Vec<Mutex<Row>> = (0..workers).map(|_| Mutex::new(Row::new())).collect();
        self.probe.pool().note_morsel_allocs(workers as u64);
        ctx.tracker.measured.morsel_allocs += workers as u64;
        let scratch = &scratch;
        let decoder = self.probe.decoder();
        let mut waves = LeaseWaves::new(self.probe);
        while let Some(wave) = waves.next_wave(&mut ctx.tracker)? {
            let tasks: Vec<_> = wave
                .into_iter()
                .map(|morsel| {
                    let decoder = decoder.clone();
                    move |worker: usize| -> Result<(usize, Vec<Row>, CostTracker)> {
                        let mut tracker = CostTracker::new();
                        let mut rows = Vec::new();
                        let mut tmp = scratch[worker]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner);
                        for view in &morsel {
                            for bytes in view.tuples().map_err(Error::from)? {
                                let (_, probe_row) = decoder.decode_row(bytes)?;
                                tracker.measured.tuples_decoded += 1;
                                tracker.ops(1); // hash probe
                                let Some(k) = join_key(&probe_row, probe_key)? else {
                                    continue;
                                };
                                let Some(matches) = table.get(&k) else {
                                    continue;
                                };
                                // Reverse build order — the sequential join
                                // drains its pending matches as a stack.
                                for &i in matches.iter().rev() {
                                    tracker.emit(1);
                                    let out = match projection {
                                        Some(exprs) => {
                                            // Concat into the reused scratch,
                                            // project straight out of it.
                                            tmp.clear();
                                            tmp.extend_from_slice(&build_rows[i]);
                                            tmp.extend_from_slice(&probe_row);
                                            exprs
                                                .iter()
                                                .map(|e| e.eval(&tmp, &mut tracker))
                                                .collect::<Result<Vec<_>>>()?
                                        }
                                        None => {
                                            // The concat row *is* the output:
                                            // build it exactly-sized, no
                                            // clone-then-extend realloc.
                                            let mut out = Row::with_capacity(
                                                build_rows[i].len() + probe_row.len(),
                                            );
                                            out.extend_from_slice(&build_rows[i]);
                                            out.extend_from_slice(&probe_row);
                                            out
                                        }
                                    };
                                    rows.push(out);
                                }
                            }
                        }
                        Ok((worker, rows, tracker))
                    }
                })
                .collect();
            let results = self.pool.run(tasks)?;
            let mut worker_rows = self.worker_rows.borrow_mut();
            let mut wave_decoded = 0;
            for result in results {
                let (worker, rows, tracker) = result?;
                wave_decoded += tracker.measured.tuples_decoded;
                merge_morsel(&mut self.out, &mut worker_rows, ctx, worker, rows, tracker);
            }
            self.probe.pool().note_tuples_decoded(wave_decoded);
        }
        Ok(())
    }
}

impl Executor for ParHashJoin<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Row>> {
        if !self.started {
            self.started = true;
            self.run(ctx)?;
        }
        Ok(self.out.pop_front())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, HashJoin, Project, SeqScan, Values};
    use crate::schema::Column;
    use crate::value::{DataType, Value};

    fn data_table(n: i64) -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("rid", DataType::Int64),
                Column::new("x", DataType::Int64),
                Column::new("tag", DataType::Text),
            ]),
        );
        for i in 0..n {
            t.insert(vec![
                Value::Int64(i),
                Value::Int64(i * 7 % 100),
                Value::Text(format!("row-{i}")),
            ])
            .unwrap();
        }
        t
    }

    /// The build side of the rid joins below: the rids whose `x < 50`.
    fn rids(t: &Table) -> Values {
        let n = t.live_row_count() as i64;
        Values::ints("rid", (0..n).filter(|i| i * 7 % 100 < 50))
    }

    /// The sequential pipeline a `ParHashJoin` with a fused projection
    /// replaces: `Project(HashJoin(Values rids, SeqScan))`.
    fn seq_rid_join(t: &Table) -> (Vec<Row>, CostTracker) {
        let mut ctx = ExecContext::new();
        let join = Box::new(HashJoin::new(
            Box::new(rids(t)),
            Box::new(SeqScan::new(t)),
            0,
            0,
        ));
        let mut project = Project::columns(join, &[1, 3]);
        let rows = collect(&mut project, &mut ctx).unwrap();
        (rows, ctx.tracker)
    }

    fn par_rid_join(t: &Table, threads: usize) -> (Vec<Row>, CostTracker, Vec<u64>) {
        let mut ctx = ExecContext::new();
        let mut join = ParHashJoin::new(Box::new(rids(t)), t, 0, 0, WorkerPool::new(threads))
            .with_projection(&[1, 3]);
        let rows = collect(&mut join, &mut ctx).unwrap();
        // Take the borrow's slice once through the view — no clone of the
        // shared cell on the report path.
        let worker_rows = join.worker_rows_view().to_vec();
        (rows, ctx.tracker, worker_rows)
    }

    #[test]
    fn par_rid_join_matches_sequential_pipeline_at_every_thread_count() {
        let t = data_table(3_000);
        let (seq_rows, seq_tracker) = seq_rid_join(&t);
        for threads in [1, 2, 4, 8] {
            let (par_rows, par_tracker, _) = par_rid_join(&t, threads);
            assert_eq!(par_rows, seq_rows, "threads={threads}");
            // Identical estimated charges: same pages, tuples, and
            // operator evaluations, merged back from the workers.
            assert_eq!(par_tracker.seq_pages, seq_tracker.seq_pages);
            assert_eq!(par_tracker.tuples, seq_tracker.tuples);
            assert_eq!(par_tracker.operator_evals, seq_tracker.operator_evals);
            // Identical measured I/O: the coordinator pulled each heap
            // page through the pool exactly once, like the sequential scan.
            assert_eq!(
                par_tracker.measured.logical_reads, seq_tracker.measured.logical_reads,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_rid_join_worker_rows_reconcile_with_sequential_count() {
        let t = data_table(3_000);
        let (seq_rows, _) = seq_rid_join(&t);
        let (_, _, worker_rows) = par_rid_join(&t, 4);
        assert_eq!(worker_rows.len(), 4);
        assert_eq!(
            worker_rows.iter().sum::<u64>(),
            seq_rows.len() as u64,
            "per-worker rows must sum to the sequential row count"
        );
    }

    #[test]
    fn par_join_is_zero_copy_after_checkpoint() {
        let t = data_table(3_000);
        t.pool().flush_all().unwrap();
        let before = t.io_stats();
        let (rows, _, _) = par_rid_join(&t, 4);
        assert!(!rows.is_empty());
        let delta = t.io_stats().since(&before);
        assert_eq!(
            delta.bytes_copied_to_workers, 0,
            "clean inline pages must ship to workers as leases, not copies"
        );
        // The only allocations are the one scratch row per worker.
        assert_eq!(delta.morsel_allocs, 4);
    }

    #[test]
    fn par_join_on_dirty_pages_falls_back_to_counted_copies() {
        // No flush: every heap page is dirty, so each one must be copied
        // (and counted) rather than leased — output stays identical.
        let t = data_table(500);
        let before = t.io_stats();
        let (rows, _, _) = par_rid_join(&t, 4);
        let (seq_rows, _) = seq_rid_join(&t);
        assert_eq!(rows, seq_rows);
        let delta = t.io_stats().since(&before);
        assert!(delta.bytes_copied_to_workers > 0);
        assert!(delta.morsel_allocs >= t.num_heap_pages() as u64);
    }

    #[test]
    fn par_join_pool_smaller_than_heap_stays_zero_copy_via_waves() {
        // 4-frame pool, many-page heap: leases refuse eviction, so the
        // probe scan must proceed in capacity-bounded waves instead of
        // wedging.
        let pool = Rc::new(pagestore::BufferPool::in_memory(4));
        let mut t = Table::with_pool(
            "w",
            Schema::new(vec![
                Column::new("rid", DataType::Int64),
                Column::new("pad", DataType::Text),
            ]),
            pool,
        );
        for i in 0..400i64 {
            t.insert(vec![Value::Int64(i), Value::Text("y".repeat(256))])
                .unwrap();
        }
        assert!(t.num_heap_pages() > t.pool().capacity());
        t.pool().flush_all().unwrap();
        let before = t.io_stats();
        let build = || Box::new(Values::ints("rid", 0..400));
        let mut ctx = ExecContext::new();
        let mut join = ParHashJoin::new(build(), &t, 0, 0, WorkerPool::new(4));
        let rows = collect(&mut join, &mut ctx).unwrap();
        assert_eq!(rows.len(), 400);
        let mut seq_ctx = ExecContext::new();
        let seq = collect(
            &mut HashJoin::new(build(), Box::new(SeqScan::new(&t)), 0, 0),
            &mut seq_ctx,
        )
        .unwrap();
        assert_eq!(rows, seq);
        let delta = t.io_stats().since(&before);
        assert_eq!(delta.bytes_copied_to_workers, 0);
    }

    #[test]
    fn par_join_handles_zero_row_table() {
        let t = data_table(0);
        let (rows, _, _) = par_rid_join(&t, 4);
        assert!(rows.is_empty());
    }

    #[test]
    fn par_join_single_morsel_and_more_workers_than_morsels() {
        // 60 rows fit on a handful of pages — far fewer morsels than the
        // eight workers; idle workers must not deadlock or drop rows.
        let t = data_table(60);
        let (rows, _, _) = par_rid_join(&t, 8);
        let (seq, _) = seq_rid_join(&t);
        assert_eq!(rows.len(), (0..60).filter(|i| i * 7 % 100 < 50).count());
        assert_eq!(rows, seq);
    }

    #[test]
    fn par_join_matches_sequential_hash_join_at_every_thread_count() {
        let t = data_table(2_000);
        // Duplicate build keys: rid % 40 repeats, exercising multi-match
        // emission order.
        let build_vals = || Values::ints("rid", (0..2_000).map(|i| i % 40));
        let mut seq_ctx = ExecContext::new();
        let mut seq_join = HashJoin::new(Box::new(build_vals()), Box::new(SeqScan::new(&t)), 0, 0);
        let seq_rows = collect(&mut seq_join, &mut seq_ctx).unwrap();
        assert!(!seq_rows.is_empty());
        for threads in [1, 2, 4, 8] {
            let mut ctx = ExecContext::new();
            let mut join =
                ParHashJoin::new(Box::new(build_vals()), &t, 0, 0, WorkerPool::new(threads));
            let rows = collect(&mut join, &mut ctx).unwrap();
            assert_eq!(rows, seq_rows, "threads={threads}");
            assert_eq!(ctx.tracker.tuples, seq_ctx.tracker.tuples);
            assert_eq!(ctx.tracker.operator_evals, seq_ctx.tracker.operator_evals);
            // Cheap copy-on-read view: sum straight off the borrowed slice.
            assert_eq!(
                join.worker_rows_view().iter().sum::<u64>(),
                seq_rows.len() as u64
            );
        }
    }

    #[test]
    fn par_join_null_and_missing_keys_are_skipped() {
        let mut t = Table::new(
            "n",
            Schema::new(vec![
                Column::nullable("k", DataType::Int64),
                Column::new("v", DataType::Int64),
            ]),
        );
        t.insert(vec![Value::Int64(1), Value::Int64(10)]).unwrap();
        t.insert(vec![Value::Null, Value::Int64(20)]).unwrap();
        t.insert(vec![Value::Int64(99), Value::Int64(30)]).unwrap();
        let mut ctx = ExecContext::new();
        let mut join = ParHashJoin::new(
            Box::new(Values::ints("k", [1, 2])),
            &t,
            0,
            0,
            WorkerPool::new(2),
        );
        let rows = collect(&mut join, &mut ctx).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Int64(1), Value::Int64(1), Value::Int64(10)]]
        );
    }

    #[test]
    fn par_join_type_error_surfaces() {
        let t = data_table(10);
        let mut ctx = ExecContext::new();
        // Text column as probe key: must error, not panic.
        let mut join = ParHashJoin::new(
            Box::new(Values::ints("k", [1])),
            &t,
            0,
            2,
            WorkerPool::new(2),
        );
        let err = collect(&mut join, &mut ctx);
        assert!(matches!(err, Err(Error::TypeError(_))));
    }

    #[test]
    fn par_worker_panic_surfaces_as_err() {
        // A panic inside a worker task must surface as Err, not deadlock.
        // Simulate via the pool directly: ParHashJoin's workers only run
        // fallible code, so drive a task that panics through the same pool.
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce(usize) -> u32 + Send>> = vec![
            Box::new(|_| 1),
            Box::new(|_| panic!("worker exploded mid-morsel")),
        ];
        let err = pool.run(tasks);
        let msg = format!("{}", Error::from(err.unwrap_err()));
        assert!(msg.contains("exploded"), "{msg}");
    }
}
