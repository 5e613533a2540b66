//! Morsel-driven pipeline: the one partition→build→probe engine behind both
//! partitioned CPU joins, Cbase and CSH.
//!
//! One scheduler run executes fine-grained *morsels*
//! (~[`crate::config::DEFAULT_MORSEL_TUPLES`] tuples each) whose
//! dependencies are tracked with atomic countdowns and gates, never with
//! thread barriers:
//!
//! 1. **Hist** — one task per input segment per side counts pass-0 bucket
//!    sizes. The last finisher prefix-sums the histograms into per-segment
//!    write cursors and spawns the Scatter tasks.
//! 2. **Scatter** — one task per segment copies its tuples into the scratch
//!    buffer at the precomputed cursors, one store per tuple, hashing a
//!    SIMD batch at a time ([`crate::partition`]). The last finisher either
//!    publishes the pass-0 starts as final (single-pass config) or spawns
//!    one Refine task per pass-0 partition.
//! 3. **Refine** — one task per pass-0 partition runs the remaining radix
//!    passes *locally* (stable per-pass counting sorts, so final partitions
//!    come out in memory order), each pass scattering the partition's range
//!    of one buffer into the same range of the other and the last one into
//!    the final buffer, and publishes its children's start offsets.
//! 4. **Join** — a per-partition gate (`AtomicU8`, one bit per side) arms
//!    when *both* sides have refined that pass-0 partition; the second
//!    arrival spawns the build+probe tasks. Join tasks are `JoinPhase`
//!    tasks — recursive skew splitting (Cbase only), overflow budget, and
//!    SIMD probe included — so one side's hot partition can be mid-probe
//!    while the other side is still scattering cold data.
//!
//! **CSH's router hook.** `Flavor::Csh` with a non-empty
//! [`SkewCheckupTable`] changes two stages and adds one edge. R's bucket
//! function gains one bucket per hot key after the `fanout(0)` radix
//! buckets, so hot R tuples land in contiguous per-key runs at the tail of
//! R's scratch buffer, which Refine and Join never look at. A hot S tuple
//! is never stored: S's histograms skip it and its Scatter task emits its
//! results on the spot with [`OutputSink::emit_r_run`] against R's run —
//! hybrid-hash style, no key comparison per result. For that, S's Scatter
//! tasks wait on a two-bit gate: R's scatters all finished *and* S's
//! histograms all counted. With an empty table the hook is absent and CSH
//! runs exactly Cbase's path (under its own phase names, without task
//! splitting).
//!
//! There is no global phase boundary, so per-phase wall-clock is attributed
//! by timestamp: R's partitioning ends when R is fully partitioned (or,
//! under the hook, when S's scatters are released, whichever comes first);
//! partitioning ends when both sides are; the rest of the run is the join.
//! Cancellation is polled at every task entry, after every scatter, every
//! 64 hot S tuples, and inside probe loops; a cancelled task returns
//! without decrementing its countdown, the queue drains, and `run_pipeline`
//! reports [`JoinError::Cancelled`] for the phase that was in flight.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use skewjoin_common::hash::RadixConfig;
use skewjoin_common::histogram::{exclusive_prefix_sum, histogram, per_worker_offsets};
use skewjoin_common::trace::counter;
use skewjoin_common::{CancelToken, JoinError, JoinStats, OutputSink, Relation, Tuple};

use crate::cbase::{JoinPhase, JoinTask, TupleBuf};
use crate::config::CpuJoinConfig;
use crate::partition::{pass_spec, scatter_direct, Route, SharedUsizeSlice};
use crate::simd::{self, SimdLevel, HASH_BATCH};
use crate::skew::SkewCheckupTable;
use crate::task::{run_to_completion, SchedStats, TaskQueue, Worker};
use crate::util::{segment, SharedTupleSlice};

/// Upper bound on segments per side, so tiny morsel sizes on huge inputs
/// cannot explode the task count (the scheduler is fine with thousands of
/// tasks, but histograms cost `fanout(0)` words each).
const MAX_SEGMENTS: usize = 512;

/// Hot S tuples emitted between two cancellation polls.
const HOT_POLL_INTERVAL: u64 = 64;

/// Minimum S segments per worker under the hot-key hook. An S Scatter
/// task's cost is its emitted output, not its tuple count, so S is cut
/// finer than `morsel_tuples` alone would for the scheduler to balance the
/// emission across workers even on small inputs.
const HOT_S_SEGMENTS_PER_THREAD: usize = 4;

/// Which join drives the pipeline.
#[derive(Clone, Copy)]
pub(crate) enum Flavor<'h> {
    /// Cbase: phases `partition` / `join`, large-task splitting on.
    Cbase,
    /// CSH: phases `partition_r` / `partition_s` / `nm_join`, splitting
    /// off, and the hot-key router hook when the table holds a key.
    Csh(&'h SkewCheckupTable),
}

impl Flavor<'_> {
    /// Phase names, indexed by [`Stage`]: R's partitioning, S's
    /// partitioning, the join.
    fn phases(self) -> [&'static str; 3] {
        match self {
            Flavor::Cbase => ["partition", "partition", "join"],
            Flavor::Csh(_) => ["partition_r", "partition_s", "nm_join"],
        }
    }
}

/// Pipeline progress, also the index into [`Flavor::phases`].
type Stage = usize;
const STAGE_R: Stage = 0;
const STAGE_S: Stage = 1;
const STAGE_JOIN: Stage = 2;

/// Which input relation a partition task belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    /// Build side.
    R = 0,
    /// Probe side.
    S = 1,
}

/// One schedulable unit of pipeline work.
enum Task {
    /// Count pass-0 bucket sizes over one input segment.
    Hist { side: Side, seg: usize },
    /// Scatter one input segment into the scratch buffer.
    Scatter { side: Side, seg: usize },
    /// Run radix passes 1.. locally over one pass-0 partition.
    Refine { side: Side, parent: usize },
    /// Build+probe one final partition (or a recursive split of one).
    Join(JoinTask),
}

/// Bytes one queued task occupies; the footprint model counts the queue.
pub(crate) const TASK_BYTES: usize = std::mem::size_of::<Task>();

impl Task {
    /// The stage whose phase a panic in this task is charged to.
    fn stage(&self) -> Stage {
        match self {
            Task::Hist { side, .. } | Task::Scatter { side, .. } | Task::Refine { side, .. } => {
                *side as Stage
            }
            Task::Join(_) => STAGE_JOIN,
        }
    }
}

/// Backing storage the pipeline hands out raw views into; it outlives the
/// scheduler run.
struct Buffers {
    /// The radix the run partitions with: pinned, or derived from |R|.
    radix: RadixConfig,
    sides: [SideBuffers; 2],
}

/// One side's buffers. For single-pass configs the scratch buffer *is* the
/// final buffer, so `refined` stays empty.
struct SideBuffers {
    scratch: Vec<Tuple>,
    refined: Vec<Tuple>,
    child_starts: Vec<usize>,
}

impl Buffers {
    fn new(r: &Relation, s: &Relation, cfg: &CpuJoinConfig) -> Self {
        let radix = cfg.radix_for(r.len());
        let side = |n: usize| SideBuffers {
            scratch: vec![Tuple::default(); n],
            refined: vec![Tuple::default(); if radix.bits_per_pass.len() > 1 { n } else { 0 }],
            child_starts: vec![0; radix.total_fanout()],
        };
        Self {
            sides: [side(r.len()), side(s.len())],
            radix,
        }
    }
}

/// Per-side partitioning state.
struct SideState<'a> {
    input: &'a [Tuple],
    /// Number of hist/scatter segments (>= 1 even for empty input).
    segs: usize,
    /// Pass-0 buckets: the `fanout(0)` radix partitions, then — on R under
    /// the hot-key hook — one run per hot key.
    buckets: usize,
    /// Per-segment pass-0 histograms, filled by Hist tasks.
    hists: Mutex<Vec<Vec<usize>>>,
    hists_left: AtomicUsize,
    /// Per-segment scatter cursors, produced by the last Hist finisher.
    cursor_rows: Mutex<Vec<Vec<usize>>>,
    /// Pass-0 bucket starts (`buckets + 1` entries); the last entry is the
    /// number of tuples stored.
    pass0_starts: OnceLock<Vec<usize>>,
    scatters_left: AtomicUsize,
    refines_left: AtomicUsize,
    /// Pass-0 scatter target.
    scratch: SharedTupleSlice,
    /// Fully refined tuples; aliases `scratch` for single-pass configs.
    finals: SharedTupleSlice,
    /// Start offset of every final partition (`total_fanout()` entries; the
    /// end of parent `p`'s last child is `pass0_starts[p + 1]`). Entry
    /// `p * fanout_rest + j` is written only by parent `p`'s Refine task,
    /// so concurrent Refines never touch the same slot.
    child_starts: SharedUsizeSlice,
    /// Hist + Scatter + Refine tasks executed.
    morsels: AtomicU64,
}

impl<'a> SideState<'a> {
    fn new(
        input: &'a [Tuple],
        cfg: &CpuJoinConfig,
        radix: &RadixConfig,
        min_segs: usize,
        buckets: usize,
        bufs: &mut SideBuffers,
    ) -> Self {
        let segs = input
            .len()
            .div_ceil(cfg.morsel_tuples.max(1))
            .max(min_segs)
            .clamp(1, MAX_SEGMENTS);
        let multi_pass = radix.bits_per_pass.len() > 1;
        let scratch = SharedTupleSlice::new(&mut bufs.scratch);
        Self {
            input,
            segs,
            buckets,
            hists: Mutex::new(vec![Vec::new(); segs]),
            hists_left: AtomicUsize::new(segs),
            cursor_rows: Mutex::new(Vec::new()),
            pass0_starts: OnceLock::new(),
            scatters_left: AtomicUsize::new(segs),
            refines_left: AtomicUsize::new(if multi_pass { radix.fanout(0) } else { 0 }),
            scratch,
            finals: if multi_pass {
                SharedTupleSlice::new(&mut bufs.refined)
            } else {
                scratch
            },
            child_starts: SharedUsizeSlice::new(&mut bufs.child_starts),
            morsels: AtomicU64::new(0),
        }
    }

    /// Pass-0 bucket starts; published before any Scatter task is spawned.
    fn starts(&self) -> &[usize] {
        self.pass0_starts.get().expect("pass-0 starts published")
    }
}

/// Shared state of one pipelined join run.
struct Pipeline<'a> {
    cfg: &'a CpuJoinConfig,
    /// The radix layout this run partitions with (pinned or derived).
    radix: RadixConfig,
    passes: usize,
    fanout0: usize,
    /// Children per pass-0 partition (`total_fanout / fanout0`).
    fanout_rest: usize,
    simd: SimdLevel,
    flavor: Flavor<'a>,
    /// CSH's checkup table when it holds a key; `None` runs Cbase's path.
    hot: Option<&'a SkewCheckupTable>,
    sides: [SideState<'a>; 2],
    join: JoinPhase,
    /// One gate per pass-0 partition; bit 0 = R refined, bit 1 = S refined.
    gates: Vec<AtomicU8>,
    /// Hot-key hook only: bit 0 = R scattered, bit 1 = S histogrammed. The
    /// second arrival spawns S's Scatter tasks, which read R's hot runs.
    s_scatter_gate: AtomicU8,
    /// Hot S tuples consumed by the router, and the results they emitted.
    skew_probes: AtomicU64,
    skew_results: AtomicU64,
    /// Sides whose partitioning has not completed yet (starts at 2).
    sides_left: AtomicUsize,
    started: Instant,
    /// Furthest [`Stage`] reached.
    stage: AtomicUsize,
    /// Nanoseconds from run start at which `STAGE_S` and `STAGE_JOIN` were
    /// reached; 0 while not yet.
    stage_ns: [AtomicU64; 2],
    /// Whether any join task started (phase attribution for cancel/panic
    /// observed before partitioning completed).
    join_started: AtomicBool,
    /// First panic's stage + 1 (0 = none), recorded in the task dispatcher.
    error_stage: AtomicUsize,
}

impl<'a> Pipeline<'a> {
    fn new(
        r: &'a Relation,
        s: &'a Relation,
        cfg: &'a CpuJoinConfig,
        flavor: Flavor<'a>,
        bufs: &'a mut Buffers,
    ) -> Self {
        let radix = bufs.radix.clone();
        let fanout0 = radix.fanout(0);
        let total_fanout = radix.total_fanout();
        let hot = match flavor {
            Flavor::Csh(table) if !table.is_empty() => Some(table),
            _ => None,
        };
        let [r_bufs, s_bufs] = &mut bufs.sides;
        let r_buckets = fanout0 + hot.map_or(0, SkewCheckupTable::len);
        let s_min_segs = if hot.is_some() {
            HOT_S_SEGMENTS_PER_THREAD * cfg.threads
        } else {
            1
        };
        Self {
            cfg,
            passes: radix.bits_per_pass.len(),
            fanout0,
            fanout_rest: total_fanout / fanout0,
            simd: cfg.simd.resolve(),
            flavor,
            hot,
            sides: [
                SideState::new(r.tuples(), cfg, &radix, 1, r_buckets, r_bufs),
                SideState::new(s.tuples(), cfg, &radix, s_min_segs, fanout0, s_bufs),
            ],
            join: JoinPhase::new(
                cfg,
                r.len(),
                s.len(),
                total_fanout,
                matches!(flavor, Flavor::Cbase),
            ),
            gates: (0..fanout0).map(|_| AtomicU8::new(0)).collect(),
            s_scatter_gate: AtomicU8::new(0),
            skew_probes: AtomicU64::new(0),
            skew_results: AtomicU64::new(0),
            sides_left: AtomicUsize::new(2),
            started: Instant::now(),
            stage: AtomicUsize::new(STAGE_R),
            stage_ns: [AtomicU64::new(0), AtomicU64::new(0)],
            join_started: AtomicBool::new(false),
            error_stage: AtomicUsize::new(0),
            radix,
        }
    }

    fn side(&self, side: Side) -> &SideState<'a> {
        &self.sides[side as usize]
    }

    /// Drives every stage through one scheduler run, one sink per worker.
    fn execute<S, F>(&self, make_sink: &F) -> Result<(Vec<S>, SchedStats), JoinError>
    where
        S: OutputSink,
        F: Fn(usize) -> S + Sync,
    {
        let seeds = (0..self.side(Side::R).segs)
            .map(|seg| Task::Hist { side: Side::R, seg })
            .chain((0..self.side(Side::S).segs).map(|seg| Task::Hist { side: Side::S, seg }));
        let queue = TaskQueue::seeded(self.cfg.scheduler, seeds);
        let slots: Vec<Mutex<S>> = (0..self.cfg.threads)
            .map(|i| Mutex::new(make_sink(i)))
            .collect();

        let run = run_to_completion(&queue, self.cfg.threads, |worker| {
            let mut sink = slots[worker.index()]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            worker.run(|task, w| self.dispatch(task, w, &mut *sink));
        });
        let sched = run.map_err(|worker| JoinError::WorkerPanicked {
            worker,
            phase: self.panic_phase().to_string(),
        })?;
        if let Some(msg) = self.join.take_overflow() {
            return Err(JoinError::PartitionOverflow(msg));
        }
        self.cfg.cancel.check(self.progress_phase())?;
        let sinks = slots
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        Ok((sinks, sched))
    }

    /// Runs one task, recording its stage on panic before re-raising so
    /// `execute` can attribute [`JoinError::WorkerPanicked`] without
    /// barriers.
    fn dispatch<S: OutputSink>(&self, task: Task, w: &Worker<'_, Task>, sink: &mut S) {
        let stage = task.stage();
        let outcome = catch_unwind(AssertUnwindSafe(|| match task {
            Task::Hist { side, seg } => self.run_hist(side, seg, w),
            Task::Scatter { side, seg } => self.run_scatter(side, seg, w, sink),
            Task::Refine { side, parent } => self.run_refine(side, parent, w),
            Task::Join(t) => {
                self.join_started.store(true, Ordering::Relaxed);
                self.join
                    .run_task(t, &mut |next| w.spawn(Task::Join(next)), sink);
            }
        }));
        if let Err(payload) = outcome {
            let _ = self.error_stage.compare_exchange(
                0,
                stage + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            resume_unwind(payload);
        }
    }

    /// Pass-0 histogram of one segment. Under the hot-key hook a hot R
    /// tuple counts toward its key's run bucket and a hot S tuple is not
    /// counted at all (it will be consumed, not stored).
    fn hist(&self, side: Side, chunk: &[Tuple]) -> Vec<usize> {
        let radix = &self.radix;
        let mut hist = histogram(chunk, radix, 0);
        let Some(hot) = self.hot else {
            return hist;
        };
        // A separate correcting scan: fusing the lookup into the counting
        // loop measured twice as slow as both loops together.
        hist.resize(self.side(side).buckets, 0);
        for t in chunk {
            if let Some(k) = hot.lookup(t.key) {
                hist[radix.partition_of(t.key, 0)] -= 1;
                if side == Side::R {
                    hist[self.fanout0 + k as usize] += 1;
                }
            }
        }
        hist
    }

    fn run_hist(&self, side: Side, seg: usize, w: &Worker<'_, Task>) {
        if self.cfg.cancel.is_cancelled() {
            return;
        }
        let st = self.side(side);
        st.morsels.fetch_add(1, Ordering::Relaxed);
        let chunk = &st.input[segment(st.input.len(), st.segs, seg)];
        let hist = self.hist(side, chunk);
        st.hists.lock().unwrap_or_else(PoisonError::into_inner)[seg] = hist;
        if st.hists_left.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last histogram: prefix-sum into per-segment cursors (the lock
            // pairs with each Hist task's write, the countdown's AcqRel
            // pairs every earlier decrement with this read).
            let hists =
                std::mem::take(&mut *st.hists.lock().unwrap_or_else(PoisonError::into_inner));
            let (cursors, starts) = per_worker_offsets(&hists);
            *st.cursor_rows
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = cursors;
            st.pass0_starts
                .set(starts)
                .expect("pass-0 starts published once");
            if side == Side::S && self.hot.is_some() {
                self.arm_s_scatter(Side::S, w);
            } else {
                self.spawn_scatters(side, w);
            }
        }
    }

    fn spawn_scatters(&self, side: Side, w: &Worker<'_, Task>) {
        for seg in 0..self.side(side).segs {
            w.spawn(Task::Scatter { side, seg });
        }
    }

    /// Hot-key hook: marks R scattered or S histogrammed; the second
    /// arrival releases S's Scatter tasks.
    fn arm_s_scatter(&self, side: Side, w: &Worker<'_, Task>) {
        let bit = 1u8 << (side as usize);
        if (self.s_scatter_gate.fetch_or(bit, Ordering::AcqRel) | bit) == 0b11 {
            self.reach(STAGE_S);
            self.spawn_scatters(Side::S, w);
        }
    }

    fn run_scatter<S: OutputSink>(
        &self,
        side: Side,
        seg: usize,
        w: &Worker<'_, Task>,
        sink: &mut S,
    ) {
        if self.cfg.cancel.is_cancelled() {
            return;
        }
        let st = self.side(side);
        st.morsels.fetch_add(1, Ordering::Relaxed);
        let chunk = &st.input[segment(st.input.len(), st.segs, seg)];
        let cursors = std::mem::take(
            &mut st
                .cursor_rows
                .lock()
                .unwrap_or_else(PoisonError::into_inner)[seg],
        );
        match (self.hot, side) {
            (None, _) => self.scatter(st, chunk, cursors, |_| Route::Radix),
            (Some(hot), Side::R) => {
                let runs = self.fanout0;
                self.scatter(st, chunk, cursors, |t| {
                    hot.lookup(t.key)
                        .map_or(Route::Radix, |k| Route::Bucket(runs + k as usize))
                });
            }
            (Some(hot), Side::S) => self.scatter_probing(st, chunk, cursors, hot, sink),
        }
        // A cancel seen mid-scatter leaves this side's countdown short, so
        // nothing downstream (Refine, gates, joins) starts on partial data.
        if self.cfg.cancel.is_cancelled() {
            return;
        }
        if st.scatters_left.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.side_scattered(side, w);
        }
    }

    fn scatter(
        &self,
        st: &SideState<'a>,
        chunk: &[Tuple],
        cursors: Vec<usize>,
        route: impl FnMut(&Tuple) -> Route,
    ) {
        scatter_direct(chunk, &self.radix, cursors, st.scratch, self.simd, route);
    }

    /// S's scatter under the hot-key hook: cold tuples scatter as usual; a
    /// hot tuple emits its results against R's run for its key (§IV-A: a
    /// sequential read, no key verification per result) and is never
    /// stored.
    fn scatter_probing<S: OutputSink>(
        &self,
        st: &SideState<'a>,
        chunk: &[Tuple],
        cursors: Vec<usize>,
        hot: &SkewCheckupTable,
        sink: &mut S,
    ) {
        let r = self.side(Side::R);
        let starts = &r.starts()[self.fanout0..];
        // SAFETY: S's Scatter tasks are spawned only by the second arm of
        // `s_scatter_gate`, whose AcqRel `fetch_or` pairs with R's arm after
        // R's scatter countdown hit zero, so every R scatter write
        // happens-before this read. Nothing writes R's scratch afterwards
        // (Refine only reads it, and only the first `fanout(0)` buckets),
        // and `starts` bounds the hot runs inside `r.scratch`.
        let runs = unsafe { r.scratch.slice(starts[0]..starts[starts.len() - 1]) };
        let mut probe = HotProbe {
            runs,
            starts,
            sink,
            cancel: &self.cfg.cancel,
            probes: 0,
            results: 0,
            stopped: false,
        };
        self.scatter(st, chunk, cursors, |t| match hot.lookup(t.key) {
            None => Route::Radix,
            Some(k) => {
                probe.emit(k as usize, t);
                Route::Consumed
            }
        });
        self.skew_probes.fetch_add(probe.probes, Ordering::Relaxed);
        self.skew_results
            .fetch_add(probe.results, Ordering::Relaxed);
    }

    /// Last scatter of `side` finished: hand every pass-0 partition to the
    /// next stage.
    fn side_scattered(&self, side: Side, w: &Worker<'_, Task>) {
        if side == Side::R && self.hot.is_some() {
            self.arm_s_scatter(Side::R, w);
        }
        let st = self.side(side);
        if self.passes == 1 {
            // No refine passes: pass-0 partitions are final.
            for (j, &v) in st.starts().iter().take(self.fanout0).enumerate() {
                // SAFETY: single writer (this task), in bounds by length.
                unsafe { st.child_starts.write(j, v) };
            }
            for parent in 0..self.fanout0 {
                self.arm_gate(parent, side, w);
            }
            self.side_done(side);
        } else {
            for parent in 0..self.fanout0 {
                w.spawn(Task::Refine { side, parent });
            }
        }
    }

    /// Runs radix passes `1..passes` over one pass-0 partition, locally and
    /// stably, then publishes the partition's final tuples and child start
    /// offsets.
    fn run_refine(&self, side: Side, parent: usize, w: &Worker<'_, Task>) {
        if self.cfg.cancel.is_cancelled() {
            return;
        }
        let st = self.side(side);
        st.morsels.fetch_add(1, Ordering::Relaxed);
        let p0 = st.starts();
        let (base, end) = (p0[parent], p0[parent + 1]);
        // Each pass reads this parent's range of one buffer and scatters it
        // into the same range of the other, starting from scratch into
        // finals; no pass allocates a copy of the partition.
        let (mut src, mut dst) = (st.scratch, st.finals);
        // Local partition directory, refined one pass at a time. Starting
        // from MSD pass 0, each subsequent stable counting sort nests the
        // children in memory order.
        let mut dir: Vec<usize> = vec![0, end - base];
        let mut pids = [0u32; HASH_BATCH];
        for pass in 1..self.passes {
            let fanout = self.radix.fanout(pass);
            let parents = dir.len() - 1;
            let (mixed, shift, mask) = pass_spec(&self.radix, pass);
            let mut child = vec![0usize; parents * fanout + 1];
            // SAFETY: spawned (transitively) by the last Scatter finisher, so
            // every scatter write happens-before via the countdown + queue
            // handoff; `[base, end)` of both buffers belongs to this parent
            // alone, and the previous pass finished writing `src`.
            let data = unsafe { src.slice(base..end) };
            for p in 0..parents {
                let lo = dir[p];
                let slice = &data[lo..dir[p + 1]];
                let mut cursors = histogram(slice, &self.radix, pass);
                exclusive_prefix_sum(&mut cursors);
                for (j, &c) in cursors.iter().enumerate() {
                    child[p * fanout + j] = lo + c;
                }
                for batch in slice.chunks(HASH_BATCH) {
                    simd::hash_indices(self.simd, batch, mixed, shift, mask, &mut pids);
                    for (t, &pid) in batch.iter().zip(&pids) {
                        let cursor = &mut cursors[pid as usize];
                        // SAFETY: `base + lo + cursor` stays inside this
                        // parent's range of the other buffer.
                        unsafe { dst.write(base + lo + *cursor, *t) };
                        *cursor += 1;
                    }
                }
            }
            *child.last_mut().expect("non-empty directory") = end - base;
            dir = child;
            std::mem::swap(&mut src, &mut dst);
        }
        debug_assert_eq!(dir.len() - 1, self.fanout_rest);
        // SAFETY: disjoint destination ranges/slots per parent (see the
        // `child_starts` field docs); readers are gated on `arm_gate`.
        unsafe {
            if self.passes % 2 == 1 {
                // An even number of refine passes ended in scratch.
                st.finals
                    .copy_from(base, st.scratch.slice(base..end).as_ptr(), end - base);
            }
            for (j, &d) in dir.iter().take(self.fanout_rest).enumerate() {
                st.child_starts
                    .write(parent * self.fanout_rest + j, base + d);
            }
        }
        self.arm_gate(parent, side, w);
        if st.refines_left.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.side_done(side);
        }
    }

    /// Marks `side`'s contribution to pass-0 partition `parent` complete;
    /// the second arrival spawns the partition's join tasks.
    fn arm_gate(&self, parent: usize, side: Side, w: &Worker<'_, Task>) {
        let bit = 1u8 << (side as usize);
        let prev = self.gates[parent].fetch_or(bit, Ordering::AcqRel);
        debug_assert_eq!(prev & bit, 0, "partition gate armed twice by one side");
        if prev != 0 {
            self.spawn_joins(parent, w);
        }
    }

    /// Range of final child `j` under pass-0 partition `parent` on `side`.
    ///
    /// # Safety
    /// `side`'s starts for `parent` must be published (its gate bit set,
    /// observed with Acquire) or the run must be over.
    unsafe fn child_range(&self, side: Side, parent: usize, j: usize) -> Range<usize> {
        let st = self.side(side);
        let start = unsafe { st.child_starts.read(parent * self.fanout_rest + j) };
        let end = if j + 1 < self.fanout_rest {
            unsafe { st.child_starts.read(parent * self.fanout_rest + j + 1) }
        } else {
            st.starts()[parent + 1]
        };
        start..end
    }

    fn spawn_joins(&self, parent: usize, w: &Worker<'_, Task>) {
        let shift = self.radix.total_bits();
        for j in 0..self.fanout_rest {
            // SAFETY: called from the gate's second arm; the `fetch_or`'s
            // Acquire pairs with the publishing side's Release, so both
            // sides' child offsets (and tuple data) are visible.
            let r_range = unsafe { self.child_range(Side::R, parent, j) };
            let s_range = unsafe { self.child_range(Side::S, parent, j) };
            if r_range.is_empty() || s_range.is_empty() {
                continue;
            }
            w.spawn(Task::Join(JoinTask {
                r_buf: TupleBuf::Raw(self.side(Side::R).finals),
                r_range,
                s_buf: TupleBuf::Raw(self.side(Side::S).finals),
                s_range,
                shift,
                depth: 0,
            }));
        }
    }

    /// Advances the furthest stage to `stage`, timestamping every stage
    /// boundary crossed.
    fn reach(&self, stage: Stage) {
        let prev = self.stage.fetch_max(stage, Ordering::AcqRel);
        if prev < stage {
            let ns = self.started.elapsed().as_nanos().max(1) as u64;
            for crossed in prev + 1..=stage {
                self.stage_ns[crossed - 1].store(ns, Ordering::Release);
            }
        }
    }

    /// One side finished partitioning; R's finish ends R's stage, the
    /// second side's ends partitioning altogether.
    fn side_done(&self, side: Side) {
        if side == Side::R {
            self.reach(STAGE_S);
        }
        if self.sides_left.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.reach(STAGE_JOIN);
        }
    }

    /// Phase to blame for a cancellation observed after the run drained.
    fn progress_phase(&self) -> &'static str {
        let stage = if self.join_started.load(Ordering::Relaxed) {
            STAGE_JOIN
        } else {
            self.stage.load(Ordering::Acquire)
        };
        self.flavor.phases()[stage]
    }

    /// Phase to blame for the first worker panic.
    fn panic_phase(&self) -> &'static str {
        match self.error_stage.load(Ordering::Acquire) {
            // Panic outside the dispatcher (scheduler failpoints, sink
            // setup): fall back to pipeline progress.
            0 => self.progress_phase(),
            stage => self.flavor.phases()[stage - 1],
        }
    }

    /// Records per-phase times, partition counts, and trace counters.
    fn record(&self, stats: &mut JoinStats, sched: SchedStats) {
        let wall = self.started.elapsed();
        let at =
            |i: usize| Duration::from_nanos(self.stage_ns[i].load(Ordering::Acquire)).min(wall);
        let (r_end, partition_end) = (at(0), at(1).max(at(0)));
        let nonzero = |d: Duration| d.max(Duration::from_nanos(1));
        let [phase_r, phase_s, phase_join] = self.flavor.phases();
        if phase_r == phase_s {
            stats.phases.record(phase_r, nonzero(partition_end));
        } else {
            stats.phases.record(phase_r, nonzero(r_end));
            stats.phases.record(phase_s, nonzero(partition_end - r_end));
        }
        stats
            .phases
            .record(phase_join, nonzero(wall - partition_end));
        let total_fanout = self.radix.total_fanout();
        stats.partitions = total_fanout;

        let skew_probes = self.skew_probes.load(Ordering::Relaxed);
        for (side, name) in [(Side::R, phase_r), (Side::S, phase_s)] {
            let st = self.side(side);
            let stored = *st.starts().last().expect("non-empty starts") as u64;
            let consumed = if side == Side::S { skew_probes } else { 0 };
            let p = stats.trace.phase(name);
            p.add(counter::TUPLES_IN, st.input.len() as u64);
            p.add(counter::TUPLES_OUT, stored + consumed);
            p.set(counter::PARTITIONS, total_fanout as u64);
            p.set(counter::RADIX_BITS, u64::from(self.radix.total_bits()));
            p.set(counter::RADIX_PASSES, self.passes as u64);
            p.add(counter::MORSELS, st.morsels.load(Ordering::Relaxed));
        }
        if let Flavor::Csh(_) = self.flavor {
            stats.skew_path_results = self.skew_results.load(Ordering::Relaxed);
            let p = stats.trace.phase(phase_s);
            p.set("skew_probe_tuples", skew_probes);
            p.set("skew_results", stats.skew_path_results);
        }
        let report = self.join.report(sched);
        report.record(&mut stats.trace, phase_join);
        stats
            .trace
            .phase(phase_join)
            .add(counter::MORSELS, report.tasks_run);
    }
}

/// One S Scatter task's hot-tuple fast path. It lives outside the scatter
/// loop's closure, and its `emit` out of line, so the loop stays as tight
/// as Cbase's for the cold tuples, which are nearly all of them.
struct HotProbe<'p, S> {
    /// R's hot runs, back to back.
    runs: &'p [Tuple],
    /// Run boundaries in R's scratch buffer (`runs` starts at `starts[0]`).
    starts: &'p [usize],
    sink: &'p mut S,
    cancel: &'p CancelToken,
    /// Hot S tuples seen, and the results they emitted.
    probes: u64,
    results: u64,
    /// A cancel was observed; later hot tuples emit nothing.
    stopped: bool,
}

impl<S: OutputSink> HotProbe<'_, S> {
    /// Emits hot S tuple `t`'s results against the run of hot key `k`.
    #[inline(never)]
    fn emit(&mut self, k: usize, t: &Tuple) {
        if self.probes.is_multiple_of(HOT_POLL_INTERVAL) {
            self.stopped = self.stopped || self.cancel.is_cancelled();
        }
        self.probes += 1;
        if self.stopped {
            return;
        }
        let base = self.starts[0];
        let run = &self.runs[self.starts[k] - base..self.starts[k + 1] - base];
        self.sink.emit_r_run(t.key, run, t.payload);
        self.results += run.len() as u64;
    }
}

/// Runs the full morsel-driven partition→build→probe pipeline for `flavor`,
/// partitioning with `cfg`'s pinned radix or the one derived from `r`'s
/// size ([`CpuJoinConfig::radix_for`]).
///
/// Creates one sink per thread via `make_sink`, drives all stages through a
/// single scheduler run, and records per-phase times, partition counts, and
/// trace counters — CSH's `skew_path_results` included — into `stats`
/// (result aggregation is left to the caller, which owns the returned
/// sinks).
pub(crate) fn run_pipeline<S, F>(
    r: &Relation,
    s: &Relation,
    cfg: &CpuJoinConfig,
    flavor: Flavor<'_>,
    make_sink: &F,
    stats: &mut JoinStats,
) -> Result<Vec<S>, JoinError>
where
    S: OutputSink,
    F: Fn(usize) -> S + Sync,
{
    cfg.cancel.check(flavor.phases()[STAGE_R])?;
    let mut bufs = Buffers::new(r, s, cfg);
    let pipeline = Pipeline::new(r, s, cfg, flavor, &mut bufs);
    let (sinks, sched) = pipeline.execute(make_sink)?;
    pipeline.record(stats, sched);
    Ok(sinks)
}

#[cfg(test)]
pub(crate) mod tests {
    use skewjoin_common::hash::{RadixConfig, RadixMode};
    use skewjoin_common::CountingSink;
    use skewjoin_datagen::{PaperWorkload, WorkloadSpec};

    use super::*;
    use crate::cbase::cbase_join;
    use crate::csh::csh_join;
    use crate::reference::reference_join;
    use crate::simd::SimdPolicy;

    /// Final layout of one pipeline run, read back after the run drained — the
    /// partitioning contract the unit tests check.
    pub(crate) struct Layout {
        /// Per side, every final partition's tuples, in memory order.
        pub(crate) parts: [Vec<Vec<Tuple>>; 2],
        /// R's hot runs, one per checkup-table key (hot-key hook only).
        pub(crate) hot_runs: Vec<Vec<Tuple>>,
    }

    /// Runs the pipeline over `r` and `s` with counting sinks and returns its
    /// final layout.
    pub(crate) fn partition_layout(
        r: &Relation,
        s: &Relation,
        cfg: &CpuJoinConfig,
        flavor: Flavor<'_>,
    ) -> Layout {
        let mut bufs = Buffers::new(r, s, cfg);
        let pipeline = Pipeline::new(r, s, cfg, flavor, &mut bufs);
        pipeline
            .execute(&|_| CountingSink::new())
            .expect("pipeline run");
        let parts = |side: Side| -> Vec<Vec<Tuple>> {
            let st = pipeline.side(side);
            (0..pipeline.fanout0)
                .flat_map(|parent| (0..pipeline.fanout_rest).map(move |j| (parent, j)))
                // SAFETY: the run is over — every worker joined — so all starts
                // and tuples are published and nothing writes them any more.
                .map(|(parent, j)| unsafe {
                    st.finals
                        .slice(pipeline.child_range(side, parent, j))
                        .to_vec()
                })
                .collect()
        };
        let r_side = pipeline.side(Side::R);
        let hot_runs = r_side.starts()[pipeline.fanout0..]
            .windows(2)
            // SAFETY: as above; hot runs live in R's scratch buffer.
            .map(|w| unsafe { r_side.scratch.slice(w[0]..w[1]) }.to_vec())
            .collect();
        Layout {
            parts: [parts(Side::R), parts(Side::S)],
            hot_runs,
        }
    }

    fn inputs(tuples: usize, zipf: f64, seed: u64) -> (Relation, Relation) {
        let w = PaperWorkload::generate(WorkloadSpec::paper(tuples, zipf, seed));
        (w.r, w.s)
    }

    fn run(cfg: &CpuJoinConfig, r: &Relation, s: &Relation) -> (u64, u64, JoinStats) {
        let out = cbase_join(r, s, cfg, |_| CountingSink::new()).expect("join");
        (out.stats.result_count, out.stats.checksum, out.stats)
    }

    fn run_csh(cfg: &CpuJoinConfig, r: &Relation, s: &Relation) -> (u64, u64, JoinStats) {
        let out = csh_join(r, s, cfg, |_| CountingSink::new()).expect("csh join");
        (out.stats.result_count, out.stats.checksum, out.stats)
    }

    fn expected(r: &Relation, s: &Relation) -> (u64, u64) {
        let mut sink = CountingSink::new();
        let stats = reference_join(r, s, &mut sink);
        (stats.result_count, stats.checksum)
    }

    #[test]
    fn matches_reference_multi_morsel() {
        let (r, s) = inputs(60_000, 0.9, 7);
        let (exp_count, exp_checksum) = expected(&r, &s);
        let mut cfg = CpuJoinConfig::with_threads(4);
        cfg.morsel_tuples = 4096; // force many segments per side
        let (count, checksum, stats) = run(&cfg, &r, &s);
        assert_eq!(count, exp_count);
        assert_eq!(checksum, exp_checksum);
        let morsels = stats.trace.get("partition", counter::MORSELS).unwrap_or(0);
        // ~15 hist + ~15 scatter segments per side plus one refine per
        // pass-0 partition: well above the one-task-per-thread barrier era.
        assert!(
            morsels > 40,
            "expected many partition morsels, got {morsels}"
        );
        assert!(stats.trace.get("join", counter::MORSELS).unwrap_or(0) > 0);
    }

    #[test]
    fn morsel_size_invariance() {
        let (r, s) = inputs(40_000, 1.2, 11);
        // The hottest key's R run spans many segments at the small sizes,
        // so CSH's per-key run is stitched from several Scatter tasks.
        let mut freq = std::collections::HashMap::new();
        for t in r.tuples() {
            *freq.entry(t.key).or_insert(0usize) += 1;
        }
        let hottest = freq.values().copied().max().unwrap_or(0);
        assert!(
            hottest > 4 * 1024,
            "hottest R key has only {hottest} tuples"
        );
        let mut baseline = None;
        for morsel_tuples in [256, 1024, 4096, 40_000, 1 << 20] {
            let mut cfg = CpuJoinConfig::with_threads(3);
            cfg.morsel_tuples = morsel_tuples;
            let (count, checksum, _) = run(&cfg, &r, &s);
            let (csh_count, csh_checksum, csh) = run_csh(&cfg, &r, &s);
            assert!(csh.skewed_keys_detected >= 1);
            assert_eq!(
                (csh_count, csh_checksum),
                (count, checksum),
                "CSH disagrees with Cbase at morsel_tuples={morsel_tuples}"
            );
            match baseline {
                None => baseline = Some((count, checksum)),
                Some(b) => assert_eq!(
                    (count, checksum),
                    b,
                    "result changed at morsel_tuples={morsel_tuples}"
                ),
            }
        }
    }

    #[test]
    fn simd_and_scalar_agree_end_to_end() {
        let (r, s) = inputs(50_000, 1.5, 13);
        let mut scalar_cfg = CpuJoinConfig::with_threads(4);
        scalar_cfg.simd = SimdPolicy::Scalar;
        let mut auto_cfg = CpuJoinConfig::with_threads(4);
        auto_cfg.simd = SimdPolicy::Auto;
        assert_eq!(run(&scalar_cfg, &r, &s).0, run(&auto_cfg, &r, &s).0);
        assert_eq!(run(&scalar_cfg, &r, &s).1, run(&auto_cfg, &r, &s).1);
    }

    #[test]
    fn single_pass_and_three_pass_configs() {
        let (r, s) = inputs(30_000, 0.5, 17);
        let (skewed_r, skewed_s) = inputs(30_000, 1.0, 17);
        let (exp_count, exp_checksum) = expected(&r, &s);
        let skewed_expected = expected(&skewed_r, &skewed_s);
        for bits in [vec![6u32], vec![4, 4, 4]] {
            let mut cfg = CpuJoinConfig::with_threads(2);
            cfg.radix = Some(RadixConfig {
                bits_per_pass: bits.clone(),
                mode: RadixMode::Mixed,
            });
            let fanout = cfg.radix_for(r.len()).total_fanout();
            let (count, checksum, stats) = run(&cfg, &r, &s);
            assert_eq!(count, exp_count, "bits_per_pass={bits:?}");
            assert_eq!(checksum, exp_checksum, "bits_per_pass={bits:?}");
            assert_eq!(stats.partitions, fanout);
            // CSH with its hook engaged: hot runs sit past the radix
            // buckets whatever the number of refine passes.
            let (count, checksum, stats) = run_csh(&cfg, &skewed_r, &skewed_s);
            assert!(stats.skewed_keys_detected >= 1, "bits_per_pass={bits:?}");
            assert_eq!(
                (count, checksum),
                skewed_expected,
                "CSH bits_per_pass={bits:?}"
            );
            assert_eq!(stats.partitions, fanout);
        }
    }

    #[test]
    fn default_radix_is_derived_from_the_build_side_and_a_pin_overrides_it() {
        for (tuples, zipf) in [(1 << 12, 0.5), (1 << 15, 1.0), (20_000, 0.0)] {
            let (r, s) = inputs(tuples, zipf, 23);
            let pin = RadixConfig::two_pass(12);
            let derived = CpuJoinConfig::derived_radix(r.len());
            for (radix, expect) in [(None, derived), (Some(pin.clone()), pin)] {
                let cfg = CpuJoinConfig {
                    radix,
                    ..CpuJoinConfig::with_threads(2)
                };
                let (.., cbase) = run(&cfg, &r, &s);
                let (.., csh) = run_csh(&cfg, &r, &s);
                for (stats, phase) in [
                    (&cbase, "partition"),
                    (&csh, "partition_r"),
                    (&csh, "partition_s"),
                ] {
                    let got = |name| stats.trace.get(phase, name).unwrap_or(0) as usize;
                    let layout = (
                        stats.partitions,
                        got(counter::RADIX_BITS),
                        got(counter::RADIX_PASSES),
                    );
                    let want = (
                        expect.total_fanout(),
                        expect.total_bits() as usize,
                        expect.bits_per_pass.len(),
                    );
                    assert_eq!(layout, want, "{tuples} tuples, {phase}, {cfg:?}");
                }
            }
        }
    }

    #[test]
    fn empty_sides_flow_through_pipeline() {
        let (r, s) = inputs(10_000, 0.0, 19);
        let (hot_r, hot_s) = inputs(10_000, 1.2, 19);
        let empty = Relation::new();
        let cfg = CpuJoinConfig::with_threads(2);
        assert_eq!(run(&cfg, &empty, &s).0, 0);
        assert_eq!(run(&cfg, &r, &empty).0, 0);
        assert_eq!(run(&cfg, &empty, &empty).0, 0);
        assert_eq!(run_csh(&cfg, &empty, &hot_s).0, 0);
        assert_eq!(run_csh(&cfg, &empty, &empty).0, 0);
        // Hot keys detected in R, but no S tuple to emit against them.
        let (count, _, stats) = run_csh(&cfg, &hot_r, &empty);
        assert_eq!(count, 0);
        assert!(stats.skewed_keys_detected >= 1);
    }

    #[test]
    fn csh_without_hot_keys_is_cbase() {
        // Distinct keys: the checkup table is empty, the hook is absent,
        // and CSH runs Cbase's exact path.
        let keys: Vec<u32> = (0..20_000u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let r = Relation::from_keys(&keys);
        let s = Relation::from_keys(&keys[5_000..]);
        let cfg = CpuJoinConfig::with_threads(3);
        let (count, checksum, cbase) = run(&cfg, &r, &s);
        let (csh_count, csh_checksum, csh) = run_csh(&cfg, &r, &s);
        assert_eq!(csh.skewed_keys_detected, 0);
        assert_eq!((csh_count, csh_checksum), (count, checksum));
        assert_eq!(csh.partitions, cbase.partitions);
        assert_eq!(csh.skew_path_results, 0);
        assert_eq!(csh.trace.get("partition_s", "skew_probe_tuples"), Some(0));
        let work = |stats: &JoinStats, phase| {
            stats.trace.get(phase, counter::BUILD_TUPLES).unwrap_or(0)
                + stats.trace.get(phase, counter::PROBE_TUPLES).unwrap_or(0)
        };
        assert_eq!(work(&csh, "nm_join"), work(&cbase, "join"));
    }
}
