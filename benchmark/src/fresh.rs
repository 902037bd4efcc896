//! `fresh_mixed`: reads that pay the MVCC overlay while writes compete with
//! merges.
//!
//! 20,000 dim-128 vectors in 8 segments, merged at start. One open-loop
//! writer commits 400 single-vector transactions a second, mixing
//! re-upserts, fresh inserts and deletes in fixed shares, in an order drawn
//! from the seed. One closed-loop reader calls `Server::vector_top_k`. After
//! every 2,000 committed deltas the writer thread runs `delta_merge`,
//! `index_merge` and `prune` itself, so commits that fall due meanwhile wait
//! for the merge (they are timed from their due time). The reader holds off
//! while a vacuum pass runs, so read figures measure the MVCC overlay of up
//! to 2,000 unmerged deltas and not a two-core VM's scheduler sharing the
//! cores with a merge. The graph is in memory with no WAL: an fdatasync
//! costs tens of microseconds and varies between trials, which would bury
//! the commit's own cost; WAL cost is measured by `recovery_bench`.

use crate::run::{
    merge_all, op_id, read_phases, record_merge, repeated_setup, stamp_provenance,
    traced_server_top_k, Args, Report, K, SETUP_REPS,
};
use crate::util::{kernel_ns_per_row, open_loop_commits, permutation, recall, Slab, COMMIT_RATE};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tg_graph::{AccessControl, Graph, Role};
use tg_storage::{AttrType, AttrValue};
use tv_common::ids::SegmentLayout;
use tv_common::{DistanceMetric, SplitMix64, Tid, TvResult, VertexId};
use tv_datagen::{DatasetShape, VectorDataset};
use tv_embedding::{EmbeddingTypeDef, ServiceConfig};
use tv_server::{Server, ServerConfig};

const LIVE: usize = 20_000;
const SEGMENTS: usize = 8;
const CAPACITY: usize = 2_560;
const SLOTS: usize = SEGMENTS * CAPACITY;
const DIM: usize = 128;
const QUERIES: usize = 1000;
/// Committed deltas between two vacuum passes.
const VACUUM_EVERY: usize = 2_000;
/// Time between vacuum passes at the writer's rate. Reads and commits are
/// summarised per cycle (median over cycles); the writer starts half a cycle
/// before measuring, so every cycle holds one merge in its middle.
const VACUUM_CYCLE: Duration = Duration::from_secs(VACUUM_EVERY as u64 / COMMIT_RATE as u64);
/// Writes the writer may issue in one run (far above 400/s × 60 s).
const MAX_COMMITS: usize = 40_000;
/// Answers whose read TID is known exactly and that are scored for recall.
const MAX_RECALL_SAMPLES: usize = 1_500;
const RECALL_FLOOR: f64 = 0.85;
/// In the traced half, one operation in this many is traced.
const TRACE_EVERY: u64 = 4;
/// Shares of the writer's ops; the rest are deletes. Inserts and deletes
/// balance, so the live count stays near 20,000.
const REUPSERT_SHARE: f64 = 0.6;
const INSERT_SHARE: f64 = 0.2;
/// Spread of a rewritten vector around its source row.
const WRITE_NOISE: f64 = 8.0;

struct System {
    graph: Arc<Graph>,
    doc: u32,
    attr: u32,
    ids: Vec<VertexId>,
    base: Vec<Vec<f32>>,
    live0: Vec<bool>,
    queries: Vec<Vec<f32>>,
    merge: (f64, f64, usize),
}

fn build(seed: u64) -> TvResult<System> {
    let ds = VectorDataset::generate_dim(DatasetShape::Sift, DIM, SLOTS, QUERIES, seed);
    let mut rng = SplitMix64::new(seed ^ 0xF4E5);
    let mut live0 = vec![true; SLOTS];
    for &i in permutation(SLOTS, &mut rng).iter().take(SLOTS - LIVE) {
        live0[i] = false;
    }
    let graph = Graph::with_config(
        SegmentLayout::with_capacity(CAPACITY),
        ServiceConfig::default(),
    );
    let doc = graph.create_vertex_type("Doc", &[("shard", AttrType::Int)])?;
    let attr = graph.add_embedding_attribute(
        "Doc",
        EmbeddingTypeDef::new("emb", DIM, "SIFT", DistanceMetric::L2),
    )?;
    let ids = graph.allocate_many(doc, SLOTS)?;
    let loaded: Vec<usize> = (0..SLOTS).filter(|&i| live0[i]).collect();
    for chunk in loaded.chunks(5000) {
        let mut txn = graph.txn();
        for &i in chunk {
            txn = txn
                .upsert_vertex(doc, ids[i], vec![AttrValue::Int((i % 8) as i64)])
                .set_vector(attr, ids[i], ds.base[i].clone());
        }
        txn.commit()?;
    }
    let merge = merge_all(&graph, &[attr], tv_common::pool::default_width())?;
    Ok(System {
        graph: Arc::new(graph),
        doc,
        attr,
        ids,
        base: ds.base,
        live0,
        queries: ds.queries,
        merge,
    })
}

/// One committed write: its TID, the slot and the vector it left (None for
/// a delete).
type Write = (Tid, usize, Option<Vec<f32>>);

/// The writer's op mix and its view of which slots are live.
struct Writer {
    rng: SplitMix64,
    live: Vec<usize>,
    pos: Vec<usize>,
    absent: Vec<usize>,
}

impl Writer {
    fn new(seed: u64, live0: &[bool]) -> Self {
        let rng = SplitMix64::new(seed ^ 0x3417E);
        let mut live = Vec::new();
        let mut pos = vec![usize::MAX; live0.len()];
        let mut absent = Vec::new();
        for (i, &l) in live0.iter().enumerate() {
            if l {
                pos[i] = live.len();
                live.push(i);
            } else {
                absent.push(i);
            }
        }
        Writer {
            rng,
            live,
            pos,
            absent,
        }
    }

    fn take_live(&mut self, i: usize) {
        let p = self.pos[i];
        let last = *self.live.last().expect("a live slot");
        self.live.swap_remove(p);
        if last != i {
            self.pos[last] = p;
        }
        self.pos[i] = usize::MAX;
    }

    /// Perform one commit; returns what it wrote.
    fn commit(&mut self, sys: &System) -> TvResult<Write> {
        let g = &sys.graph;
        let u = self.rng.next_f64();
        let vector = |rng: &mut SplitMix64| -> Vec<f32> {
            let src = &sys.base[rng.next_below(SLOTS as u64) as usize];
            src.iter()
                .map(|&x| x + (rng.next_gaussian() * WRITE_NOISE) as f32)
                .collect()
        };
        if u >= REUPSERT_SHARE + INSERT_SHARE && self.live.len() > 1 {
            let i = self.live[self.rng.next_below(self.live.len() as u64) as usize];
            let tid = g.txn().delete_vertex(sys.doc, sys.ids[i]).commit()?;
            self.take_live(i);
            self.absent.push(i);
            return Ok((tid, i, None));
        }
        if u >= REUPSERT_SHARE && !self.absent.is_empty() {
            let a = self.rng.next_below(self.absent.len() as u64) as usize;
            let i = self.absent.swap_remove(a);
            let v = vector(&mut self.rng);
            let tid = g
                .txn()
                .upsert_vertex(sys.doc, sys.ids[i], vec![AttrValue::Int((i % 8) as i64)])
                .set_vector(sys.attr, sys.ids[i], v.clone())
                .commit()?;
            self.pos[i] = self.live.len();
            self.live.push(i);
            return Ok((tid, i, Some(v)));
        }
        let i = self.live[self.rng.next_below(self.live.len() as u64) as usize];
        let v = vector(&mut self.rng);
        let tid = g
            .txn()
            .set_vector(sys.attr, sys.ids[i], v.clone())
            .commit()?;
        Ok((tid, i, Some(v)))
    }
}

/// Liveness history of every slot: `(tid, live)` changes in TID order.
struct History {
    changes: Vec<Vec<(Tid, bool)>>,
}

impl History {
    fn new(live0: &[bool], writes: &[Write]) -> Self {
        let mut changes: Vec<Vec<(Tid, bool)>> = live0.iter().map(|&l| vec![(Tid(0), l)]).collect();
        for (tid, slot, v) in writes {
            changes[*slot].push((*tid, v.is_some()));
        }
        History { changes }
    }

    /// Whether `slot` was live at some TID in `[t0, t1]`.
    fn live_within(&self, slot: usize, t0: Tid, t1: Tid) -> bool {
        let ch = &self.changes[slot];
        let at_t0 = ch.iter().rev().find(|(t, _)| *t <= t0).is_some_and(|c| c.1);
        at_t0 || ch.iter().any(|(t, l)| *t > t0 && *t <= t1 && *l)
    }
}

/// Run the workload.
pub fn run(args: &Args) -> TvResult<Report> {
    let mut report = Report::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (sys, setup_s) = repeated_setup(reps, || build(args.seed))?;
    report.setup_s = setup_s;
    let (delta_ms, index_ms, rows) = sys.merge;
    record_merge(&mut report.extra, delta_ms, index_ms, rows);
    let row_of: HashMap<VertexId, usize> =
        sys.ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();

    let acl = Arc::new(AccessControl::new());
    acl.define_role("reader", Role::default().allow_type(sys.doc));
    acl.assign("reader-user", "reader")?;
    let server = Server::new(
        Arc::clone(&sys.graph),
        Arc::clone(&acl),
        ServerConfig::default(),
    );
    let session = server.open_session("reader", "reader-user");

    let stop = AtomicBool::new(false);
    let vacuuming = AtomicBool::new(false);
    let writes: Mutex<Vec<Write>> = Mutex::new(Vec::new());
    let merges: Mutex<Vec<(f64, f64, usize)>> = Mutex::new(Vec::new());
    let vacuum_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let mut writer = Writer::new(args.seed, &sys.live0);
    let pick = |seq: u64| seq as usize % QUERIES;

    let (logs, wlog) = std::thread::scope(|s| {
        let writer_thread = s.spawn(|| {
            let committed = Cell::new(0usize);
            open_loop_commits(
                MAX_COMMITS,
                &stop,
                |_| {
                    let w = writer.commit(&sys)?;
                    writes.lock().expect("write log poisoned").push(w);
                    committed.set(committed.get() + 1);
                    Ok(())
                },
                |_| {
                    if committed.get() == 0 || !committed.get().is_multiple_of(VACUUM_EVERY) {
                        return;
                    }
                    vacuuming.store(true, Ordering::SeqCst);
                    match merge_all(&sys.graph, &[sys.attr], tv_common::pool::default_width()) {
                        Ok(m) => merges.lock().expect("merge log poisoned").push(m),
                        Err(e) => vacuum_errors
                            .lock()
                            .expect("error log poisoned")
                            .push(e.to_string()),
                    }
                    vacuuming.store(false, Ordering::SeqCst);
                },
            )
        });
        let logs = read_phases(
            &mut report,
            args,
            1,
            VACUUM_CYCLE / 2,
            (args.seconds / VACUUM_CYCLE.as_secs_f64()).round() as usize,
            Some(&vacuuming),
            TRACE_EVERY,
            |_, seq| {
                let qi = pick(seq);
                let t0 = sys.graph.read_tid();
                let hits =
                    server.vector_top_k(&session, &[sys.attr], sys.queries[qi].clone(), K)?;
                let t1 = sys.graph.read_tid();
                Ok((qi, t0, t1, hits))
            },
            |c, seq, tr, acc| {
                let qi = pick(seq);
                let (hits, t0, t1) = traced_server_top_k(
                    &server,
                    &acl,
                    &session,
                    sys.attr,
                    &sys.queries[qi],
                    op_id(c, seq),
                    tr,
                    acc,
                )?;
                Ok((qi, t0, t1, hits))
            },
        );
        stop.store(true, Ordering::SeqCst);
        let wlog = writer_thread.join().expect("writer thread panicked");
        (logs, wlog)
    });
    let cycle = (VACUUM_CYCLE.as_secs_f64() * COMMIT_RATE).round() as usize;
    report.add_writes(&wlog, cycle / 2, cycle);
    for e in vacuum_errors.into_inner().expect("error log poisoned") {
        report.violations.push(format!("vacuum failed: {e}"));
    }
    let merges = merges.into_inner().expect("merge log poisoned");
    if !merges.is_empty() {
        let n = merges.len() as f64;
        let delta_ms = merges.iter().map(|m| m.0).sum::<f64>() / n;
        let index_ms = merges.iter().map(|m| m.1).sum::<f64>() / n;
        let rows = merges.iter().map(|m| m.2).sum::<usize>() / merges.len();
        record_merge(&mut report.extra, delta_ms, index_ms, rows);
    }
    report.resident_mb = sys.graph.embeddings().memory_bytes() as f64 / 1e6;
    report.extra.batch_size = crate::trace::batch_size(&server);
    stamp_provenance(&sys.graph, &[sys.attr]);

    // Correctness against the benchmark's own MVCC copy: no answer may hold
    // an id deleted at every TID the read could have used, and answers whose
    // read TID is known exactly are scored for recall.
    let writes = writes.into_inner().expect("write log poisoned");
    let history = History::new(&sys.live0, &writes);
    let mut stale = 0usize;
    let mut exact_tid = Vec::new();
    for log in &logs {
        for (_, (qi, t0, t1, hits)) in &log.ok {
            let slots: Vec<usize> = hits
                .iter()
                .filter_map(|h| row_of.get(&h.neighbor.id).copied())
                .collect();
            stale += hits.len() - slots.len();
            stale += slots
                .iter()
                .filter(|&&i| !history.live_within(i, *t0, *t1))
                .count();
            if t0 == t1 {
                exact_tid.push((*t0, *qi, slots));
            }
        }
    }
    if stale > 0 {
        report
            .violations
            .push(format!("{stale} returned ids were deleted at the read TID"));
    }
    exact_tid.sort_by_key(|(t, qi, _)| (*t, *qi));
    let stride = exact_tid.len().div_ceil(MAX_RECALL_SAMPLES).max(1);
    let mut slab = Slab::from_rows(DIM, &sys.base);
    let mut live = sys.live0.clone();
    let mut applied = 0usize;
    let mut scratch = Vec::new();
    let mut samples = Vec::new();
    for (tid, qi, got) in exact_tid.iter().step_by(stride) {
        while applied < writes.len() && writes[applied].0 <= *tid {
            let (_, slot, v) = &writes[applied];
            live[*slot] = v.is_some();
            if let Some(v) = v {
                slab.data[slot * DIM..(slot + 1) * DIM].copy_from_slice(v);
            }
            applied += 1;
        }
        let want = slab.exact_top_k(&sys.queries[*qi], K, &mut scratch, |i| live[i]);
        samples.extend(recall(got, &want));
    }
    report.set_recall(&samples, RECALL_FLOOR);
    if args.trace {
        report.extra.kernel_ns_per_row = kernel_ns_per_row(&slab);
    }
    Ok(report)
}
