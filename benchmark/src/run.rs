//! Plumbing shared by the workloads: arguments, the report every workload
//! fills, repeated set-up, the read phases and the traced vector top-k.

use crate::trace::{peel_vector, would_queue, Extra, Layers, Span, Tracer};
use crate::util::{closed_loop, median, p50_tail, quantile_sorted, ClientLog, KeepAwake, WriteLog};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tg_graph::{AccessControl, Graph};
use tv_common::{Tid, TvError, TvResult};
use tv_embedding::TypedNeighbor;
use tv_server::{Server, Session};

/// Result rows per query (the shipped default `k`).
pub const K: usize = 10;

/// Closed-loop read clients of `topk_merged` and `hybrid_gsql`. With two,
/// the clients' pool fan-outs and graph scans shared the two vCPUs, and the
/// drift of the host's speed moved whole runs by up to 1.5x: across 10 seeds
/// `qps` and `p50_ms` spread by 0.23–0.25 of their median on `topk_merged`
/// and up to 0.27 on `hybrid_gsql`, against 0.02–0.11 with one.
pub const CLIENTS: usize = 1;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Windows a read phase of `topk_merged` or `hybrid_gsql` is cut into (see
/// [`Report::add_reads`]).
pub const BLOCKS: usize = 20;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    /// Reads and writes attempted.
    pub attempted: u64,
    /// Reads and writes that returned an error.
    pub failed: u64,
    /// Broken correctness gates, one line each.
    pub violations: Vec<String>,
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Quantile `p99_ms` reports (below 0.99 when the sample is small).
    pub p99_q: f64,
    pub reads: usize,
    pub recall: f64,
    pub recall_samples: usize,
    pub commit_p50_us: f64,
    pub commit_p99_us: f64,
    pub commit_q: f64,
    pub commits: usize,
    pub setup_s: f64,
    pub resident_mb: f64,
    /// Extra lines for the human-readable output.
    pub notes: Vec<String>,
    /// Traced run only.
    pub layers: Layers,
    pub extra: Extra,
    pub spans: Vec<Span>,
}

impl Report {
    /// Fold a read phase's logs in: counts, throughput and latency. The phase
    /// is cut into up to `blocks` windows of equal length, each holding at
    /// least 1,000 reads, and each figure is its better decile over the
    /// windows (see [`better_decile`]).
    pub fn add_reads<R>(&mut self, logs: &[ClientLog<R>], elapsed_s: f64, blocks: usize) {
        let mut reads: Vec<(u64, u64)> = Vec::new();
        for log in logs {
            reads.extend(
                log.done_ns
                    .iter()
                    .zip(&log.ok)
                    .map(|(&d, (ns, _))| (d, *ns)),
            );
            self.failed += log.failed;
            self.attempted += log.ok.len() as u64 + log.failed;
            for e in &log.unexpected {
                self.violations.push(format!("read failed: {e}"));
            }
        }
        self.reads = reads.len();
        let blocks = blocks.min(reads.len() / 1000).max(1);
        let block_ns = elapsed_s * 1e9 / blocks as f64;
        let mut windows: Vec<Vec<u64>> = vec![Vec::new(); blocks];
        for (done, ns) in reads {
            windows[((done as f64 / block_ns) as usize).min(blocks - 1)].push(ns);
        }
        let (qps, p50, tail, q) = per_window(&windows, 1e-6);
        let window_s = block_ns / 1e9;
        let qps: Vec<f64> = qps.iter().map(|n| n / window_s).collect();
        self.qps = better_decile(&qps, true);
        self.p50_ms = better_decile(&p50, false);
        self.p99_ms = better_decile(&tail, false);
        self.p99_q = q;
        self.notes.push(window_note("read", &p50, &tail));
    }

    /// Fold an open-loop commit phase in, each commit timed from its due
    /// time. The first `skip` commits (sent while warming up) are left out;
    /// the rest are cut into runs of `chunk` commits, and each figure is its
    /// median over the runs. Unlike a read window, a run of commits also
    /// swings the other way: a commit takes 5–20 µs, and by the host's load
    /// a run finds its caches warm or cold, so the better decile would pick
    /// the lucky runs.
    pub fn add_writes(&mut self, log: &WriteLog, skip: usize, chunk: usize) {
        self.failed += log.failed;
        self.attempted += log.commit_ns.len() as u64 + log.failed;
        for e in &log.unexpected {
            self.violations.push(format!("commit failed: {e}"));
        }
        let measured = &log.commit_ns[skip.min(log.commit_ns.len())..];
        let windows: Vec<Vec<u64>> = measured
            .chunks(chunk.max(1))
            .filter(|r| r.len() * 2 >= chunk)
            .map(<[u64]>::to_vec)
            .collect();
        let (_, p50, tail, q) = per_window(&windows, 1e-3);
        self.commits = measured.len();
        self.commit_p50_us = median(&p50);
        self.commit_p99_us = median(&tail);
        self.commit_q = q;
        self.notes.push(window_note("commit", &p50, &tail));
        self.extra.commit_us = p50_tail(&log.service_ns, 1e-3).0;
        self.extra.writer_late_us = p50_tail(&log.late_ns, 1e-3).1;
    }

    /// Record a recall sample set against the floor.
    pub fn set_recall(&mut self, samples: &[f64], floor: f64) {
        self.recall_samples = samples.len();
        self.recall = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        if samples.is_empty() {
            self.violations.push("no recall sample".into());
        } else if self.recall < floor {
            self.violations.push(format!(
                "recall@10 {:.4} below the floor {floor}",
                self.recall
            ));
        }
    }
}

/// Per window: sample count, median and supported tail (scaled), plus the
/// lowest tail quantile any window supports.
fn per_window(windows: &[Vec<u64>], scale: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>, f64) {
    let (mut n, mut p50, mut tail, mut q) = (Vec::new(), Vec::new(), Vec::new(), 1.0f64);
    for w in windows {
        let (m, t, wq) = p50_tail(w, scale);
        n.push(w.len() as f64);
        p50.push(m);
        tail.push(t);
        q = q.min(wq);
    }
    (n, p50, tail, q)
}

/// The better decile of per-window figures: the upper decile when higher
/// is better, else the lower. Interference from outside the program
/// (CPU steal on a shared host, neighbours sharing caches and memory) only
/// ever slows a window down: on a 2-vCPU VM a burst moves a window by 2–5x,
/// and the neighbours' load drifts a window's median by 10–30% over tens of
/// seconds. The quietest windows measure the program; the median would
/// measure the host. Each figure is ranked by itself, so a window whose tail
/// alone was hit is left out of the tail.
fn better_decile(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, if higher_is_better { 0.9 } else { 0.1 })
}

/// One output line with each window's median and tail.
fn window_note(what: &str, p50: &[f64], tail: &[f64]) -> String {
    let cells: Vec<String> = p50
        .iter()
        .zip(tail)
        .map(|(m, t)| format!("{m:.3}/{t:.3}"))
        .collect();
    format!("{what} windows (median/tail) [{}]", cells.join(" "))
}

/// Build the system `reps` times and keep the last; returns it with the
/// median set-up time in seconds.
pub fn repeated_setup<S>(
    reps: usize,
    mut build: impl FnMut() -> TvResult<S>,
) -> TvResult<(S, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Fold deltas into every segment index: `delta_merge`, then `index_merge`
/// with `threads` merge workers, then `prune`. Returns `(delta_merge_ms,
/// index_merge_ms, rows merged)`.
pub fn merge_all(graph: &Graph, attr_ids: &[u32], threads: usize) -> TvResult<(f64, f64, usize)> {
    let emb = graph.embeddings();
    let tid = graph.read_tid();
    let t = Instant::now();
    let mut rows = 0;
    for &a in attr_ids {
        rows += emb.delta_merge(a, tid)?;
    }
    let delta_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    for &a in attr_ids {
        emb.index_merge(a, tid, threads)?;
    }
    let index_ms = t.elapsed().as_secs_f64() * 1e3;
    let horizon = graph.store().txn().vacuum_horizon().min(tid);
    emb.prune(horizon);
    Ok((delta_ms, index_ms, rows))
}

/// Record the merge figures of a set-up or vacuum in the per-layer extras.
pub fn record_merge(extra: &mut Extra, delta_ms: f64, index_ms: f64, rows: usize) {
    extra.delta_merge_ms = delta_ms;
    extra.index_merge_ms = index_ms;
    extra.index_merge_rows_per_s = if index_ms > 0.0 {
        rows as f64 / (index_ms / 1e3)
    } else {
        0.0
    };
}

/// Per-client tracing state of the traced phase.
pub struct TraceSlots {
    slots: Vec<Mutex<(Tracer, Layers)>>,
}

impl TraceSlots {
    /// One slot per client, timestamps from `epoch`.
    pub fn new(clients: usize, epoch: Instant) -> Self {
        TraceSlots {
            slots: (0..clients)
                .map(|_| Mutex::new((Tracer::new(epoch), Layers::default())))
                .collect(),
        }
    }

    /// Run `f` with client `c`'s tracer and accumulators.
    pub fn with<R>(&self, c: usize, f: impl FnOnce(&mut Tracer, &mut Layers) -> R) -> R {
        let mut g = self.slots[c].lock().expect("trace slot poisoned");
        let (tr, acc) = &mut *g;
        f(tr, acc)
    }

    /// Merge every client's spans and sums.
    pub fn finish(self) -> (Vec<Span>, Layers) {
        let mut spans = Vec::new();
        let mut layers = Layers::default();
        for s in self.slots {
            let (tr, acc) = s.into_inner().expect("trace slot poisoned");
            spans.extend(tr.spans);
            layers.merge(&acc);
        }
        (spans, layers)
    }
}

/// Operation id of client `c`'s `seq`-th operation.
pub fn op_id(c: usize, seq: u64) -> u64 {
    ((c as u64) << 40) | seq
}

/// Warm up for `warmup`, then run the read phases, cut into `blocks`
/// windows (see [`Report::add_reads`]); clients wait while `hold` is set.
/// Untraced: one closed-loop phase of
/// `seconds`, every end-to-end read metric comes from it. Traced: an
/// untraced half and a traced half; the traced half traces one operation in
/// `trace_every` through `traced` and the throughput ratio of the halves
/// gives the tracing overhead. Returns the logs the correctness gates read.
///
/// The vCPUs are kept awake ([`KeepAwake`]) from the warm-up to the end, so
/// `fresh_mixed`'s writer, which runs meanwhile, is too.
#[allow(clippy::too_many_arguments)]
pub fn read_phases<R: Send>(
    report: &mut Report,
    args: &Args,
    clients: usize,
    warmup: Duration,
    blocks: usize,
    hold: Option<&AtomicBool>,
    trace_every: u64,
    plain: impl Fn(usize, u64) -> Result<R, TvError> + Sync,
    traced: impl Fn(usize, u64, &mut Tracer, &mut Layers) -> Result<R, TvError> + Sync,
) -> Vec<ClientLog<R>> {
    let _awake = KeepAwake::start();
    let _ = closed_loop(clients, Instant::now() + warmup, hold, &plain);
    if !args.trace {
        let until = Instant::now() + Duration::from_secs_f64(args.seconds);
        let (logs, elapsed) = closed_loop(clients, until, hold, &plain);
        report.add_reads(&logs, elapsed, blocks);
        return logs;
    }
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let (mut logs, elapsed) = closed_loop(clients, Instant::now() + half, hold, &plain);
    report.add_reads(&logs, elapsed, blocks / 2);
    let untraced_qps = report.qps;
    let slots = TraceSlots::new(clients, Instant::now());
    let (traced_logs, elapsed) = closed_loop(clients, Instant::now() + half, hold, |c, seq| {
        if seq % trace_every == 0 {
            slots.with(c, |tr, acc| traced(c, seq, tr, acc))
        } else {
            plain(c, seq)
        }
    });
    let mut traced_half = Report::default();
    traced_half.add_reads(&traced_logs, elapsed, blocks / 2);
    report.attempted += traced_half.attempted;
    report.failed += traced_half.failed;
    report.violations.extend(traced_half.violations);
    report.extra.trace_overhead_frac = if untraced_qps > 0.0 {
        1.0 - traced_half.qps / untraced_qps
    } else {
        0.0
    };
    let (spans, layers) = slots.finish();
    report.extra.residual_frac = crate::trace::residual_frac(&spans);
    report.spans = spans;
    report.layers = layers;
    logs.extend(traced_logs);
    logs
}

/// One vector top-k through the server as an unrestricted session, traced:
/// the server call, then the ACL restriction and the fan-out below it issued
/// again (see [`peel_vector`]). Returns the server's answer and the read TID
/// bounds around the call.
#[allow(clippy::too_many_arguments)]
pub fn traced_server_top_k(
    server: &Server,
    acl: &AccessControl,
    session: &Session,
    attr: u32,
    query: &[f32],
    op: u64,
    tr: &mut Tracer,
    acc: &mut Layers,
) -> TvResult<(Vec<TypedNeighbor>, Tid, Tid)> {
    let graph = server.graph();
    tr.begin(op);
    if would_queue(server) {
        acc.queued += 1;
    }
    let t0 = graph.read_tid();
    let (hits, server_us) = tr.span("server.vector_top_k", || {
        server.vector_top_k(session, &[attr], query.to_vec(), K)
    });
    let t1 = graph.read_tid();
    let hits = hits?;
    let (restriction, acl_us) = tr.span("graph.acl_restriction", || {
        acl.restriction_for_attrs(graph, &session.user, &[attr], t1)
    });
    restriction?;
    let ef = graph.embeddings().config().default_ef.max(K);
    let (_, top_k_us) = peel_vector(graph, &[attr], query, K, ef, t1, None, tr, acc)?;
    tr.end("op.vector_top_k");
    acc.ops += 1;
    acc.server_self.push(server_us - acl_us - top_k_us);
    acc.acl_us += acl_us;
    Ok((hits, t0, t1))
}

/// Stamp the tv-bench provenance helpers with what this run searched.
pub fn stamp_provenance(graph: &Graph, attr_ids: &[u32]) {
    let emb = graph.embeddings();
    let mut link_bytes = 0;
    let mut layout = tv_common::GraphLayout::default();
    let mut tier = tv_common::StorageTier::F32;
    for &a in attr_ids {
        if let Ok(attr) = emb.attr(a) {
            tier = attr.storage_tier();
            for seg in attr.all_segments() {
                let snap = seg.newest_snapshot();
                layout = snap.index.layout();
                link_bytes += snap.index.link_memory_bytes().1;
            }
        }
    }
    tv_bench::set_layout_info(layout, link_bytes);
    tv_bench::set_storage_info(tier, emb.memory_bytes());
    tv_bench::set_planner_info(&emb.config().planner);
}
