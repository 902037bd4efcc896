//! The traced run: spans recorded around calls into each crate's public
//! functions, and the per-layer accumulators they feed.
//!
//! For a sampled operation the benchmark first issues it through the server,
//! then issues the same operation again at each lower public entry point
//! (`top_k_many`, each `EmbeddingSegment::search`, `HnswIndex::search_planned`,
//! and for GSQL the executor, the planner and the graph calls). Each call is
//! one span; all of an operation's spans are children of one root span. A
//! layer's self time is its call minus the same work issued one layer down.

use crate::util::median;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;
use tg_graph::Graph;
use tv_common::bitmap::Filter;
use tv_common::{Bitmap, Deadline, Tid, TvResult};
use tv_embedding::{BatchQuery, SegmentFilters, TypedNeighbor};
use tv_hnsw::SearchStats;

/// One recorded call.
#[derive(Clone, Copy)]
pub struct Span {
    /// Operation id (client in the high bits, sequence in the low bits).
    pub op: u64,
    /// Span id, unique within the tracer.
    pub id: u32,
    /// Parent span id (0 for a root).
    pub parent: u32,
    /// Entry point called.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// Per-client span recorder. Spans stay in memory until [`write_spans`].
pub struct Tracer {
    epoch: Instant,
    next_id: u32,
    op: u64,
    root: u32,
    root_start: u64,
    /// Recorded spans.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            next_id: 0,
            op: 0,
            root: 0,
            root_start: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of operation `op`.
    pub fn begin(&mut self, op: u64) {
        self.next_id += 1;
        self.op = op;
        self.root = self.next_id;
        self.root_start = self.now_ns();
    }

    /// Close the root span opened by [`Tracer::begin`].
    pub fn end(&mut self, name: &'static str) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            id: self.root,
            parent: 0,
            name,
            start_ns: self.root_start,
            end_ns,
        });
    }

    /// Run `f` as a child span of the open root; returns its output and its
    /// duration in µs.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.next_id += 1;
        self.spans.push(Span {
            op: self.op,
            id: self.next_id,
            parent: self.root,
            name,
            start_ns,
            end_ns,
        });
        (out, (end_ns - start_ns) as f64 / 1e3)
    }
}

/// Mean share of each root span not covered by its child spans.
pub fn residual_frac(spans: &[Span]) -> f64 {
    let mut children: BTreeMap<(u64, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry((s.op, s.parent))
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut fracs = Vec::new();
    for root in spans.iter().filter(|s| s.parent == 0) {
        let total = root.end_ns.saturating_sub(root.start_ns);
        if total == 0 {
            continue;
        }
        let mut iv = children.remove(&(root.op, root.id)).unwrap_or_default();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in iv {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            covered += ce - cs;
        }
        fracs.push(1.0 - covered.min(total) as f64 / total as f64);
    }
    if fracs.is_empty() {
        0.0
    } else {
        fracs.iter().sum::<f64>() / fracs.len() as f64
    }
}

/// Write spans as JSON lines to `path` (name, start, end, parent, op id).
pub fn write_spans(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{header}")?;
    for s in spans {
        writeln!(
            w,
            "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Per-layer sums over the traced operations. Times are µs.
#[derive(Default, Clone)]
pub struct Layers {
    /// Traced operations.
    pub ops: u64,
    /// Per operation: the server call minus the same work issued one layer
    /// down.
    pub server_self: Vec<f64>,
    /// Requests that found the admission queue non-empty or every executor
    /// busy just before they were sent, out of `ops`.
    pub queued: u64,
    /// GSQL planner, and per GSQL operation the executor minus the graph
    /// and embedding calls below it.
    pub plan_us: f64,
    pub exec_self: Vec<f64>,
    /// Graph layer.
    pub select_us: f64,
    pub traverse_us: f64,
    pub segment_filters_us: f64,
    pub acl_us: f64,
    pub candidates: f64,
    pub candidate_ops: u64,
    pub rows_examined: f64,
    pub rows_returned: f64,
    /// Embedding layer.
    pub top_k_us: f64,
    pub segments_us: f64,
    pub unmerged: f64,
    /// HNSW layer.
    pub hnsw_us: f64,
    pub dists: f64,
    pub hops: f64,
    pub filtered_searches: u64,
    pub unfiltered_searches: u64,
    pub plans_brute: u64,
    pub plans_traversal: u64,
    pub plans_post_filter: u64,
    pub escalations: u64,
}

impl Layers {
    /// Add another client's sums.
    pub fn merge(&mut self, o: &Layers) {
        self.ops += o.ops;
        self.server_self.extend_from_slice(&o.server_self);
        self.queued += o.queued;
        self.plan_us += o.plan_us;
        self.exec_self.extend_from_slice(&o.exec_self);
        self.select_us += o.select_us;
        self.traverse_us += o.traverse_us;
        self.segment_filters_us += o.segment_filters_us;
        self.acl_us += o.acl_us;
        self.candidates += o.candidates;
        self.candidate_ops += o.candidate_ops;
        self.rows_examined += o.rows_examined;
        self.rows_returned += o.rows_returned;
        self.top_k_us += o.top_k_us;
        self.segments_us += o.segments_us;
        self.unmerged += o.unmerged;
        self.hnsw_us += o.hnsw_us;
        self.dists += o.dists;
        self.hops += o.hops;
        self.filtered_searches += o.filtered_searches;
        self.unfiltered_searches += o.unfiltered_searches;
        self.plans_brute += o.plans_brute;
        self.plans_traversal += o.plans_traversal;
        self.plans_post_filter += o.plans_post_filter;
        self.escalations += o.escalations;
    }
}

/// Figures measured outside the sampled operations.
#[derive(Default, Clone)]
pub struct Extra {
    pub batch_size: f64,
    pub commit_us: f64,
    pub delta_merge_ms: f64,
    pub index_merge_ms: f64,
    pub index_merge_rows_per_s: f64,
    pub kernel_ns_per_row: f64,
    pub writer_late_us: f64,
    pub trace_overhead_frac: f64,
    pub residual_frac: f64,
}

/// Every per-layer metric, in declaration order, as `(name, value, unit)`.
pub fn layer_metrics(l: &Layers, x: &Extra) -> Vec<(&'static str, f64, &'static str)> {
    let per_op = |v: f64| if l.ops == 0 { 0.0 } else { v / l.ops as f64 };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let plans = (l.plans_brute + l.plans_traversal + l.plans_post_filter) as f64;
    let ns_per_dist = ratio(l.hnsw_us * 1e3, l.dists);
    vec![
        ("server.self_us", median(&l.server_self), "us"),
        ("server.batch_size", x.batch_size, "count"),
        ("server.queued_frac", per_op(l.queued as f64), "frac"),
        ("gsql.plan_us", per_op(l.plan_us), "us"),
        ("gsql.exec_self_us", median(&l.exec_self), "us"),
        ("graph.select_us", per_op(l.select_us), "us"),
        ("graph.traverse_us", per_op(l.traverse_us), "us"),
        (
            "graph.segment_filters_us",
            per_op(l.segment_filters_us),
            "us",
        ),
        ("graph.acl_restriction_us", per_op(l.acl_us), "us"),
        (
            "graph.candidates",
            ratio(l.candidates, l.candidate_ops as f64),
            "count",
        ),
        (
            "graph.rows_per_result",
            ratio(l.rows_examined, l.rows_returned),
            "rows/row",
        ),
        ("graph.commit_us", x.commit_us, "us"),
        ("embedding.top_k_us", per_op(l.top_k_us), "us"),
        ("embedding.segments_us", per_op(l.segments_us), "us"),
        (
            "embedding.fanout_gain",
            ratio(l.segments_us, l.top_k_us),
            "x",
        ),
        (
            "embedding.overlay_us",
            per_op(l.segments_us - l.hnsw_us),
            "us",
        ),
        ("embedding.unmerged", per_op(l.unmerged), "count"),
        ("embedding.delta_merge_ms", x.delta_merge_ms, "ms"),
        ("embedding.index_merge_ms", x.index_merge_ms, "ms"),
        (
            "embedding.index_merge_rows_per_s",
            x.index_merge_rows_per_s,
            "rows/s",
        ),
        ("hnsw.search_us", per_op(l.hnsw_us), "us"),
        ("hnsw.dists", per_op(l.dists), "count"),
        ("hnsw.hops", per_op(l.hops), "count"),
        ("hnsw.ns_per_dist", ns_per_dist, "ns"),
        (
            "hnsw.plan_brute_frac",
            ratio(l.plans_brute as f64, plans),
            "frac",
        ),
        (
            "hnsw.plan_traversal_frac",
            ratio(l.plans_traversal as f64, plans),
            "frac",
        ),
        (
            "hnsw.plan_post_filter_frac",
            ratio(l.plans_post_filter as f64, plans),
            "frac",
        ),
        (
            "hnsw.escalations",
            ratio(l.escalations as f64, l.filtered_searches as f64),
            "count",
        ),
        (
            "hnsw.unfiltered_searches",
            per_op(l.unfiltered_searches as f64),
            "count",
        ),
        ("kernels.ns_per_row", x.kernel_ns_per_row, "ns"),
        (
            "kernels.row_cost_ratio",
            ratio(ns_per_dist, x.kernel_ns_per_row),
            "x",
        ),
        ("bench.writer_late_us", x.writer_late_us, "us"),
        ("bench.trace_overhead_frac", x.trace_overhead_frac, "frac"),
        ("bench.residual_frac", x.residual_frac, "frac"),
    ]
}

/// Re-issue a vector top-k below the server: `top_k_many` with a batch of
/// one, then each segment's `search` one after another, then
/// `HnswIndex::search_planned` on each pinned snapshot with the validity
/// bitmap the segment builds (caller filter, or every slot, minus the ids
/// overlaid by unmerged deltas). Segments the fan-out would skip (a filter
/// with no bit set in them) are skipped here too. Returns the `top_k_many`
/// answer and its duration in µs.
#[allow(clippy::too_many_arguments)]
pub fn peel_vector(
    graph: &Graph,
    attr_ids: &[u32],
    query: &[f32],
    k: usize,
    ef: usize,
    tid: Tid,
    filters: Option<&SegmentFilters>,
    tr: &mut Tracer,
    acc: &mut Layers,
) -> TvResult<(Vec<TypedNeighbor>, f64)> {
    let emb = graph.embeddings();
    let planner = emb.config().planner;
    let batch = [BatchQuery {
        query: query.to_vec(),
        k,
        ef,
    }];
    let (res, top_k_us) = tr.span("embedding.top_k_many", || {
        let mut stats = SearchStats::default();
        emb.top_k_many(attr_ids, &batch, tid, filters, Deadline::none(), &mut stats)
    });
    let hits = res?.pop().unwrap_or_default();
    acc.top_k_us += top_k_us;

    let mut targets = Vec::new();
    for &attr_id in attr_ids {
        for seg in emb.attr(attr_id)?.all_segments() {
            let bitmap = match filters {
                None => None,
                Some(map) => match map.get(&(attr_id, seg.segment_id)) {
                    Some(bm) if bm.count_ones() > 0 => Some(bm),
                    _ => continue,
                },
            };
            targets.push((seg, bitmap));
        }
    }
    for (seg, bitmap) in &targets {
        let (_, us) = tr.span("embedding.segment_search", || {
            seg.search(query, k, ef, *bitmap, tid, &planner)
        });
        acc.segments_us += us;
    }
    for (seg, bitmap) in &targets {
        let snap = seg.snapshot_for(tid);
        let tail = seg.delta_tail(snap.up_to, tid);
        let mut valid = match bitmap {
            Some(b) => (*b).clone(),
            None => Bitmap::full(seg.capacity()),
        };
        for r in &tail {
            let l = r.id.local().0 as usize;
            if l < valid.len() {
                valid.set(l, false);
            }
        }
        let ((_, stats), us) = tr.span("hnsw.search_planned", || {
            snap.index
                .search_planned(query, k, ef, Filter::Valid(&valid), &planner)
        });
        acc.hnsw_us += us;
        acc.unmerged += tail.len() as f64;
        acc.dists += stats.distance_computations as f64;
        acc.hops += stats.hops as f64;
        if bitmap.is_some() {
            acc.filtered_searches += 1;
            acc.plans_brute += stats.plans_brute;
            acc.plans_traversal += stats.plans_in_traversal;
            acc.plans_post_filter += stats.plans_post_filter;
            acc.escalations += stats.ef_escalations;
        } else {
            acc.unfiltered_searches += 1;
        }
    }
    Ok((hits, top_k_us))
}

/// Whether a request sent now would wait in the admission queue.
pub fn would_queue(server: &tv_server::Server) -> bool {
    let adm = server.admission();
    adm.queue_depth() > 0 || adm.active() >= adm.config().executor_permits
}

/// Mean queries per batch from the server's metrics JSON. At most two
/// clients load the server, so a batch holds one or two queries: the
/// `batched` counter (requests that ran in a batch of more than one) counts
/// two requests per shared batch.
pub fn batch_size(server: &tv_server::Server) -> f64 {
    let m = server.metrics_json();
    let (mut completed, mut batched) = (0.0, 0.0);
    if let Some(entries) = m.as_object() {
        for (_, t) in entries.iter().filter(|(name, _)| !name.starts_with("__")) {
            completed += t.get("completed").and_then(|v| v.as_f64()).unwrap_or(0.0);
            batched += t.get("batched").and_then(|v| v.as_f64()).unwrap_or(0.0);
        }
    }
    let batches = (completed - batched) + batched / 2.0;
    if batches <= 0.0 {
        0.0
    } else {
        completed / batches
    }
}
