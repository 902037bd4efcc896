//! Core HNSW index.
//!
//! Layout: node `slot` (a dense `u32`) owns a vector (`dim` floats in a
//! slot-major arena), an external key ([`VertexId`]), a top level, a deleted
//! flag, and per-level neighbor lists. External keys map to slots through a
//! hash map so upserts and deletes address vectors by id, as the embedding
//! service's delta records do (§4.3).
//!
//! Upserts of live keys update **in place** with neighborhood repair
//! (hnswlib's `updatePoint`): the old neighbors' lists are re-selected from
//! their two-hop pools and the moved node is re-linked — several times the
//! cost of a fresh insert, which is why incremental updating loses to a
//! full rebuild beyond a ~20% update ratio (the paper's Fig. 11 crossover).
//! Deletes are soft (tombstones stay navigable, like hnswlib); the vacuum's
//! rebuild path compacts them away.

use crate::config::HnswConfig;
use crate::packed::{self, PackedGraph};
use crate::planner::{self, PlanChoice, PlanInputs};
use crate::select::{select_neighbors, Scored};
use crate::stats::SearchStats;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};
use tv_common::bitmap::Filter;
use tv_common::kernels::{self, cosine_from_parts};
use tv_common::{
    Bitmap, DistanceMetric, GraphLayout, Kernels, Neighbor, PlannerConfig, PreparedQuery,
    QuantSpec, SplitMix64, StorageTier, Tid, TvError, TvResult, VertexId,
};
use tv_quant::{permute_code_rows, Codec, QuantQuery, QuantizedCodec};

/// Upsert/delete action flag of a vector delta (§4.3: the delta schema is
/// `Action Flag, ID, TID, Vector Value`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaAction {
    /// Insert or replace the vector for an id.
    Upsert,
    /// Remove the vector for an id.
    Delete,
}

/// One vector delta record, as accumulated in the in-memory delta store and
/// flushed to delta files by the delta-merge vacuum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaRecord {
    /// Upsert or delete.
    pub action: DeltaAction,
    /// The vertex whose vector changes.
    pub id: VertexId,
    /// Committing transaction.
    pub tid: Tid,
    /// New vector value (empty for deletes).
    pub vector: Vec<f32>,
}

impl DeltaRecord {
    /// An upsert record.
    #[must_use]
    pub fn upsert(id: VertexId, tid: Tid, vector: Vec<f32>) -> Self {
        DeltaRecord {
            action: DeltaAction::Upsert,
            id,
            tid,
            vector,
        }
    }

    /// A delete record.
    #[must_use]
    pub fn delete(id: VertexId, tid: Tid) -> Self {
        DeltaRecord {
            action: DeltaAction::Delete,
            id,
            tid,
            vector: Vec::new(),
        }
    }
}

/// The interface TigerVector requires of any vector index (§4.4). Implemented
/// by [`HnswIndex`] and [`crate::BruteForceIndex`]; quantization-based
/// indexes would slot in behind the same four functions.
pub trait VectorIndex: Send + Sync {
    /// Declared dimensionality.
    fn dim(&self) -> usize;
    /// Distance metric.
    fn metric(&self) -> DistanceMetric;
    /// Number of live (non-deleted) vectors.
    fn len(&self) -> usize;
    /// True if no live vectors are present.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// `GetEmbedding`: the stored vector for `id`, if present and live.
    /// Quantized tiers that dropped the f32 arena return the codec
    /// reconstruction (hence the owned buffer).
    fn get_embedding(&self, id: VertexId) -> Option<Vec<f32>>;
    /// `TopKSearch`: the `k` nearest valid neighbors of `query`. `ef` bounds
    /// the search beam (clamped up to `k`); `filter` restricts validity by
    /// *local id* within this segment.
    fn top_k(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats);
    /// `RangeSearch`: all valid neighbors within `threshold` distance.
    fn range_search(
        &self,
        query: &[f32],
        threshold: f32,
        ef: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats);
    /// `UpdateItems`: apply delta records in order; returns how many were
    /// applied.
    fn update_items(&mut self, records: &[DeltaRecord]) -> TvResult<usize>;
    /// Iterate over `(key, vector)` pairs of live entries (brute-force scans
    /// and ground-truth computation). Vectors are materialized per entry so
    /// quantized tiers can yield reconstructions.
    fn scan(&self) -> Box<dyn Iterator<Item = (VertexId, Vec<f32>)> + '_>;
    /// Approximate resident bytes of every structure this index keeps in
    /// memory (vector payload, caches, graph/list structure, id maps).
    fn memory_bytes(&self) -> usize;
    /// Storage tier of the vector payload (`F32` unless a quantized tier is
    /// attached).
    fn storage_tier(&self) -> StorageTier {
        StorageTier::F32
    }
}

/// Quantized vector storage attached to an index: the frozen codec, a
/// slot-major code arena (tombstones included — deleted slots must stay
/// navigable/scorable), and per-slot reconstruction norms when the metric
/// is cosine. In codes-only PQ mode, `rerank` holds a finer-grained SQ8
/// side store used by the exact-rerank stage in `top_k`.
#[derive(Clone)]
pub(crate) struct QuantState {
    pub(crate) spec: QuantSpec,
    pub(crate) codec: Codec,
    /// `codec.code_len()` bytes per slot, slot-major.
    pub(crate) codes: Vec<u8>,
    /// Euclidean norm of each slot's reconstruction (cosine only; empty for
    /// other metrics).
    pub(crate) recon_norms: Vec<f32>,
    /// SQ8 rerank store for PQ codes-only mode.
    pub(crate) rerank: Option<RerankStore>,
}

/// A secondary, finer-grained code store used only for reranking.
#[derive(Clone)]
pub(crate) struct RerankStore {
    pub(crate) codec: Codec,
    pub(crate) codes: Vec<u8>,
    pub(crate) recon_norms: Vec<f32>,
}

impl QuantState {
    /// Train the codec(s) named by `spec` on a slot-major `arena` and encode
    /// every slot. The same `(arena, seed)` always produce bit-identical
    /// codebooks and codes (deterministic k-means), which is what the
    /// durability layer's recovery guarantees build on.
    pub(crate) fn build(
        spec: QuantSpec,
        dim: usize,
        metric: DistanceMetric,
        arena: &[f32],
        seed: u64,
    ) -> TvResult<Self> {
        let codec = Codec::train(spec.tier, dim, arena, seed)?;
        let (codes, recon_norms) = encode_arena(&codec, arena, dim, metric);
        // PQ codes are too coarse to rank exactly; when the f32 arena is
        // dropped, keep an SQ8 store (1 byte/dim) for the rerank stage.
        let rerank = if !spec.keep_f32 && matches!(spec.tier, StorageTier::Pq { .. }) {
            let rc = Codec::train(StorageTier::Sq8, dim, arena, seed)?;
            let (rcodes, rnorms) = encode_arena(&rc, arena, dim, metric);
            Some(RerankStore {
                codec: rc,
                codes: rcodes,
                recon_norms: rnorms,
            })
        } else {
            None
        };
        Ok(QuantState {
            spec,
            codec,
            codes,
            recon_norms,
            rerank,
        })
    }

    /// Encode `vector` with the frozen codec(s) and append it as the next
    /// slot (the incremental-insert path).
    pub(crate) fn push(&mut self, metric: DistanceMetric, vector: &[f32]) {
        let slot = self.codes.len() / self.codec.code_len();
        self.reencode(metric, slot, vector);
    }

    /// Re-encode `slot` in place from a new vector value (upsert path).
    pub(crate) fn reencode(&mut self, metric: DistanceMetric, slot: usize, vector: &[f32]) {
        encode_row(
            &self.codec,
            metric,
            &mut self.codes,
            &mut self.recon_norms,
            slot,
            vector,
        );
        if let Some(r) = &mut self.rerank {
            encode_row(
                &r.codec,
                metric,
                &mut r.codes,
                &mut r.recon_norms,
                slot,
                vector,
            );
        }
    }

    /// Reconstruct `slot`'s vector into `out`.
    pub(crate) fn materialize_into(&self, slot: usize, out: &mut [f32]) {
        let cl = self.codec.code_len();
        self.codec
            .reconstruct_into(&self.codes[slot * cl..(slot + 1) * cl], out);
    }

    /// Reorder every slot-indexed arena by `perm[old] = new` (layout
    /// compilation; see [`crate::packed`]): codes, reconstruction norms,
    /// and the rerank side store move together with the vectors.
    pub(crate) fn apply_permutation(&mut self, perm: &[u32]) {
        let cl = self.codec.code_len();
        self.codes = permute_code_rows(&self.codes, cl, perm);
        if !self.recon_norms.is_empty() {
            self.recon_norms = permuted(&self.recon_norms, perm);
        }
        if let Some(r) = &mut self.rerank {
            let rcl = r.codec.code_len();
            r.codes = permute_code_rows(&r.codes, rcl, perm);
            if !r.recon_norms.is_empty() {
                r.recon_norms = permuted(&r.recon_norms, perm);
            }
        }
    }

    /// Resident bytes of codes, norm caches, and codec parameters.
    pub(crate) fn bytes(&self) -> usize {
        let mut b = self.codes.len()
            + self.recon_norms.len() * std::mem::size_of::<f32>()
            + self.codec.memory_bytes();
        if let Some(r) = &self.rerank {
            b += r.codes.len()
                + r.recon_norms.len() * std::mem::size_of::<f32>()
                + r.codec.memory_bytes();
        }
        b
    }
}

/// Reorder a per-slot array by `perm[old] = new` (layout compilation).
fn permuted<T: Clone>(src: &[T], perm: &[u32]) -> Vec<T> {
    debug_assert_eq!(src.len(), perm.len());
    let mut out = src.to_vec();
    for (old, item) in src.iter().enumerate() {
        out[perm[old] as usize] = item.clone();
    }
    out
}

/// Encode a whole slot-major arena; returns `(codes, recon_norms)` with
/// `recon_norms` populated only for cosine.
fn encode_arena(
    codec: &Codec,
    arena: &[f32],
    dim: usize,
    metric: DistanceMetric,
) -> (Vec<u8>, Vec<f32>) {
    let mut codes = Vec::with_capacity(arena.len() / dim * codec.code_len());
    let mut recon_norms = Vec::new();
    for (slot, vector) in arena.chunks_exact(dim).enumerate() {
        encode_row(codec, metric, &mut codes, &mut recon_norms, slot, vector);
    }
    (codes, recon_norms)
}

/// Encode `vector` into code row `slot` of `codes` (growing it to fit) and,
/// for cosine, store the reconstruction's norm at `recon_norms[slot]`
/// (appended when `slot` is the next row).
fn encode_row(
    codec: &Codec,
    metric: DistanceMetric,
    codes: &mut Vec<u8>,
    recon_norms: &mut Vec<f32>,
    slot: usize,
    vector: &[f32],
) {
    let cl = codec.code_len();
    if codes.len() < (slot + 1) * cl {
        codes.resize((slot + 1) * cl, 0);
    }
    let row = &mut codes[slot * cl..(slot + 1) * cl];
    codec.encode_into(vector, row);
    if metric == DistanceMetric::Cosine {
        let mut recon = vec![0.0f32; codec.dim()];
        codec.reconstruct_into(row, &mut recon);
        let norm = kernels::active().norm_sq(&recon).sqrt();
        if slot == recon_norms.len() {
            recon_norms.push(norm);
        } else {
            recon_norms[slot] = norm;
        }
    }
}

/// Either scoring backend, so one traversal implementation serves both
/// storage tiers. The `F32` arm borrows the query slice; the `Quant` arm
/// owns its prepared plan, so an index can hold a scorer across graph
/// mutations.
pub(crate) enum Scorer<'q> {
    F32(PreparedQuery<'q>),
    Quant(QuantQuery),
}

/// A borrowed view of an index's scored payload: the f32 arena with its
/// norm cache and the optional quantized tier. The HNSW and IVF indexes
/// share its scoring and exact-rerank stages.
#[derive(Clone, Copy)]
pub(crate) struct Payload<'a> {
    pub(crate) dim: usize,
    pub(crate) metric: DistanceMetric,
    pub(crate) vectors: &'a [f32],
    pub(crate) norms: &'a [f32],
    pub(crate) quant: Option<&'a QuantState>,
}

impl Payload<'_> {
    /// Scorer for an external query vector: prepared f32 query, or a
    /// prepared quantized plan when a quantized tier is attached (traversal
    /// always scores against codes in that case, even when the f32 arena is
    /// retained for reranking).
    pub(crate) fn scorer<'q>(self, query: &'q [f32]) -> Scorer<'q> {
        match self.quant {
            Some(q) => Scorer::Quant(QuantQuery::new(&q.codec, self.metric, query)),
            None => Scorer::F32(PreparedQuery::new(self.metric, query)),
        }
    }

    /// Batch-score `slots` against a scorer; distances land in `out` (one
    /// entry per slot, same order). With `prefetch`, the f32 path
    /// interleaves a request for the head of the next slot's row while
    /// scoring the current one; the distances are identical either way.
    #[inline]
    pub(crate) fn score_slots(
        self,
        sc: &Scorer<'_>,
        slots: &[u32],
        out: &mut Vec<f32>,
        prefetch: bool,
    ) {
        match sc {
            Scorer::F32(pq) if prefetch => {
                pq.distance_slots_prefetch(self.vectors, self.dim, self.norms, slots, out);
            }
            Scorer::F32(pq) => pq.distance_slots(self.vectors, self.dim, self.norms, slots, out),
            Scorer::Quant(qq) => {
                let q = self.quant.expect("quant scorer without codes");
                qq.score_slots(&q.codes, &q.recon_norms, slots, out);
            }
        }
    }

    /// How many candidates the approximate stage must surface for a final
    /// top-`k`: `rerank_factor × k` when an exact-rerank pass will follow
    /// (retained f32 arena, or the SQ8 side store backing a PQ tier),
    /// otherwise just `k`.
    pub(crate) fn fetch_count(self, k: usize) -> usize {
        match self.quant {
            Some(q) if q.spec.keep_f32 || q.rerank.is_some() => {
                k.saturating_mul(q.spec.rerank_factor.max(1))
            }
            _ => k,
        }
    }

    /// Score every slot in `slots` and keep the `fetch` nearest, sorted by
    /// distance (ties by slot) — the exact-scan stage of brute force and IVF
    /// list probing. A bounded max-heap caps memory at O(fetch).
    pub(crate) fn nearest(
        self,
        sc: &Scorer<'_>,
        slots: &[u32],
        fetch: usize,
        stats: &mut SearchStats,
    ) -> Vec<Scored> {
        let mut dists: Vec<f32> = Vec::new();
        self.score_slots(sc, slots, &mut dists, false);
        stats.distance_computations += slots.len() as u64;
        let mut heap: BinaryHeap<(OrdF32, u32)> = BinaryHeap::new();
        for (&slot, &d) in slots.iter().zip(&dists) {
            heap.push((OrdF32(d), slot));
            if heap.len() > fetch {
                heap.pop();
            }
        }
        let mut found: Vec<Scored> = heap.into_iter().map(|(OrdF32(d), s)| (d, s)).collect();
        found.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        found
    }

    /// Exact-rerank stage: rescore the approximate candidates (sorted by
    /// approximate distance) against the most precise representation
    /// available (retained f32, else the SQ8 side store), then keep the best
    /// `k`. Pass-through when the index is unquantized or codes are already
    /// the best representation.
    pub(crate) fn rerank(
        self,
        query: &[f32],
        mut found: Vec<Scored>,
        k: usize,
        stats: &mut SearchStats,
    ) -> Vec<Scored> {
        let quant = match self.quant {
            Some(q) if q.spec.keep_f32 || q.rerank.is_some() => q,
            _ => {
                found.truncate(k);
                return found;
            }
        };
        let slots: Vec<u32> = found.iter().map(|&(_, s)| s).collect();
        let mut dists: Vec<f32> = Vec::new();
        if quant.spec.keep_f32 {
            let pq = PreparedQuery::new(self.metric, query);
            pq.distance_slots(self.vectors, self.dim, self.norms, &slots, &mut dists);
        } else {
            let r = quant.rerank.as_ref().expect("checked above");
            let qq = QuantQuery::new(&r.codec, self.metric, query);
            qq.score_slots(&r.codes, &r.recon_norms, &slots, &mut dists);
        }
        stats.distance_computations += slots.len() as u64;
        stats.reranked += slots.len() as u64;
        let mut rescored: Vec<Scored> = slots.iter().zip(&dists).map(|(&s, &d)| (d, s)).collect();
        rescored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        rescored.truncate(k);
        rescored
    }
}

/// Reusable per-search scratch: epoch-stamped visited marks plus the
/// batched-scoring buffers. A slot is "visited" iff `marks[slot] == epoch`,
/// so clearing between searches is one epoch bump instead of an O(n)
/// memset — the `vec![false; n]` the beam searches used to allocate (and
/// zero) on every call.
#[derive(Default)]
pub(crate) struct SearchScratch {
    epoch: u32,
    marks: Vec<u32>,
    batch: Vec<u32>,
    dists: Vec<f32>,
    /// Repair-path staging (`update_in_place`/`prune`): the moved node's
    /// old neighborhood, the 2-hop candidate pool, and the scored pairs —
    /// pooled here so the graph-repair loops reuse one warmed allocation
    /// instead of cloning per neighbor per level.
    nbrs: Vec<u32>,
    pool: Vec<u32>,
    scored: Vec<Scored>,
}

impl SearchScratch {
    /// Start a fresh visited set covering `n` slots. Epochs wrap at
    /// `u32::MAX` by resetting the marks once — amortized O(1).
    fn begin(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            for m in &mut self.marks {
                *m = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Mark `slot` visited; true iff this is its first visit this epoch.
    #[inline]
    fn visit(&mut self, slot: u32) -> bool {
        let m = &mut self.marks[slot as usize];
        if *m == self.epoch {
            false
        } else {
            *m = self.epoch;
            true
        }
    }
}

/// Per-index pool of [`SearchScratch`] buffers, one per in-flight search.
/// Concurrent searches each take their own buffer; returning it keeps the
/// warmed allocation (and its epoch) for the next search.
#[derive(Default)]
pub(crate) struct ScratchPool(std::sync::Mutex<Vec<SearchScratch>>);

/// Bound on pooled buffers: enough for any realistic fan-out width while
/// capping worst-case retained memory at `64 × 4n` bytes per index.
const MAX_POOLED_SCRATCH: usize = 64;

impl ScratchPool {
    fn take(&self) -> SearchScratch {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    fn put(&self, scratch: SearchScratch) {
        let mut pool = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if pool.len() < MAX_POOLED_SCRATCH {
            pool.push(scratch);
        }
    }
}

impl Clone for ScratchPool {
    /// Cloned indexes start an empty pool: scratch holds no index state
    /// (results are bit-identical with or without pooled buffers), so
    /// sharing would only contend the lock.
    fn clone(&self) -> Self {
        ScratchPool::default()
    }
}

/// Neighbour access for the search loops, over the three adjacency forms:
/// the compiled CSR (the searched form), the mutable forest (the build
/// form), and the forest behind per-node locks (parallel build).
trait Adjacency {
    /// Whether the loops issue software prefetches for upcoming candidates'
    /// vector/code and adjacency rows (the compiled form only).
    const PREFETCH: bool;

    /// `slot`'s neighbor list on `lvl`: borrowed where the form allows it,
    /// copied into `buf` where it must not be held (a locked list is copied
    /// out under its lock and scored lock-free).
    fn neighbors<'a>(&'a self, slot: u32, lvl: u8, buf: &'a mut Vec<u32>) -> &'a [u32];

    /// Prefetch the head of `slot`'s level-0 adjacency row.
    fn prefetch_l0_row(&self, _k: &Kernels, _slot: u32) {}
}

impl Adjacency for PackedGraph {
    const PREFETCH: bool = true;

    #[inline]
    fn neighbors<'a>(&'a self, slot: u32, lvl: u8, _buf: &'a mut Vec<u32>) -> &'a [u32] {
        PackedGraph::neighbors(self, slot, lvl)
    }

    #[inline]
    fn prefetch_l0_row(&self, k: &Kernels, slot: u32) {
        PackedGraph::prefetch_l0_row(self, k, slot);
    }
}

impl Adjacency for [Vec<Vec<u32>>] {
    const PREFETCH: bool = false;

    #[inline]
    fn neighbors<'a>(&'a self, slot: u32, lvl: u8, _buf: &'a mut Vec<u32>) -> &'a [u32] {
        &self[slot as usize][lvl as usize]
    }
}

impl Adjacency for [Mutex<Vec<Vec<u32>>>] {
    const PREFETCH: bool = false;

    fn neighbors<'a>(&'a self, slot: u32, lvl: u8, buf: &'a mut Vec<u32>) -> &'a [u32] {
        let guard = lock(&self[slot as usize]);
        buf.clear();
        if let Some(l) = guard.get(lvl as usize) {
            buf.extend_from_slice(l);
        }
        buf
    }
}

/// Lock one node's adjacency in the parallel build, ignoring poisoning (a
/// panicking link task is resumed on the caller by the pool).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Which scored candidates a beam admits into its result set.
#[derive(Clone, Copy)]
enum Accept<'f> {
    /// Every reached slot, tombstones included (construction).
    All,
    /// Live slots whose local id the filter accepts (search).
    Valid(Filter<'f>),
}

/// Hierarchical Navigable Small World index over one embedding segment.
#[derive(Clone)]
pub struct HnswIndex {
    cfg: HnswConfig,
    /// Slot-major vector arena: slot `s` occupies `s*dim .. (s+1)*dim`.
    vectors: Vec<f32>,
    /// Per-slot Euclidean norm cache, maintained on insert/upsert (stored
    /// norms never change between writes, so cosine scoring pays one dot
    /// pass per candidate instead of three full passes).
    norms: Vec<f32>,
    /// External key per slot.
    keys: Vec<VertexId>,
    /// Key → live slot.
    slot_of: HashMap<VertexId, u32>,
    /// Per-slot, per-level adjacency.
    links: Vec<Vec<Vec<u32>>>,
    /// Top level per slot.
    levels: Vec<u8>,
    /// Tombstones.
    deleted: Vec<bool>,
    deleted_count: usize,
    /// Live occupancy by *local id* (the key space the caller's filter
    /// bitmaps address): bit set ⇔ a live slot carries that local id. The
    /// planner intersects this with the filter bitmap to get the true
    /// valid-live cardinality — raw `bitmap.count_ones()` also counts bits
    /// on deleted and never-inserted ids and overestimates selectivity.
    live_mask: Bitmap,
    /// Entry slot and the highest level in the graph.
    entry: Option<(u32, u8)>,
    /// Quantized storage tier, if attached via [`HnswIndex::quantize`].
    /// When `spec.keep_f32` is false, `vectors` and `norms` are empty and
    /// all scoring runs against codes.
    quant: Option<QuantState>,
    /// Compiled cache-conscious adjacency (see [`crate::packed`]). When
    /// present, `links` is empty and searches read the CSR slabs; mutation
    /// paths thaw back to the forest first. Slots are renumbered in BFS
    /// order at compile time, so the two forms are never mixed.
    packed: Option<PackedGraph>,
    /// Pooled search scratch (visited epochs + batch-scoring buffers).
    scratch: ScratchPool,
}

impl HnswIndex {
    /// New empty index. Panics on invalid config (programmer error).
    #[must_use]
    pub fn new(cfg: HnswConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid HNSW config: {e}");
        }
        HnswIndex {
            cfg,
            vectors: Vec::new(),
            norms: Vec::new(),
            keys: Vec::new(),
            slot_of: HashMap::new(),
            links: Vec::new(),
            levels: Vec::new(),
            deleted: Vec::new(),
            deleted_count: 0,
            live_mask: Bitmap::new(0),
            entry: None,
            quant: None,
            packed: None,
            scratch: ScratchPool::default(),
        }
    }

    /// The construction configuration.
    #[must_use]
    pub fn config(&self) -> &HnswConfig {
        &self.cfg
    }

    /// Total slots, including tombstones (capacity metric for vacuum
    /// decisions).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of tombstoned slots. The vacuum compares this against
    /// [`Self::slot_count`] to decide between incremental update and full
    /// rebuild (Fig. 11's crossover).
    #[must_use]
    pub fn tombstone_count(&self) -> usize {
        self.deleted_count
    }

    /// Approximate resident bytes across **all** resident structures:
    /// vector payload (f32 arena + norm cache and/or quantized codes, norm
    /// caches, and codec parameters), adjacency (the resident form from
    /// [`Self::link_memory_bytes`]), keys, levels, tombstone flags, and the
    /// key→slot hash map (entries plus ~30% open-addressing slack).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let vec_bytes = self.vector_storage_bytes();
        let key_bytes = self.keys.len() * size_of::<VertexId>();
        let level_bytes = self.levels.len() * size_of::<u8>();
        let deleted_bytes = self.deleted.len() * size_of::<bool>();
        let (pointer_links, packed_links) = self.link_memory_bytes();
        let link_bytes = if self.packed.is_some() {
            packed_links
        } else {
            pointer_links
        };
        let slot_of_bytes =
            self.slot_of.len() * (size_of::<VertexId>() + size_of::<u32>()) * 13 / 10;
        let live_mask_bytes = self.live_mask.len().div_ceil(64) * size_of::<u64>();
        vec_bytes
            + key_bytes
            + level_bytes
            + deleted_bytes
            + link_bytes
            + slot_of_bytes
            + live_mask_bytes
    }

    /// Adjacency footprint in both representations, as
    /// `(pointer_form_bytes, packed_form_bytes)`. The resident form is
    /// exact: **capacity**-based for the pointer forest — the old len-based
    /// accounting missed both the growth slack of every per-level list and
    /// the slack of the per-node header arrays, which for push-grown `Vec`s
    /// is nearly half the heap footprint — and slab-sized for the CSR
    /// (built once at final size). The non-resident form is the len-based
    /// cost the index *would* pay after converting: neighbor payload plus
    /// per-node and per-level `Vec` headers for the forest; neighbor slabs
    /// plus prefix tables for the CSR.
    #[must_use]
    pub fn link_memory_bytes(&self) -> (usize, usize) {
        use std::mem::size_of;
        let n = self.keys.len();
        match &self.packed {
            Some(p) => {
                let nbrs = p.neighbor_count();
                let rows = p.upper_row_count();
                let pointer = n * size_of::<Vec<Vec<u32>>>()
                    + (n + rows) * size_of::<Vec<u32>>()
                    + nbrs * size_of::<u32>();
                (pointer, p.memory_bytes())
            }
            None => {
                let mut pointer = self.links.capacity() * size_of::<Vec<Vec<u32>>>();
                let mut nbrs = 0usize;
                let mut rows = 0usize;
                for per_node in &self.links {
                    pointer += per_node.capacity() * size_of::<Vec<u32>>();
                    rows += per_node.len().saturating_sub(1);
                    for l in per_node {
                        pointer += l.capacity() * size_of::<u32>();
                        nbrs += l.len();
                    }
                }
                // CSR cost: l0_off (n+1) + upper_base (n+1) + upper_row_off
                // (rows+1) + both neighbor slabs.
                let packed = (2 * (n + 1) + rows + 1 + nbrs) * size_of::<u32>();
                (pointer, packed)
            }
        }
    }

    /// The adjacency representation currently resident: `Pointer` until
    /// [`Self::compile_layout`] freezes the graph, then `PackedPrefetch`
    /// until the next mutation thaws it.
    #[must_use]
    pub fn layout(&self) -> GraphLayout {
        match &self.packed {
            None => GraphLayout::Pointer,
            Some(_) => GraphLayout::PackedPrefetch,
        }
    }

    /// Compile the frozen, cache-conscious search form: renumber slots in
    /// BFS order from the entry point (applied to every slot-indexed
    /// structure — vectors, norms, keys, levels, tombstones, links, entry,
    /// quantized code slabs; the live mask is keyed by local id and is
    /// unaffected), then freeze the adjacency into CSR slabs
    /// ([`crate::packed`]) that the search loops read with software
    /// prefetch. Returns true iff the index is compiled afterwards; empty
    /// indexes stay uncompiled.
    ///
    /// Search results are bit-identical to the uncompiled forest (modulo
    /// the slot renumbering, which is invisible through the key-based API).
    /// Mutations transparently thaw back to the forest; the
    /// vacuum/index-merge policy recompiles, so correctness never depends
    /// on layout freshness.
    pub fn compile_layout(&mut self) -> bool {
        if self.packed.is_some() {
            // Mutations thaw, so a frozen graph cannot have changed.
            return true;
        }
        let Some((entry, _)) = self.entry else {
            return false;
        };
        let perm = packed::bfs_order(&self.links, entry);
        if !packed::is_identity(&perm) {
            self.apply_permutation(&perm);
        }
        self.compile_from_stored();
        true
    }

    /// Thaw the compiled layout back into the mutable forest. Called at
    /// the top of every mutation path. The BFS slot renumbering is kept
    /// (it is just as valid for a mutable graph); only the storage form
    /// reverts, so results do not change.
    fn ensure_mutable(&mut self) {
        if let Some(p) = self.packed.take() {
            self.links = p.to_links();
        }
    }

    /// Freeze the CSR directly from already-BFS-ordered links (snapshot
    /// load). The stored slot order *is* the compiled order, so no
    /// re-permutation runs — which keeps `to_bytes(from_bytes(b)) == b`
    /// for compiled snapshots.
    pub(crate) fn compile_from_stored(&mut self) {
        if self.keys.is_empty() {
            return;
        }
        self.packed = Some(PackedGraph::build(&std::mem::take(&mut self.links)));
    }

    /// Compiled-form accessor (snapshot writer).
    pub(crate) fn packed(&self) -> Option<&PackedGraph> {
        self.packed.as_ref()
    }

    /// Reorder every slot-indexed structure by `perm[old_slot] = new_slot`.
    /// Neighbor ids are remapped but list *order* is preserved, so
    /// traversal visit order — and therefore results — are unchanged.
    fn apply_permutation(&mut self, perm: &[u32]) {
        let n = self.keys.len();
        debug_assert_eq!(perm.len(), n);
        let d = self.cfg.dim;
        if !self.vectors.is_empty() {
            let mut nv = vec![0.0f32; self.vectors.len()];
            for (old, &p) in perm.iter().enumerate() {
                let new = p as usize;
                nv[new * d..(new + 1) * d].copy_from_slice(&self.vectors[old * d..(old + 1) * d]);
            }
            self.vectors = nv;
            self.norms = permuted(&self.norms, perm);
        }
        self.keys = permuted(&self.keys, perm);
        self.levels = permuted(&self.levels, perm);
        self.deleted = permuted(&self.deleted, perm);
        let mut new_links: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
        for (old, per_node) in std::mem::take(&mut self.links).into_iter().enumerate() {
            new_links[perm[old] as usize] = per_node
                .into_iter()
                .map(|l| l.into_iter().map(|nb| perm[nb as usize]).collect())
                .collect();
        }
        self.links = new_links;
        for slot in self.slot_of.values_mut() {
            *slot = perm[*slot as usize];
        }
        if let Some((e, top)) = self.entry {
            self.entry = Some((perm[e as usize], top));
        }
        if let Some(q) = &mut self.quant {
            q.apply_permutation(perm);
        }
        // `live_mask` is keyed by local id, not slot — unaffected.
    }

    /// Bytes of the vector *payload* only (f32 arena + norm cache, plus
    /// quantized codes, recon-norm caches, and codec parameters), excluding
    /// graph structure — the numerator of the memory-reduction ratios the
    /// quantized benchmarks report.
    #[must_use]
    pub fn vector_storage_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut b = self.vectors.len() * size_of::<f32>() + self.norms.len() * size_of::<f32>();
        if let Some(q) = &self.quant {
            b += q.bytes();
        }
        b
    }

    /// The active quantization spec, if a quantized tier is attached.
    #[must_use]
    pub fn quant_spec(&self) -> Option<QuantSpec> {
        self.quant.as_ref().map(|q| q.spec)
    }

    /// Storage tier of the vector payload.
    #[must_use]
    pub fn storage_tier(&self) -> StorageTier {
        self.quant
            .as_ref()
            .map_or(StorageTier::F32, |q| q.spec.tier)
    }

    /// Attach a quantized storage tier: train the codec(s) on the current
    /// arena, encode every slot, and (unless `spec.keep_f32`) drop the f32
    /// arena and norm cache. Later inserts encode with the frozen codec;
    /// retraining only happens through a rebuild.
    ///
    /// With `spec.keep_f32`, traversal scores against codes and `top_k`
    /// reranks the top `rerank_factor × k` candidates against the retained
    /// f32 vectors. In codes-only PQ mode an SQ8 side store plays that
    /// rerank role; codes-only SQ8 needs no rerank (its asymmetric scores
    /// are already exact w.r.t. the reconstruction).
    pub fn quantize(&mut self, spec: QuantSpec) -> TvResult<()> {
        if !spec.is_quantized() {
            return match &self.quant {
                None => Ok(()),
                Some(q) if q.spec.keep_f32 => {
                    self.quant = None;
                    Ok(())
                }
                Some(_) => Err(TvError::InvalidArgument(
                    "cannot drop quantization: the f32 arena was not retained".into(),
                )),
            };
        }
        if self.quant.is_some() {
            return Err(TvError::InvalidArgument(
                "index is already quantized; rebuild to change tiers".into(),
            ));
        }
        if self.keys.is_empty() {
            return Err(TvError::InvalidArgument(
                "cannot train a codec on an empty index".into(),
            ));
        }
        let state = QuantState::build(
            spec,
            self.cfg.dim,
            self.cfg.metric,
            &self.vectors,
            self.cfg.seed,
        )?;
        self.quant = Some(state);
        if !spec.keep_f32 {
            self.vectors = Vec::new();
            self.norms = Vec::new();
        }
        Ok(())
    }

    fn vec_of(&self, slot: u32) -> &[f32] {
        let d = self.cfg.dim;
        let s = slot as usize;
        &self.vectors[s * d..(s + 1) * d]
    }

    /// The f32 vector for a slot: the retained arena row when present,
    /// otherwise the codec reconstruction.
    fn materialize(&self, slot: u32) -> Vec<f32> {
        if !self.vectors.is_empty() {
            return self.vec_of(slot).to_vec();
        }
        let q = self.quant.as_ref().expect("no f32 arena and no codes");
        let mut out = vec![0.0f32; self.cfg.dim];
        q.materialize_into(slot as usize, &mut out);
        out
    }

    /// The scored payload (f32 arena, norm cache, quantized tier).
    #[inline]
    fn payload(&self) -> Payload<'_> {
        Payload {
            dim: self.cfg.dim,
            metric: self.cfg.metric,
            vectors: &self.vectors,
            norms: &self.norms,
            quant: self.quant.as_ref(),
        }
    }

    /// A stored slot prepared to act as the query (insert-time repair, link
    /// shrinking) — f32 indexes reuse the cached norm; quantized indexes
    /// reconstruct the slot so construction geometry matches search
    /// geometry.
    fn slot_scorer(&self, slot: u32) -> Scorer<'_> {
        match &self.quant {
            Some(q) => {
                let v = self.materialize(slot);
                Scorer::Quant(QuantQuery::new(&q.codec, self.cfg.metric, &v))
            }
            None => Scorer::F32(PreparedQuery::with_norm(
                self.cfg.metric,
                self.vec_of(slot),
                self.norms[slot as usize],
            )),
        }
    }

    /// Issue an advisory prefetch for `slot`'s scoring row — the quantized
    /// code row when a quantized tier is attached (traversal scores codes),
    /// the f32 arena row otherwise. Called while the batch is still being
    /// collected, so the loads overlap the preceding scoring work. `deep`
    /// warms up to 32 lines instead of 2: the scorer's own interleaved
    /// schedule starts two rows in, so only the batch's first rows need
    /// their full depth requested ahead of time.
    #[inline]
    fn prefetch_slot(&self, k: &Kernels, slot: u32, deep: bool) {
        let s = slot as usize;
        if let Some(q) = &self.quant {
            let cl = q.codec.code_len();
            k.prefetch(q.codes.as_ptr().wrapping_add(s * cl));
        } else {
            let p = self
                .vectors
                .as_ptr()
                .wrapping_add(s * self.cfg.dim)
                .cast::<u8>();
            let row_lines = (self.cfg.dim * std::mem::size_of::<f32>()).div_ceil(64);
            let lines = row_lines.min(if deep { 32 } else { 2 });
            for l in 0..lines {
                k.prefetch(p.wrapping_add(l * 64));
            }
        }
    }

    /// Distance between two stored slots: cached norms on the f32 path
    /// (cosine is a single dot pass); reconstruction of both sides in
    /// quantized codes-only mode (per-pair allocation — the diversity
    /// heuristic runs off the search hot path).
    fn pair_distance(&self, a: u32, b: u32) -> f32 {
        let k = kernels::active();
        if self.vectors.is_empty() {
            if let Some(q) = &self.quant {
                let (va, vb) = (self.materialize(a), self.materialize(b));
                return match self.cfg.metric {
                    DistanceMetric::L2 => k.l2_sq(&va, &vb),
                    DistanceMetric::InnerProduct => -k.dot(&va, &vb),
                    DistanceMetric::Cosine => cosine_from_parts(
                        k.dot(&va, &vb),
                        q.recon_norms[a as usize] * q.recon_norms[b as usize],
                    ),
                };
            }
        }
        let (va, vb) = (self.vec_of(a), self.vec_of(b));
        match self.cfg.metric {
            DistanceMetric::L2 => k.l2_sq(va, vb),
            DistanceMetric::InnerProduct => -k.dot(va, vb),
            DistanceMetric::Cosine => cosine_from_parts(
                k.dot(va, vb),
                self.norms[a as usize] * self.norms[b as usize],
            ),
        }
    }

    /// Deterministic per-key level sample: the key (mixed with the config
    /// seed) seeds a [`SplitMix64`] stream whose first exponential draw
    /// picks the level. Replaces the old shared-mutable build RNG — levels
    /// no longer depend on insertion order, so parallel build interleaving
    /// cannot perturb them, a key re-inserted after deletion lands on the
    /// same level, and `fig11_update` runs are reproducible. Persisted
    /// snapshots are unaffected (levels are stored).
    fn level_for_key(&self, key: VertexId) -> u8 {
        let raw = (u64::from(key.segment().0) << 32) | u64::from(key.local().0);
        let mut rng = SplitMix64::new(self.cfg.seed ^ raw);
        let lvl = (rng.next_exp() * self.cfg.level_norm()).floor();
        // Cap pathological samples; 32 levels covers > 10^14 points at M=16.
        lvl.min(32.0) as u8
    }

    /// Insert or replace the vector for `key`. Returns an error on dimension
    /// mismatch.
    pub fn insert(&mut self, key: VertexId, vector: &[f32]) -> TvResult<()> {
        if vector.len() != self.cfg.dim {
            return Err(TvError::DimensionMismatch {
                expected: self.cfg.dim,
                got: vector.len(),
            });
        }
        // Writes run against the mutable forest; a compiled index thaws
        // here (the BFS renumbering is kept — only the storage form
        // reverts, so search results are unchanged).
        self.ensure_mutable();
        // Upsert of a live key: in-place update with neighborhood repair
        // (hnswlib's updatePoint) — the expensive path whose cost Fig. 11
        // compares against a full rebuild.
        if let Some(&old) = self.slot_of.get(&key) {
            if !self.deleted[old as usize] {
                self.update_in_place(old, vector);
                return Ok(());
            }
        }

        let slot = self.append_slot(key, vector);
        let level = self.levels[slot as usize];
        let Some((entry, top)) = self.entry else {
            self.entry = Some((slot, level));
            return Ok(());
        };
        let mut scratch = self.scratch.take();
        self.link_node(slot, vector, (entry, top), &mut scratch);
        self.scratch.put(scratch);
        if level > top {
            self.entry = Some((slot, level));
        }
        Ok(())
    }

    /// Append a fresh slot for `key`: vector payload, key, level, tombstone
    /// flag, empty per-level lists, key map and live mask. Returns the
    /// slot; linking it into the graph is the caller's job.
    fn append_slot(&mut self, key: VertexId, vector: &[f32]) -> u32 {
        let slot = self.keys.len() as u32;
        let level = self.level_for_key(key);
        // Quantized tiers encode with the frozen codec; the f32 arena is
        // maintained only when the spec retains it.
        if let Some(q) = &mut self.quant {
            q.push(self.cfg.metric, vector);
        }
        if self.quant.as_ref().is_none_or(|q| q.spec.keep_f32) {
            self.vectors.extend_from_slice(vector);
            self.norms.push(kernels::active().norm_sq(vector).sqrt());
        }
        self.keys.push(key);
        self.levels.push(level);
        self.deleted.push(false);
        self.links.push(vec![Vec::new(); usize::from(level) + 1]);
        self.slot_of.insert(key, slot);
        let local = key.local().0 as usize;
        self.live_mask.grow(local + 1);
        self.live_mask.set(local, true);
        slot
    }

    /// Link `slot` (payload already stored) into the forest: greedy descent
    /// from `entry` through the layers above its level, then per layer a
    /// beam, diversity selection of its own list, and back-links shrunk to
    /// the layer's degree bound. Shared by fresh inserts and in-place
    /// updates; a fresh node is unreachable, so its beams never return it
    /// and no back-link exists yet.
    fn link_node(
        &mut self,
        slot: u32,
        vector: &[f32],
        (entry, top): (u32, u8),
        scratch: &mut SearchScratch,
    ) {
        let level = self.levels[slot as usize];
        let sc = self.payload().scorer(vector);
        let mut stats = SearchStats::default();
        let mut cur = entry;
        for lvl in ((level + 1)..=top).rev() {
            cur = self.greedy_closest(self.links.as_slice(), &sc, cur, lvl, &mut stats, scratch);
        }
        let mut entry_points = vec![cur];
        for lvl in (0..=level.min(top)).rev() {
            let mut found = self.beam(
                self.links.as_slice(),
                &sc,
                &entry_points,
                self.cfg.ef_construction,
                lvl,
                Accept::All,
                &mut stats,
                scratch,
            );
            found.retain(|&(_, s)| s != slot);
            let max_deg = if lvl == 0 { self.cfg.m0 } else { self.cfg.m };
            let chosen =
                select_neighbors(&found, self.cfg.m, true, |a, b| self.pair_distance(a, b));
            self.links[slot as usize][lvl as usize] = chosen.clone();
            for &nb in &chosen {
                if !self.links[nb as usize][lvl as usize].contains(&slot) {
                    self.links[nb as usize][lvl as usize].push(slot);
                    self.shrink_links(nb, lvl, max_deg, scratch);
                }
            }
            entry_points = found.iter().map(|&(_, s)| s).collect();
            if entry_points.is_empty() {
                entry_points = vec![cur];
            }
        }
    }

    /// Replace a live node's vector and repair the surrounding graph:
    /// re-select the neighbor lists of the node's old neighbors from their
    /// two-hop candidate pool (the moved node invalidated their diversity
    /// choices), then re-link the node itself at every level. This costs
    /// several times a fresh insert — which is exactly why incremental
    /// updating loses to rebuilding beyond a ~20% update ratio (Fig. 11).
    fn update_in_place(&mut self, slot: u32, vector: &[f32]) {
        let d = self.cfg.dim;
        if let Some(q) = &mut self.quant {
            q.reencode(self.cfg.metric, slot as usize, vector);
        }
        if !self.vectors.is_empty() {
            self.vectors[slot as usize * d..(slot as usize + 1) * d].copy_from_slice(vector);
            self.norms[slot as usize] = kernels::active().norm_sq(vector).sqrt();
        }
        let Some((entry, top)) = self.entry else {
            return;
        };
        let level = self.levels[slot as usize];

        // Phase 1: repair old neighbors' lists from their 2-hop pools. The
        // neighborhood copies and scored pairs stage through the pooled
        // scratch buffers — the per-neighbor-per-level `clone()`s this loop
        // used to allocate dominated the repair path's allocator traffic.
        let mut scratch = self.scratch.take();
        let mut old_neighbors: Vec<u32> = std::mem::take(&mut scratch.nbrs);
        let mut pool: Vec<u32> = std::mem::take(&mut scratch.pool);
        for lvl in 0..=level.min(top) {
            old_neighbors.clear();
            old_neighbors.extend_from_slice(&self.links[slot as usize][lvl as usize]);
            if old_neighbors.is_empty() {
                continue;
            }
            let max_deg = if lvl == 0 { self.cfg.m0 } else { self.cfg.m };
            for &nb in &old_neighbors {
                // Candidate pool for this neighbor: its own links plus the
                // moved node's old neighborhood (hnswlib's repair set).
                pool.clear();
                pool.extend_from_slice(&self.links[nb as usize][lvl as usize]);
                pool.extend_from_slice(&old_neighbors);
                pool.sort_unstable();
                pool.dedup();
                pool.retain(|&c| c != nb);
                self.links[nb as usize][lvl as usize] =
                    self.prune(nb, &pool, max_deg, &mut scratch);
            }
        }
        scratch.nbrs = old_neighbors;
        scratch.pool = pool;

        // Phase 2: re-link the moved node like a fresh insert.
        self.link_node(slot, vector, (entry, top), &mut scratch);
        self.scratch.put(scratch);
    }

    /// Mark the vector for `key` deleted. Returns true if a live entry was
    /// removed.
    pub fn remove(&mut self, key: VertexId) -> bool {
        if let Some(&slot) = self.slot_of.get(&key) {
            if !self.deleted[slot as usize] {
                self.deleted[slot as usize] = true;
                self.deleted_count += 1;
                self.slot_of.remove(&key);
                let local = key.local().0 as usize;
                if local < self.live_mask.len() {
                    self.live_mask.set(local, false);
                }
                return true;
            }
        }
        false
    }

    /// Prune a node's neighbor list back to `max_deg` using the diversity
    /// heuristic.
    fn shrink_links(&mut self, node: u32, lvl: u8, max_deg: usize, scratch: &mut SearchScratch) {
        let list = &self.links[node as usize][lvl as usize];
        if list.len() > max_deg {
            self.links[node as usize][lvl as usize] = self.prune(node, list, max_deg, scratch);
        }
    }

    /// The one neighbour-list prune: score `cands` against `node`, sort by
    /// distance, and keep at most `max_deg` through the diversity
    /// heuristic. Distances and scored pairs stage through the pooled
    /// scratch buffers (no per-call allocations besides the kept list).
    fn prune(
        &self,
        node: u32,
        cands: &[u32],
        max_deg: usize,
        scratch: &mut SearchScratch,
    ) -> Vec<u32> {
        let sc = self.slot_scorer(node);
        self.payload()
            .score_slots(&sc, cands, &mut scratch.dists, false);
        scratch.scored.clear();
        scratch
            .scored
            .extend(cands.iter().zip(&scratch.dists).map(|(&c, &d)| (d, c)));
        scratch.scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        select_neighbors(&scratch.scored, max_deg, true, |a, b| {
            self.pair_distance(a, b)
        })
    }

    /// Bulk insert with optional parallel graph construction.
    ///
    /// `threads <= 1` (or a batch of one) runs the plain sequential insert
    /// loop and is **bit-identical** to calling [`HnswIndex::insert`] per
    /// item. With more threads, items whose key repeats within the batch or
    /// is already live are applied sequentially first (in batch order, so
    /// upsert semantics are preserved), and the remaining fresh appends are
    /// linked concurrently under per-node locks. Levels come from the
    /// deterministic per-key sampler, so the node set and level assignment
    /// are identical across thread counts; only link sets may differ
    /// (hnswlib-style construction races), preserving recall parity rather
    /// than byte identity.
    pub fn insert_batch(&mut self, items: &[(VertexId, Vec<f32>)], threads: usize) -> TvResult<()> {
        let ops: Vec<(VertexId, Option<&[f32]>)> = items
            .iter()
            .map(|(k, v)| (*k, Some(v.as_slice())))
            .collect();
        self.apply_ops(&ops, threads).map(|_| ())
    }

    /// Apply upserts (`Some(vector)`) and deletes (`None`) in order; returns
    /// how many were applied. `threads <= 1` (or one op) is the plain
    /// sequential loop. Otherwise every vector is dimension-checked before
    /// anything changes, ops on keys that repeat in the batch or are
    /// already live apply sequentially in order, and the remaining fresh
    /// appends link concurrently.
    fn apply_ops(&mut self, ops: &[(VertexId, Option<&[f32]>)], threads: usize) -> TvResult<usize> {
        let parallel = threads > 1 && ops.len() > 1;
        let mut count: HashMap<VertexId, usize> = HashMap::new();
        if parallel {
            self.ensure_mutable();
            count.reserve(ops.len());
            for &(key, vector) in ops {
                if let Some(v) = vector.filter(|v| v.len() != self.cfg.dim) {
                    return Err(TvError::DimensionMismatch {
                        expected: self.cfg.dim,
                        got: v.len(),
                    });
                }
                *count.entry(key).or_insert(0) += 1;
            }
        }
        let mut fresh: Vec<(VertexId, &[f32])> = Vec::new();
        for &(key, vector) in ops {
            match vector {
                Some(v) if parallel && count[&key] == 1 && !self.slot_of.contains_key(&key) => {
                    fresh.push((key, v));
                }
                Some(v) => self.insert(key, v)?,
                None => {
                    self.remove(key);
                }
            }
        }
        if parallel {
            self.parallel_insert_fresh(&fresh, threads);
        }
        Ok(ops.len())
    }

    /// Append `items` (all fresh keys, dimension-checked by the caller) and
    /// link them concurrently. Phase A appends every slot sequentially —
    /// arena, norms, codes, keys, levels, tombstones, key map, live mask —
    /// so the shared state is immutable during linking. Phase B moves the
    /// adjacency lists into per-node mutexes and the entry point into an
    /// `RwLock`, then fans the link work out over the shared pool; scoring
    /// reads only the (now frozen) arena/codes, and neighbor lists are
    /// touched one lock at a time, so no lock ordering issues arise.
    fn parallel_insert_fresh(&mut self, items: &[(VertexId, &[f32])], threads: usize) {
        let first = self.keys.len() as u32;
        for (key, vector) in items {
            self.append_slot(*key, vector);
        }
        let mut work: Vec<u32> = (first..self.keys.len() as u32).collect();
        if self.entry.is_none() {
            if work.is_empty() {
                return;
            }
            // Bootstrap like the sequential path: the first node becomes the
            // entry with no out-links; later nodes back-link into it.
            let boot = work.remove(0);
            self.entry = Some((boot, self.levels[boot as usize]));
        }
        if work.is_empty() {
            return;
        }
        let locked: Vec<Mutex<Vec<Vec<u32>>>> = std::mem::take(&mut self.links)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let entry_lock = RwLock::new(self.entry.expect("entry bootstrapped above"));
        let this = &*self;
        let pool = tv_common::pool::global();
        pool.run(work.clone(), threads, |slot| {
            this.link_one_locked(slot, &locked, &entry_lock);
        });
        // Refinement pass: two nodes linked concurrently are blind to each
        // other (neither had links when the other's beam ran), which costs
        // a fraction of a percent of recall versus sequential build. One
        // level-0 re-search per fresh node over the now-complete graph
        // recovers those missed mutual links and restores recall parity.
        pool.run(work, threads, |slot| {
            this.refine_one_locked(slot, &locked, &entry_lock);
        });
        self.links = locked
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        self.entry = Some(*entry_lock.read().unwrap_or_else(PoisonError::into_inner));
    }

    /// Link one pre-appended node into the locked graph: greedy descent
    /// above its level, beam search + diversity selection per layer, own
    /// list written under its own lock, back-links pushed (and shrunk) under
    /// each neighbor's lock.
    fn link_one_locked(
        &self,
        slot: u32,
        links: &[Mutex<Vec<Vec<u32>>>],
        entry: &RwLock<(u32, u8)>,
    ) {
        let level = self.levels[slot as usize];
        let sc = self.slot_scorer(slot);
        let mut scratch = self.scratch.take();
        let mut stats = SearchStats::default();
        let (mut cur, top) = *entry.read().unwrap_or_else(PoisonError::into_inner);
        for lvl in ((level + 1)..=top).rev() {
            cur = self.greedy_closest(links, &sc, cur, lvl, &mut stats, &mut scratch);
        }
        let mut entry_points = vec![cur];
        for lvl in (0..=level.min(top)).rev() {
            let mut found = self.beam(
                links,
                &sc,
                &entry_points,
                self.cfg.ef_construction,
                lvl,
                Accept::All,
                &mut stats,
                &mut scratch,
            );
            // The node is reachable once a concurrent peer back-links it;
            // never link a node to itself.
            found.retain(|&(_, s)| s != slot);
            let max_deg = if lvl == 0 { self.cfg.m0 } else { self.cfg.m };
            let chosen =
                select_neighbors(&found, self.cfg.m, true, |a, b| self.pair_distance(a, b));
            lock(&links[slot as usize])[lvl as usize] = chosen.clone();
            for &nb in &chosen {
                self.back_link_locked(nb, slot, lvl, max_deg, links, &mut scratch);
            }
            entry_points = found.iter().map(|&(_, s)| s).collect();
            if entry_points.is_empty() {
                entry_points = vec![cur];
            }
        }
        self.scratch.put(scratch);
        if level > top {
            let mut e = entry.write().unwrap_or_else(PoisonError::into_inner);
            if level > e.1 {
                *e = (slot, level);
            }
        }
    }

    /// Second-pass link refinement for one node (parallel build only):
    /// re-run the level-0 beam on the completed locked graph, merge the
    /// candidates with the node's current list through the diversity
    /// heuristic, and back-link any newly chosen neighbors.
    fn refine_one_locked(
        &self,
        slot: u32,
        links: &[Mutex<Vec<Vec<u32>>>],
        entry: &RwLock<(u32, u8)>,
    ) {
        let sc = self.slot_scorer(slot);
        let mut scratch = self.scratch.take();
        let mut stats = SearchStats::default();
        let (cur, top) = *entry.read().unwrap_or_else(PoisonError::into_inner);
        let mut found = self.descend_and_beam(
            links,
            &sc,
            (cur, top),
            self.cfg.ef_construction,
            Accept::All,
            &mut stats,
            &mut scratch,
        );
        found.retain(|&(_, s)| s != slot);
        if !found.is_empty() {
            let own: Vec<u32> = lock(&links[slot as usize])[0].clone();
            self.payload()
                .score_slots(&sc, &own, &mut scratch.dists, false);
            for (&nb, &nd) in own.iter().zip(&scratch.dists) {
                if !found.iter().any(|&(_, s)| s == nb) {
                    found.push((nd, nb));
                }
            }
            found.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let chosen =
                select_neighbors(&found, self.cfg.m, true, |a, b| self.pair_distance(a, b));
            let added: Vec<u32> = chosen
                .iter()
                .copied()
                .filter(|nb| !own.contains(nb))
                .collect();
            lock(&links[slot as usize])[0] = chosen;
            for nb in added {
                self.back_link_locked(nb, slot, 0, self.cfg.m0, links, &mut scratch);
            }
        }
        self.scratch.put(scratch);
    }

    /// Add `slot` to `nb`'s list on `lvl` under `nb`'s lock, pruning the
    /// list back to `max_deg` if it overflows.
    fn back_link_locked(
        &self,
        nb: u32,
        slot: u32,
        lvl: u8,
        max_deg: usize,
        links: &[Mutex<Vec<Vec<u32>>>],
        scratch: &mut SearchScratch,
    ) {
        let mut guard = lock(&links[nb as usize]);
        let list = &mut guard[lvl as usize];
        if !list.contains(&slot) {
            list.push(slot);
            if list.len() > max_deg {
                *list = self.prune(nb, list, max_deg, scratch);
            }
        }
    }

    /// [`VectorIndex::update_items`] with optional parallel linking of the
    /// fresh appends. Duplicate-key records, deletes, and upserts of live
    /// keys apply sequentially first (in record order); single-occurrence
    /// upserts of fresh keys then link concurrently. `threads <= 1` is the
    /// plain sequential path, bit-identical to [`VectorIndex::update_items`].
    pub fn update_items_with(
        &mut self,
        records: &[DeltaRecord],
        threads: usize,
    ) -> TvResult<usize> {
        let ops: Vec<(VertexId, Option<&[f32]>)> = records
            .iter()
            .map(|r| {
                let upsert = r.action == DeltaAction::Upsert;
                (r.id, upsert.then_some(r.vector.as_slice()))
            })
            .collect();
        self.apply_ops(&ops, threads)
    }

    /// Greedy walk to the locally-closest node on one layer (the ef=1 upper-
    /// layer descent of the HNSW search). Each hop scores the node's whole
    /// neighbor list in one batched kernel call.
    fn greedy_closest<A: Adjacency + ?Sized>(
        &self,
        adj: &A,
        sc: &Scorer<'_>,
        start: u32,
        lvl: u8,
        stats: &mut SearchStats,
        scratch: &mut SearchScratch,
    ) -> u32 {
        let k = kernels::active();
        let p = self.payload();
        let mut buf = Vec::new();
        let mut cur = start;
        p.score_slots(sc, &[cur], &mut scratch.dists, false);
        let mut cur_dist = scratch.dists[0];
        stats.distance_computations += 1;
        loop {
            let nbs = adj.neighbors(cur, lvl, &mut buf);
            if A::PREFETCH {
                // Warm the hop's leading rows in full; the scorer's own
                // schedule requests the rest two rows ahead of use.
                for (i, &nb) in nbs.iter().enumerate() {
                    self.prefetch_slot(k, nb, i < 2);
                }
            }
            p.score_slots(sc, nbs, &mut scratch.dists, A::PREFETCH);
            stats.distance_computations += nbs.len() as u64;
            stats.hops += nbs.len() as u64;
            let mut improved = false;
            for (&nb, &nd) in nbs.iter().zip(&scratch.dists) {
                if nd < cur_dist {
                    cur = nb;
                    cur_dist = nd;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Whether a scored candidate may enter the beam's result set. Filter
    /// rejections and tombstone skips are counted separately: the planner's
    /// selectivity feedback needs filter pressure, not tombstone density
    /// (which `live_fraction` already tracks).
    #[inline]
    fn admits(&self, accept: Accept<'_>, slot: u32, stats: &mut SearchStats) -> bool {
        let Accept::Valid(filter) = accept else {
            return true;
        };
        if self.deleted[slot as usize] {
            stats.deleted_skipped += 1;
            return false;
        }
        if !filter.accepts(self.keys[slot as usize].local().0 as usize) {
            stats.filtered_out += 1;
            return false;
        }
        true
    }

    /// The beam search on one layer, over any adjacency form. Returns up to
    /// `ef` candidates sorted by ascending distance. Every reached node is
    /// navigated through, but only those `accept` admits enter the result
    /// set — the filter-function semantics the paper passes to the index
    /// so "a single call to the vector index returns the valid top-k"
    /// (§5.1). Construction passes [`Accept::All`]: it links through
    /// tombstones.
    #[allow(clippy::too_many_arguments)]
    fn beam<A: Adjacency + ?Sized>(
        &self,
        adj: &A,
        sc: &Scorer<'_>,
        entries: &[u32],
        ef: usize,
        lvl: u8,
        accept: Accept<'_>,
        stats: &mut SearchStats,
        scratch: &mut SearchScratch,
    ) -> Vec<Scored> {
        // Pooled visited set: one epoch bump instead of an O(n) alloc +
        // memset per call.
        scratch.begin(self.keys.len());
        let kern = kernels::active();
        let p = self.payload();
        let mut buf = Vec::new();
        // Min-heap of frontier candidates; max-heap of the best `ef` found.
        let mut frontier: BinaryHeap<Reverse<(OrdF32, u32)>> = BinaryHeap::new();
        let mut best: BinaryHeap<(OrdF32, u32)> = BinaryHeap::new();

        // Batched scoring: the unvisited neighbors of one node, scored in a
        // single kernel call. Distances don't depend on heap state, so
        // admission order — and therefore results — match a one-at-a-time
        // loop exactly.
        scratch.batch.clear();
        for &e in entries {
            if scratch.visit(e) {
                scratch.batch.push(e);
            }
        }
        p.score_slots(sc, &scratch.batch, &mut scratch.dists, A::PREFETCH);
        stats.distance_computations += scratch.batch.len() as u64;
        for (&e, &de) in scratch.batch.iter().zip(&scratch.dists) {
            frontier.push(Reverse((OrdF32(de), e)));
            if self.admits(accept, e, stats) {
                best.push((OrdF32(de), e));
                if best.len() > ef {
                    best.pop();
                }
            }
        }

        while let Some(Reverse((OrdF32(d), node))) = frontier.pop() {
            let bound = best.peek().map_or(f32::INFINITY, |&(OrdF32(b), _)| b);
            if d > bound && best.len() >= ef {
                break;
            }
            scratch.batch.clear();
            for &nb in adj.neighbors(node, lvl, &mut buf) {
                if scratch.visit(nb) {
                    // Warm the batch's first rows in full — the scorer hits
                    // them before its own two-ahead schedule ramps up — and
                    // later rows' heads, plus (on the base layer) the
                    // candidate's adjacency row.
                    if A::PREFETCH {
                        self.prefetch_slot(kern, nb, scratch.batch.len() < 2);
                        if lvl == 0 {
                            adj.prefetch_l0_row(kern, nb);
                        }
                    }
                    scratch.batch.push(nb);
                }
            }
            p.score_slots(sc, &scratch.batch, &mut scratch.dists, A::PREFETCH);
            stats.hops += scratch.batch.len() as u64;
            stats.distance_computations += scratch.batch.len() as u64;
            for (&nb, &nd) in scratch.batch.iter().zip(&scratch.dists) {
                let bound = best.peek().map_or(f32::INFINITY, |&(OrdF32(b), _)| b);
                if nd < bound || best.len() < ef {
                    frontier.push(Reverse((OrdF32(nd), nb)));
                    if self.admits(accept, nb, stats) {
                        best.push((OrdF32(nd), nb));
                        if best.len() > ef {
                            best.pop();
                        }
                    }
                }
            }
        }

        let mut out: Vec<Scored> = best.into_iter().map(|(OrdF32(d), s)| (d, s)).collect();
        out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    }

    /// Greedy descent from `entry` (slot, top level) down to layer 1, then
    /// the layer-0 beam.
    #[allow(clippy::too_many_arguments)]
    fn descend_and_beam<A: Adjacency + ?Sized>(
        &self,
        adj: &A,
        sc: &Scorer<'_>,
        (entry, top): (u32, u8),
        ef: usize,
        accept: Accept<'_>,
        stats: &mut SearchStats,
        scratch: &mut SearchScratch,
    ) -> Vec<Scored> {
        let mut cur = entry;
        for lvl in (1..=top).rev() {
            cur = self.greedy_closest(adj, sc, cur, lvl, stats, scratch);
        }
        self.beam(adj, sc, &[cur], ef, 0, accept, stats, scratch)
    }

    /// The graph search shared by `top_k` and [`Self::post_filter_top_k`]:
    /// descend and beam over the resident adjacency form (the compiled CSR
    /// when present), admitting live slots that pass `in_beam`; then drop
    /// results that `after` rejects and rerank the best `fetch` to `k`.
    fn search_graph(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        in_beam: Filter<'_>,
        after: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut stats = SearchStats::default();
        if k == 0 || query.len() != self.cfg.dim {
            return (Vec::new(), stats);
        }
        let Some(entry) = self.entry else {
            return (Vec::new(), stats);
        };
        // The beam must surface enough candidates for the exact-rerank
        // stage (rerank_factor × k on quantized tiers).
        let fetch = self.payload().fetch_count(k);
        let ef = ef.max(fetch);
        let accept = Accept::Valid(in_beam);
        // One norm pass (f32) or one LUT build (quantized) for the whole
        // search; every candidate after this scores against cached state.
        let sc = self.payload().scorer(query);
        let mut scratch = self.scratch.take();
        let mut found = match &self.packed {
            Some(p) => {
                stats.packed_searches += 1;
                self.descend_and_beam(p, &sc, entry, ef, accept, &mut stats, &mut scratch)
            }
            None => self.descend_and_beam(
                self.links.as_slice(),
                &sc,
                entry,
                ef,
                accept,
                &mut stats,
                &mut scratch,
            ),
        };
        self.scratch.put(scratch);
        found.retain(|&(_, slot)| {
            let pass = after.accepts(self.keys[slot as usize].local().0 as usize);
            stats.filtered_out += u64::from(!pass);
            pass
        });
        found.truncate(fetch);
        let out = self.rerank_and_take(query, found, k, &mut stats);
        (out, stats)
    }

    /// The exact-rerank stage ([`Payload::rerank`]), keyed back to ids.
    fn rerank_and_take(
        &self,
        query: &[f32],
        found: Vec<Scored>,
        k: usize,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        self.payload()
            .rerank(query, found, k, stats)
            .into_iter()
            .map(|(d, s)| Neighbor::new(self.keys[s as usize], d))
            .collect()
    }

    /// Exact linear scan over live, filter-passing entries — the planner's
    /// fallback when too few points are valid for graph search to pay off.
    /// On quantized tiers the scan scores codes and the exact-rerank stage
    /// re-scores the shortlist, same as graph search.
    pub fn brute_force_top_k(
        &self,
        query: &[f32],
        k: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut stats = SearchStats {
            brute_force: true,
            ..SearchStats::default()
        };
        // Gather accepted slots first, then score the whole set in batched
        // kernel calls — the filter pass touches no vector data.
        let mut accepted: Vec<u32> = Vec::new();
        for (slot, &key) in self.keys.iter().enumerate() {
            if self.deleted[slot] {
                stats.deleted_skipped += 1;
                continue;
            }
            if !filter.accepts(key.local().0 as usize) {
                stats.filtered_out += 1;
                continue;
            }
            accepted.push(slot as u32);
        }
        let p = self.payload();
        let found = p.nearest(&p.scorer(query), &accepted, p.fetch_count(k), &mut stats);
        let out = self.rerank_and_take(query, found, k, &mut stats);
        (out, stats)
    }

    /// Fraction of live points among all slots; used with the valid-point
    /// threshold to pick brute force vs. index search.
    #[must_use]
    pub fn live_fraction(&self) -> f64 {
        if self.keys.is_empty() {
            1.0
        } else {
            1.0 - self.deleted_count as f64 / self.keys.len() as f64
        }
    }

    /// True cardinality of the valid set under `filter`: live points whose
    /// local id the filter accepts (filter bitmap ∩ live occupancy). This is
    /// the planner's selectivity input; unlike the filter bitmap's raw
    /// popcount it excludes deleted and never-inserted ids.
    #[must_use]
    pub fn valid_live_count(&self, filter: Filter<'_>) -> usize {
        match filter {
            Filter::All => self.len(),
            Filter::Valid(b) => self.live_mask.intersection_count(b),
        }
    }

    /// Post-filter strategy: run an *unfiltered* layer-0 beam widened to
    /// `fetch_ef`, then drop results the filter rejects. Cheaper than
    /// in-traversal filtering when most points are valid — the beam skips
    /// the per-candidate bitmap probe and the enlargement stays small.
    pub fn post_filter_top_k(
        &self,
        query: &[f32],
        k: usize,
        fetch_ef: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats) {
        self.search_graph(query, k, fetch_ef, Filter::All, filter)
    }

    /// Planner-routed filtered top-k (the per-query cost-based routing of
    /// the NaviX-style planner; see [`crate::planner`]):
    ///
    /// 1. estimate the true valid-live cardinality under `filter`;
    /// 2. choose brute force / in-traversal filtering / post-filter with
    ///    enlarged `ef` / a plain unfiltered beam when the filter rejects
    ///    no live point;
    /// 3. if a graph strategy returns fewer than `min(k, valid_live)`
    ///    results (a starved beam, *not* set exhaustion), escalate: double
    ///    `ef` up to `cfg.max_ef`, then fall back to an exact scan.
    ///
    /// The starvation fallback makes the result count exact: the search
    /// returns `min(k, valid_live)` results whenever any exist, so a short
    /// result honestly signals an exhausted valid set.
    pub fn search_planned(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        filter: Filter<'_>,
        cfg: &PlannerConfig,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut stats = SearchStats::default();
        if k == 0 || query.len() != self.cfg.dim {
            return (Vec::new(), stats);
        }
        let valid_live = self.valid_live_count(filter);
        let plan = planner::choose(
            cfg,
            PlanInputs {
                valid_live,
                live_total: self.len(),
                k,
                ef,
            },
        );
        let (mut results, mut used_ef) = match plan {
            PlanChoice::Empty => return (Vec::new(), stats),
            PlanChoice::BruteForce => {
                stats.plans_brute += 1;
                let (r, s) = self.brute_force_top_k(query, k, filter);
                stats.merge(&s);
                return (r, stats);
            }
            PlanChoice::Unfiltered { ef } => {
                stats.plans_unfiltered += 1;
                let (r, s) = self.top_k(query, k, ef, Filter::All);
                stats.merge(&s);
                (r, ef)
            }
            PlanChoice::InTraversal { ef } => {
                stats.plans_in_traversal += 1;
                let (r, s) = self.top_k(query, k, ef, filter);
                stats.merge(&s);
                (r, ef)
            }
            PlanChoice::PostFilter { fetch_ef } => {
                stats.plans_post_filter += 1;
                let (r, s) = self.post_filter_top_k(query, k, fetch_ef, filter);
                stats.merge(&s);
                (r, fetch_ef)
            }
        };
        let target = k.min(valid_live);
        if results.len() >= target || !cfg.enabled {
            return (results, stats);
        }
        // Starved beam: valid points exist that the graph search did not
        // surface. Escalate with a widening in-traversal beam, then give up
        // on the graph entirely (disconnected or unreachable valid points).
        while used_ef < cfg.max_ef {
            used_ef = used_ef.saturating_mul(2).min(cfg.max_ef);
            stats.ef_escalations += 1;
            let (r, s) = self.top_k(query, k, used_ef, filter);
            stats.merge(&s);
            results = r;
            if results.len() >= target {
                return (results, stats);
            }
        }
        stats.brute_fallbacks += 1;
        let (r, s) = self.brute_force_top_k(query, k, filter);
        stats.merge(&s);
        (r, stats)
    }

    /// Planner-routed range search. Fixes the starvation bug in the naive
    /// doubling loop: a filtered beam returning fewer than `k` results is a
    /// *starved beam*, not proof the valid set is exhausted — treating it as
    /// exhaustion silently drops in-range points under selective filters.
    /// Exhaustion is instead detected against the true valid-live count, and
    /// once the doubling `k` covers the whole valid set the scan finishes
    /// exactly.
    pub fn range_search_planned(
        &self,
        query: &[f32],
        threshold: f32,
        ef: usize,
        filter: Filter<'_>,
        cfg: &PlannerConfig,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut stats = SearchStats::default();
        if query.len() != self.cfg.dim {
            return (Vec::new(), stats);
        }
        let valid_live = self.valid_live_count(filter);
        if valid_live == 0 {
            return (Vec::new(), stats);
        }
        let mut k = 16usize;
        loop {
            if k >= valid_live {
                // The doubling k now covers every valid point: finish with
                // an exact scan instead of trusting a possibly-starved beam.
                let (results, s) = self.brute_force_top_k(query, valid_live, filter);
                stats.merge(&s);
                let out = results
                    .into_iter()
                    .filter(|n| n.dist <= threshold)
                    .collect();
                return (out, stats);
            }
            let (results, s) = self.search_planned(query, k, ef.max(k), filter, cfg);
            stats.merge(&s);
            let median = if results.is_empty() {
                f32::NEG_INFINITY
            } else {
                results[results.len() / 2].dist
            };
            // At least half the beam already lies outside the range: the
            // in-range set is fully covered (DiskANN's stopping rule).
            if !results.is_empty() && threshold < median {
                let out = results
                    .into_iter()
                    .filter(|n| n.dist <= threshold)
                    .collect();
                return (out, stats);
            }
            k = k.saturating_mul(2);
        }
    }
}

impl VectorIndex for HnswIndex {
    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn metric(&self) -> DistanceMetric {
        self.cfg.metric
    }

    fn len(&self) -> usize {
        self.keys.len() - self.deleted_count
    }

    fn get_embedding(&self, id: VertexId) -> Option<Vec<f32>> {
        let &slot = self.slot_of.get(&id)?;
        if self.deleted[slot as usize] {
            None
        } else {
            Some(self.materialize(slot))
        }
    }

    fn top_k(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats) {
        self.search_graph(query, k, ef, filter, Filter::All)
    }

    fn range_search(
        &self,
        query: &[f32],
        threshold: f32,
        ef: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats) {
        // DiskANN-style adaptation (§4.4): repeat TopKSearch with doubling k
        // until the threshold is smaller than the median returned distance
        // (i.e. at least half the beam already lies outside the range) or
        // the whole valid set has been fetched. Routed through the planner
        // so a starved filtered beam is escalated instead of being mistaken
        // for set exhaustion.
        self.range_search_planned(query, threshold, ef, filter, &PlannerConfig::default())
    }

    fn update_items(&mut self, records: &[DeltaRecord]) -> TvResult<usize> {
        self.update_items_with(records, 1)
    }

    fn scan(&self) -> Box<dyn Iterator<Item = (VertexId, Vec<f32>)> + '_> {
        Box::new(
            self.keys
                .iter()
                .enumerate()
                .filter(move |&(slot, key)| {
                    !self.deleted[slot] && self.slot_of.get(key) == Some(&(slot as u32))
                })
                .map(move |(slot, &key)| (key, self.materialize(slot as u32))),
        )
    }

    fn memory_bytes(&self) -> usize {
        HnswIndex::memory_bytes(self)
    }

    fn storage_tier(&self) -> StorageTier {
        HnswIndex::storage_tier(self)
    }
}

/// Total-ordered f32 wrapper for heap use (NaN sorts greatest).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF32(f32);

impl Eq for OrdF32 {}
impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

// Internal accessors for snapshot serialization.
impl HnswIndex {
    #[allow(clippy::type_complexity)]
    pub(crate) fn parts(
        &self,
    ) -> (
        &HnswConfig,
        &[f32],
        &[VertexId],
        &[Vec<Vec<u32>>],
        &[u8],
        &[bool],
        Option<(u32, u8)>,
    ) {
        (
            &self.cfg,
            &self.vectors,
            &self.keys,
            &self.links,
            &self.levels,
            &self.deleted,
            self.entry,
        )
    }

    /// Quantized-tier state, if any (snapshot writer access).
    pub(crate) fn quant(&self) -> Option<&QuantState> {
        self.quant.as_ref()
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        cfg: HnswConfig,
        vectors: Vec<f32>,
        keys: Vec<VertexId>,
        links: Vec<Vec<Vec<u32>>>,
        levels: Vec<u8>,
        deleted: Vec<bool>,
        entry: Option<(u32, u8)>,
        quant: Option<QuantState>,
    ) -> TvResult<Self> {
        let n = keys.len();
        // A codes-only quantized snapshot legitimately carries no f32 arena.
        let codes_only = vectors.is_empty() && quant.as_ref().is_some_and(|q| !q.spec.keep_f32);
        if (vectors.len() != n * cfg.dim && !codes_only)
            || links.len() != n
            || levels.len() != n
            || deleted.len() != n
        {
            return Err(TvError::Storage("inconsistent snapshot parts".into()));
        }
        if let Some(q) = &quant {
            let cl = q.codec.code_len();
            if q.codes.len() != n * cl {
                return Err(TvError::Storage("inconsistent quant codes".into()));
            }
            if !q.recon_norms.is_empty() && q.recon_norms.len() != n {
                return Err(TvError::Storage("inconsistent quant norms".into()));
            }
            if let Some(r) = &q.rerank {
                if r.codes.len() != n * r.codec.code_len()
                    || (!r.recon_norms.is_empty() && r.recon_norms.len() != n)
                {
                    return Err(TvError::Storage("inconsistent rerank store".into()));
                }
            }
        }
        let mut slot_of = HashMap::with_capacity(n);
        let mut deleted_count = 0;
        let mut live_mask = Bitmap::new(0);
        for (slot, (&key, &dead)) in keys.iter().zip(&deleted).enumerate() {
            if dead {
                deleted_count += 1;
            } else {
                slot_of.insert(key, slot as u32);
                let local = key.local().0 as usize;
                live_mask.grow(local + 1);
                live_mask.set(local, true);
            }
        }
        // The snapshot format carries no norms; rebuild the cache in one
        // pass over the arena (cheaper than persisting and keeps old
        // snapshots readable). Codes-only tiers keep no arena norms.
        let k = kernels::active();
        let norms = if vectors.is_empty() {
            Vec::new()
        } else {
            (0..n)
                .map(|s| k.norm_sq(&vectors[s * cfg.dim..(s + 1) * cfg.dim]).sqrt())
                .collect()
        };
        Ok(HnswIndex {
            cfg,
            vectors,
            norms,
            keys,
            slot_of,
            links,
            levels,
            deleted,
            deleted_count,
            live_mask,
            entry,
            packed: None,
            scratch: ScratchPool::default(),
            quant,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::ids::{LocalId, SegmentId};
    use tv_common::Bitmap;

    fn key(i: u32) -> VertexId {
        VertexId::new(SegmentId(0), LocalId(i))
    }

    /// Deterministic clustered test vectors.
    fn make_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.next_f32() * 10.0).collect())
            .collect()
    }

    fn build_index(vecs: &[Vec<f32>]) -> HnswIndex {
        let mut idx = HnswIndex::new(HnswConfig::new(vecs[0].len(), DistanceMetric::L2));
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(key(i as u32), v).unwrap();
        }
        idx
    }

    fn exact_top_k(vecs: &[Vec<f32>], q: &[f32], k: usize) -> Vec<u32> {
        let mut scored: Vec<(f32, u32)> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| (tv_common::metric::l2_sq(q, v), i as u32))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        scored.into_iter().take(k).map(|(_, i)| i).collect()
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = HnswIndex::new(HnswConfig::new(4, DistanceMetric::L2));
        let (r, _) = idx.top_k(&[0.0; 4], 5, 50, Filter::All);
        assert!(r.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.is_empty());
    }

    #[test]
    fn single_point() {
        let mut idx = HnswIndex::new(HnswConfig::new(2, DistanceMetric::L2));
        idx.insert(key(0), &[1.0, 2.0]).unwrap();
        let (r, _) = idx.top_k(&[1.0, 2.0], 1, 10, Filter::All);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, key(0));
        assert!(r[0].dist < 1e-6);
    }

    #[test]
    fn insert_rejects_wrong_dimension() {
        let mut idx = HnswIndex::new(HnswConfig::new(4, DistanceMetric::L2));
        let err = idx.insert(key(0), &[1.0, 2.0]).unwrap_err();
        assert!(matches!(
            err,
            TvError::DimensionMismatch {
                expected: 4,
                got: 2
            }
        ));
    }

    #[test]
    fn recall_at_10_is_high() {
        let vecs = make_vectors(2000, 16, 7);
        let idx = build_index(&vecs);
        let queries = make_vectors(20, 16, 99);
        let mut hits = 0;
        let mut total = 0;
        for q in &queries {
            let exact = exact_top_k(&vecs, q, 10);
            let (approx, _) = idx.top_k(q, 10, 100, Filter::All);
            let got: Vec<u32> = approx.iter().map(|n| n.id.local().0).collect();
            total += exact.len();
            hits += exact.iter().filter(|e| got.contains(e)).count();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.9, "recall {recall}");
    }

    #[test]
    fn higher_ef_does_not_reduce_quality() {
        let vecs = make_vectors(1000, 8, 3);
        let idx = build_index(&vecs);
        let q = &vecs[123];
        let (lo, _) = idx.top_k(q, 10, 10, Filter::All);
        let (hi, _) = idx.top_k(q, 10, 200, Filter::All);
        // Sum of distances with larger beam must be <= with smaller beam.
        let sum = |v: &Vec<Neighbor>| v.iter().map(|n| n.dist as f64).sum::<f64>();
        assert!(sum(&hi) <= sum(&lo) + 1e-6);
    }

    #[test]
    fn delete_excludes_from_results() {
        let vecs = make_vectors(200, 8, 5);
        let mut idx = build_index(&vecs);
        let q = vecs[0].clone();
        let (before, _) = idx.top_k(&q, 1, 50, Filter::All);
        assert_eq!(before[0].id, key(0));
        assert!(idx.remove(key(0)));
        let (after, _) = idx.top_k(&q, 1, 50, Filter::All);
        assert_ne!(after[0].id, key(0));
        assert_eq!(idx.len(), 199);
        assert!(idx.get_embedding(key(0)).is_none());
        // Double-remove reports false.
        assert!(!idx.remove(key(0)));
    }

    #[test]
    fn upsert_replaces_vector() {
        let vecs = make_vectors(100, 4, 11);
        let mut idx = build_index(&vecs);
        let newv = vec![100.0, 100.0, 100.0, 100.0];
        idx.insert(key(5), &newv).unwrap();
        assert_eq!(idx.get_embedding(key(5)).unwrap(), newv.as_slice());
        assert_eq!(idx.len(), 100); // still 100 live
                                    // In-place update: no tombstone, no slot growth.
        assert_eq!(idx.tombstone_count(), 0);
        assert_eq!(idx.slot_count(), 100);
        let (r, _) = idx.top_k(&newv, 1, 50, Filter::All);
        assert_eq!(r[0].id, key(5));
    }

    #[test]
    fn filtered_search_respects_bitmap() {
        let vecs = make_vectors(500, 8, 13);
        let idx = build_index(&vecs);
        // Only even local ids valid.
        let bm = Bitmap::from_indices(500, (0..500).step_by(2));
        let (r, stats) = idx.top_k(&vecs[3], 10, 100, Filter::Valid(&bm));
        assert_eq!(r.len(), 10);
        assert!(r.iter().all(|n| n.id.local().0 % 2 == 0));
        assert!(stats.filtered_out > 0);
    }

    #[test]
    fn filtered_search_with_tiny_valid_set_finds_them() {
        let vecs = make_vectors(500, 8, 17);
        let idx = build_index(&vecs);
        let bm = Bitmap::from_indices(500, [42usize, 99]);
        let (r, _) = idx.top_k(&vecs[0], 10, 400, Filter::Valid(&bm));
        // May find fewer than requested, but only valid ones.
        assert!(!r.is_empty());
        assert!(r
            .iter()
            .all(|n| n.id.local().0 == 42 || n.id.local().0 == 99));
    }

    #[test]
    fn brute_force_matches_exact() {
        let vecs = make_vectors(300, 8, 19);
        let idx = build_index(&vecs);
        let q = &vecs[7];
        let exact = exact_top_k(&vecs, q, 5);
        let (bf, stats) = idx.brute_force_top_k(q, 5, Filter::All);
        let got: Vec<u32> = bf.iter().map(|n| n.id.local().0).collect();
        assert_eq!(got, exact);
        assert!(stats.brute_force);
        assert_eq!(stats.distance_computations, 300);
    }

    #[test]
    fn range_search_returns_only_within_threshold() {
        let vecs = make_vectors(400, 8, 23);
        let idx = build_index(&vecs);
        let q = &vecs[11];
        let threshold = 30.0f32;
        let (r, _) = idx.range_search(q, threshold, 100, Filter::All);
        assert!(r.iter().all(|n| n.dist <= threshold));
        // Compare against exact count (allow small ANN slack).
        let exact = vecs
            .iter()
            .filter(|v| tv_common::metric::l2_sq(q, v) <= threshold)
            .count();
        assert!(
            r.len() as f64 >= exact as f64 * 0.8,
            "range recall too low: {} vs {exact}",
            r.len()
        );
    }

    #[test]
    fn range_search_zero_threshold_finds_self() {
        let vecs = make_vectors(100, 8, 29);
        let idx = build_index(&vecs);
        let (r, _) = idx.range_search(&vecs[5], 1e-9, 50, Filter::All);
        assert!(r.iter().any(|n| n.id == key(5)));
    }

    #[test]
    fn update_items_applies_in_order() {
        let mut idx = HnswIndex::new(HnswConfig::new(2, DistanceMetric::L2));
        let recs = vec![
            DeltaRecord::upsert(key(0), Tid(1), vec![0.0, 0.0]),
            DeltaRecord::upsert(key(1), Tid(2), vec![1.0, 1.0]),
            DeltaRecord::upsert(key(0), Tid(3), vec![5.0, 5.0]), // update
            DeltaRecord::delete(key(1), Tid(4)),
        ];
        let n = idx.update_items(&recs).unwrap();
        assert_eq!(n, 4);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get_embedding(key(0)).unwrap(), &[5.0, 5.0]);
        assert!(idx.get_embedding(key(1)).is_none());
    }

    #[test]
    fn scan_yields_live_entries_once() {
        let vecs = make_vectors(50, 4, 31);
        let mut idx = build_index(&vecs);
        idx.insert(key(3), &[9.0, 9.0, 9.0, 9.0]).unwrap(); // upsert
        idx.remove(key(7));
        let entries: Vec<VertexId> = idx.scan().map(|(k, _)| k).collect();
        assert_eq!(entries.len(), 49);
        let mut uniq = entries.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 49);
        assert!(!entries.contains(&key(7)));
    }

    #[test]
    fn stats_count_work() {
        let vecs = make_vectors(500, 8, 37);
        let idx = build_index(&vecs);
        let (_, stats) = idx.top_k(&vecs[0], 10, 50, Filter::All);
        assert!(stats.distance_computations > 10);
        assert!(stats.hops > 0);
        assert!(!stats.brute_force);
    }

    #[test]
    fn deterministic_given_seed() {
        let vecs = make_vectors(300, 8, 41);
        let a = build_index(&vecs);
        let b = build_index(&vecs);
        let (ra, _) = a.top_k(&vecs[9], 10, 60, Filter::All);
        let (rb, _) = b.top_k(&vecs[9], 10, 60, Filter::All);
        assert_eq!(
            ra.iter().map(|n| n.id).collect::<Vec<_>>(),
            rb.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cosine_metric_search() {
        let mut idx = HnswIndex::new(HnswConfig::new(3, DistanceMetric::Cosine));
        idx.insert(key(0), &[1.0, 0.0, 0.0]).unwrap();
        idx.insert(key(1), &[0.0, 1.0, 0.0]).unwrap();
        idx.insert(key(2), &[0.9, 0.1, 0.0]).unwrap();
        let (r, _) = idx.top_k(&[1.0, 0.0, 0.0], 2, 10, Filter::All);
        assert_eq!(r[0].id, key(0));
        assert_eq!(r[1].id, key(2));
    }

    #[test]
    fn memory_bytes_grows_with_content() {
        let vecs = make_vectors(100, 16, 43);
        let idx = build_index(&vecs);
        assert!(idx.memory_bytes() >= 100 * 16 * 4);
    }

    #[test]
    fn active_tier_exact_topk_matches_scalar_reference() {
        // Recall-affecting guarantee, tested rather than assumed: the ids an
        // exact scan returns under whatever tier this machine dispatches to
        // must equal the ids computed with the scalar reference kernels.
        use tv_common::kernels::{self, cosine_from_parts, KernelTier};
        let vecs = make_vectors(400, 24, 61);
        let mut idx = HnswIndex::new(HnswConfig::new(24, DistanceMetric::Cosine));
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(key(i as u32), v).unwrap();
        }
        let scalar = kernels::for_tier(KernelTier::Scalar).unwrap();
        for probe in [0usize, 5, 123] {
            let q = &vecs[probe];
            let qn = scalar.norm_sq(q).sqrt();
            let mut scored: Vec<(f32, u32)> = vecs
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let (d, nn) = scalar.dot_norm_sq(q, v);
                    (cosine_from_parts(d, qn * nn.sqrt()), i as u32)
                })
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0));
            let exact: Vec<u32> = scored.into_iter().take(10).map(|(_, i)| i).collect();
            let (bf, _) = idx.brute_force_top_k(q, 10, Filter::All);
            let got: Vec<u32> = bf.iter().map(|n| n.id.local().0).collect();
            assert_eq!(
                got,
                exact,
                "active tier {} disagrees with scalar ranking",
                kernels::active().tier()
            );
        }
    }

    #[test]
    fn memory_bytes_covers_all_resident_structures() {
        let vecs = make_vectors(200, 16, 53);
        let idx = build_index(&vecs);
        use std::mem::size_of;
        // Lower bound from first principles: arena + norm cache + keys +
        // levels + tombstones + link payloads + slot_of entries. If any of
        // these stops being counted, this assertion breaks.
        let link_payload: usize = idx
            .links
            .iter()
            .map(|per_node| {
                per_node
                    .iter()
                    .map(|l| l.len() * size_of::<u32>())
                    .sum::<usize>()
            })
            .sum();
        let floor = idx.vectors.len() * size_of::<f32>()
            + idx.norms.len() * size_of::<f32>()
            + idx.keys.len() * size_of::<VertexId>()
            + idx.levels.len()
            + idx.deleted.len()
            + link_payload
            + idx.slot_of.len() * (size_of::<VertexId>() + size_of::<u32>());
        assert!(
            idx.memory_bytes() >= floor,
            "memory_bytes {} < structural floor {floor}",
            idx.memory_bytes()
        );
        // The norm cache alone must be visible in the accounting: one f32
        // per slot.
        assert_eq!(idx.norms.len(), idx.slot_count());
    }

    #[test]
    fn live_fraction_tracks_deletes() {
        let vecs = make_vectors(100, 4, 47);
        let mut idx = build_index(&vecs);
        assert!((idx.live_fraction() - 1.0).abs() < 1e-9);
        for i in 0..50 {
            idx.remove(key(i));
        }
        assert!((idx.live_fraction() - 0.5).abs() < 1e-9);
    }

    fn recall_against_exact(idx: &HnswIndex, vecs: &[Vec<f32>], queries: &[Vec<f32>]) -> f64 {
        let mut hits = 0;
        for q in queries {
            let exact = exact_top_k(vecs, q, 10);
            let (got, _) = idx.top_k(q, 10, 100, Filter::All);
            hits += exact
                .iter()
                .filter(|e| got.iter().any(|n| n.id.local().0 == **e))
                .count();
        }
        hits as f64 / (queries.len() as f64 * 10.0)
    }

    #[test]
    fn sq8_codes_only_high_recall_and_memory_win() {
        let vecs = make_vectors(600, 32, 11);
        let mut idx = build_index(&vecs);
        let f32_bytes = idx.vector_storage_bytes();
        idx.quantize(QuantSpec::sq8()).unwrap();
        assert_eq!(idx.storage_tier(), StorageTier::Sq8);
        // The acceptance bar: ≤ 0.30× the f32 vector-storage bytes.
        let q_bytes = idx.vector_storage_bytes();
        assert!(
            (q_bytes as f64) <= 0.30 * f32_bytes as f64,
            "sq8 bytes {q_bytes} vs f32 {f32_bytes}"
        );
        let queries = make_vectors(20, 32, 77);
        let recall = recall_against_exact(&idx, &vecs, &queries);
        assert!(recall >= 0.9, "sq8 codes-only recall {recall}");
    }

    #[test]
    fn sq8_keep_f32_rerank_returns_exact_distances() {
        let vecs = make_vectors(400, 16, 13);
        let mut idx = build_index(&vecs);
        idx.quantize(QuantSpec::sq8().with_keep_f32(true).with_rerank_factor(4))
            .unwrap();
        let queries = make_vectors(10, 16, 5);
        for q in &queries {
            let (got, stats) = idx.top_k(q, 5, 64, Filter::All);
            assert!(stats.reranked > 0, "rerank stage must run");
            // Reranked distances come from the retained f32 arena, so they
            // must equal the exact metric values.
            for n in &got {
                let v = &vecs[n.id.local().0 as usize];
                let exact = tv_common::metric::l2_sq(q, v);
                assert!(
                    (n.dist - exact).abs() <= 1e-5 * exact.max(1.0),
                    "dist {} vs exact {exact}",
                    n.dist
                );
            }
        }
        let recall = recall_against_exact(&idx, &vecs, &queries);
        assert!(recall >= 0.95, "keep_f32 rerank recall {recall}");
    }

    #[test]
    fn pq_codes_only_reranks_from_sq8_store() {
        let vecs = make_vectors(500, 16, 17);
        let mut idx = build_index(&vecs);
        idx.quantize(QuantSpec::pq(8).with_rerank_factor(8))
            .unwrap();
        assert_eq!(idx.storage_tier(), StorageTier::Pq { m: 8 });
        let queries = make_vectors(10, 16, 3);
        let (_, stats) = idx.top_k(&queries[0], 5, 64, Filter::All);
        assert!(stats.reranked > 0, "PQ codes-only must rerank via SQ8");
        let recall = recall_against_exact(&idx, &vecs, &queries);
        assert!(recall >= 0.7, "pq+sq8-rerank recall {recall}");
    }

    #[test]
    fn quantized_index_accepts_inserts_updates_deletes() {
        let vecs = make_vectors(300, 8, 23);
        let mut idx = build_index(&vecs);
        idx.quantize(QuantSpec::sq8()).unwrap();
        // Incremental insert encodes with the frozen codec.
        let novel = vec![9.5; 8];
        idx.insert(key(9000), &novel).unwrap();
        let (r, _) = idx.top_k(&novel, 1, 64, Filter::All);
        assert_eq!(r[0].id, key(9000));
        // Upsert re-encodes in place.
        let moved = vec![0.25; 8];
        idx.insert(key(3), &moved).unwrap();
        let got = idx.get_embedding(key(3)).unwrap();
        for (a, b) in got.iter().zip(&moved) {
            assert!((a - b).abs() < 0.1, "reconstruction {a} vs {b}");
        }
        // Delete excludes from results.
        assert!(idx.remove(key(9000)));
        let (r, _) = idx.top_k(&novel, 1, 64, Filter::All);
        assert_ne!(r[0].id, key(9000));
    }

    #[test]
    fn quantized_cosine_search_works() {
        let vecs = make_vectors(300, 12, 31);
        let mut idx = HnswIndex::new(HnswConfig::new(12, DistanceMetric::Cosine));
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(key(i as u32), v).unwrap();
        }
        idx.quantize(QuantSpec::sq8()).unwrap();
        let q = &vecs[42];
        let (r, _) = idx.top_k(q, 3, 64, Filter::All);
        assert_eq!(r[0].id, key(42), "self-query must top the list");
        assert!(r[0].dist < 1e-3, "cosine self-distance {}", r[0].dist);
    }

    #[test]
    fn quantize_rejects_invalid_transitions() {
        let mut empty = HnswIndex::new(HnswConfig::new(4, DistanceMetric::L2));
        assert!(empty.quantize(QuantSpec::sq8()).is_err(), "empty index");

        let vecs = make_vectors(50, 4, 7);
        let mut idx = build_index(&vecs);
        // F32 spec on an unquantized index is a no-op.
        idx.quantize(QuantSpec::f32()).unwrap();
        idx.quantize(QuantSpec::sq8()).unwrap();
        // Tier changes require a rebuild.
        assert!(idx.quantize(QuantSpec::pq(2)).is_err());
        // Codes-only cannot go back to f32 (the arena is gone).
        assert!(idx.quantize(QuantSpec::f32()).is_err());

        // keep_f32 CAN go back: the arena still exists.
        let mut kept = build_index(&vecs);
        kept.quantize(QuantSpec::sq8().with_keep_f32(true)).unwrap();
        kept.quantize(QuantSpec::f32()).unwrap();
        assert_eq!(kept.storage_tier(), StorageTier::F32);
    }

    #[test]
    fn codes_only_get_embedding_is_bounded_reconstruction() {
        let vecs = make_vectors(200, 8, 3);
        let mut idx = build_index(&vecs);
        idx.quantize(QuantSpec::sq8()).unwrap();
        // SQ8 reconstruction error is at most one quantization step per
        // dim; with values in [0,10) a loose 0.1 bound is safe (step ≈
        // range/255 ≈ 0.04).
        for i in [0u32, 57, 199] {
            let got = idx.get_embedding(key(i)).unwrap();
            for (a, b) in got.iter().zip(&vecs[i as usize]) {
                assert!((a - b).abs() < 0.1, "slot {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn quantized_brute_force_matches_graph_results() {
        let vecs = make_vectors(300, 16, 41);
        let mut idx = build_index(&vecs);
        idx.quantize(QuantSpec::sq8().with_keep_f32(true)).unwrap();
        let q = make_vectors(1, 16, 9).pop().unwrap();
        let (bf, stats) = idx.brute_force_top_k(&q, 10, Filter::All);
        assert!(stats.brute_force);
        assert!(stats.reranked > 0);
        // Brute force over codes + exact rerank must agree with the exact
        // scan on the retained arena for the top results.
        let exact = exact_top_k(&vecs, &q, 10);
        let got: Vec<u32> = bf.iter().map(|n| n.id.local().0).collect();
        let hits = exact.iter().filter(|e| got.contains(e)).count();
        assert!(hits >= 9, "brute-force quantized hits {hits}/10");
    }

    #[test]
    fn quantized_memory_bytes_counts_codes() {
        let vecs = make_vectors(100, 8, 53);
        let mut idx = build_index(&vecs);
        let before = idx.memory_bytes();
        idx.quantize(QuantSpec::sq8()).unwrap();
        let after = idx.memory_bytes();
        assert!(
            after < before,
            "codes-only must shrink: {after} vs {before}"
        );
        // The code arena (1 byte/dim/slot) must be visible in the total.
        assert!(after >= idx.slot_count() * 8);
    }

    /// Bit-level comparison of result lists: same ids, same distance bits.
    fn assert_bit_identical(a: &[Neighbor], b: &[Neighbor], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length mismatch");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id, "{ctx}: id mismatch");
            assert_eq!(
                x.dist.to_bits(),
                y.dist.to_bits(),
                "{ctx}: distance bits mismatch"
            );
        }
    }

    #[test]
    fn pooled_scratch_searches_bit_identical_to_fresh_pool() {
        let vecs = make_vectors(400, 16, 91);
        let mut idx = build_index(&vecs);
        // Tombstones give the filtered path deleted slots to skip.
        for i in 0..40 {
            idx.remove(key(i * 7));
        }
        let mut bm = Bitmap::new(400);
        for i in 0..400 {
            bm.set(i, i % 3 != 0);
        }
        // A clone starts with an empty scratch pool: its first search runs
        // on freshly allocated buffers, exactly like the pre-pooling code.
        let fresh = idx.clone();
        let queries = make_vectors(25, 16, 17);
        for (qi, q) in queries.iter().enumerate() {
            // Warm the pool, then reuse it: both passes must match the
            // fresh-buffer oracle bit for bit.
            let (warm, _) = idx.top_k(q, 10, 64, Filter::All);
            let (reused, _) = idx.top_k(q, 10, 64, Filter::All);
            let (oracle, _) = fresh.top_k(q, 10, 64, Filter::All);
            assert_bit_identical(&warm, &oracle, &format!("top_k q{qi} warm"));
            assert_bit_identical(&reused, &oracle, &format!("top_k q{qi} reused"));

            let (filt, _) = idx.top_k(q, 10, 64, Filter::Valid(&bm));
            let (filt_oracle, _) = fresh.top_k(q, 10, 64, Filter::Valid(&bm));
            assert_bit_identical(&filt, &filt_oracle, &format!("filtered q{qi}"));

            let (rng_res, _) = idx.range_search(q, 30.0, 64, Filter::All);
            let (rng_oracle, _) = fresh.range_search(q, 30.0, 64, Filter::All);
            assert_bit_identical(&rng_res, &rng_oracle, &format!("range q{qi}"));
        }
    }

    #[test]
    fn scratch_epoch_wrap_resets_visit_marks() {
        let mut s = SearchScratch::default();
        s.begin(8);
        assert!(s.visit(3));
        assert!(!s.visit(3));
        // Force the wrap: the next begin() must zero the marks once and
        // restart epochs, so slot 3 reads unvisited again.
        s.epoch = u32::MAX;
        s.begin(8);
        assert_eq!(s.epoch, 1);
        assert!(s.visit(3), "post-wrap visit must start clean");
        assert!(!s.visit(3));
        // A stale mark from the pre-wrap era can never alias the new epoch.
        assert!(s.marks.iter().all(|&m| m <= 1));
    }

    #[test]
    fn insert_batch_single_thread_is_bit_identical_to_sequential() {
        let vecs = make_vectors(300, 8, 23);
        let items: Vec<(VertexId, Vec<f32>)> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| (key(i as u32), v.clone()))
            .collect();
        let seq = build_index(&vecs);
        let mut batched = HnswIndex::new(HnswConfig::new(8, DistanceMetric::L2));
        batched.insert_batch(&items, 1).unwrap();
        assert_eq!(
            crate::snapshot::to_bytes(&seq),
            crate::snapshot::to_bytes(&batched),
            "threads=1 insert_batch must reproduce the sequential build byte for byte"
        );
    }

    #[test]
    fn parallel_build_keeps_recall_and_loses_no_keys() {
        let n = 600usize;
        let vecs = make_vectors(n, 16, 41);
        let items: Vec<(VertexId, Vec<f32>)> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| (key(i as u32), v.clone()))
            .collect();
        let queries = make_vectors(30, 16, 77);
        let mut seq = HnswIndex::new(HnswConfig::new(16, DistanceMetric::L2));
        seq.insert_batch(&items, 1).unwrap();
        let seq_recall = recall_against_exact(&seq, &vecs, &queries);
        for threads in [2usize, 4, 8] {
            let mut idx = HnswIndex::new(HnswConfig::new(16, DistanceMetric::L2));
            idx.insert_batch(&items, threads).unwrap();
            // No lost or duplicated keys: every key maps to exactly one
            // live slot and the scan returns each exactly once.
            assert_eq!(idx.len(), n, "threads={threads}: live count");
            let mut seen: Vec<u32> = idx.scan().map(|(id, _)| id.local().0).collect();
            seen.sort_unstable();
            assert_eq!(seen.len(), n, "threads={threads}: scan count");
            seen.dedup();
            assert_eq!(seen.len(), n, "threads={threads}: duplicate keys");
            // Deterministic levels: identical node levels regardless of
            // thread count (only link sets may differ).
            assert_eq!(idx.levels, seq.levels, "threads={threads}: levels");
            let recall = recall_against_exact(&idx, &vecs, &queries);
            assert!(
                recall >= seq_recall - 0.005,
                "threads={threads}: recall {recall} vs sequential {seq_recall}"
            );
        }
    }

    #[test]
    fn insert_batch_routes_duplicates_and_live_keys_sequentially() {
        let vecs = make_vectors(120, 8, 67);
        let mut idx = build_index(&vecs[..100]);
        idx.remove(key(5));
        // Batch mixing: a live-key upsert (update-in-place path), a key
        // repeated within the batch (last write must win), a re-insert of a
        // tombstoned key, and fresh appends.
        let items: Vec<(VertexId, Vec<f32>)> = vec![
            (key(3), vecs[100].clone()),
            (key(200), vecs[101].clone()),
            (key(200), vecs[102].clone()),
            (key(5), vecs[103].clone()),
            (key(201), vecs[104].clone()),
            (key(202), vecs[105].clone()),
        ];
        let mut oracle = idx.clone();
        for (k, v) in &items {
            oracle.insert(*k, v).unwrap();
        }
        idx.insert_batch(&items, 4).unwrap();
        assert_eq!(idx.len(), oracle.len());
        let mut got: Vec<(u32, Vec<f32>)> = idx.scan().map(|(id, v)| (id.local().0, v)).collect();
        let mut want: Vec<(u32, Vec<f32>)> =
            oracle.scan().map(|(id, v)| (id.local().0, v)).collect();
        got.sort_by_key(|(l, _)| *l);
        want.sort_by_key(|(l, _)| *l);
        assert_eq!(got, want, "live key→vector mapping must match sequential");
    }

    #[test]
    fn update_items_with_parallel_matches_sequential_membership() {
        let vecs = make_vectors(260, 8, 53);
        let mut idx = build_index(&vecs[..200]);
        let mut recs = Vec::new();
        for i in 0..30 {
            // Fresh appends (parallel-eligible).
            recs.push(DeltaRecord::upsert(
                key(300 + i),
                Tid(u64::from(i) + 1),
                vecs[200 + i as usize].clone(),
            ));
        }
        // Live-key upsert, delete, and a duplicate fresh key — all must
        // take the sequential path without disturbing the parallel set.
        recs.push(DeltaRecord::upsert(key(7), Tid(40), vecs[230].clone()));
        recs.push(DeltaRecord::delete(key(11), Tid(41)));
        recs.push(DeltaRecord::upsert(key(400), Tid(42), vecs[231].clone()));
        recs.push(DeltaRecord::upsert(key(400), Tid(43), vecs[232].clone()));
        let mut oracle = idx.clone();
        let want_applied = oracle.update_items(&recs).unwrap();
        let got_applied = idx.update_items_with(&recs, 4).unwrap();
        assert_eq!(got_applied, want_applied);
        assert_eq!(idx.len(), oracle.len());
        let mut got: Vec<(u32, Vec<f32>)> = idx.scan().map(|(id, v)| (id.local().0, v)).collect();
        let mut want: Vec<(u32, Vec<f32>)> =
            oracle.scan().map(|(id, v)| (id.local().0, v)).collect();
        got.sort_by_key(|(l, _)| *l);
        want.sort_by_key(|(l, _)| *l);
        assert_eq!(got, want);
    }

    #[test]
    fn level_assignment_is_independent_of_insertion_order() {
        let vecs = make_vectors(100, 8, 29);
        let forward = build_index(&vecs);
        let mut reversed = HnswIndex::new(HnswConfig::new(8, DistanceMetric::L2));
        for (i, v) in vecs.iter().enumerate().rev() {
            reversed.insert(key(i as u32), v).unwrap();
        }
        for i in 0..100u32 {
            let fs = forward.slot_of[&key(i)] as usize;
            let rs = reversed.slot_of[&key(i)] as usize;
            assert_eq!(
                forward.levels[fs], reversed.levels[rs],
                "key {i}: level must depend only on the key and seed"
            );
        }
        // Re-insert after delete lands on the same level.
        let mut idx = forward.clone();
        let before = idx.levels[idx.slot_of[&key(42)] as usize];
        idx.remove(key(42));
        idx.insert(key(42), &vecs[42]).unwrap();
        assert_eq!(idx.levels[idx.slot_of[&key(42)] as usize], before);
    }
}
