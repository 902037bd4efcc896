//! IVF-Flat: an inverted-file index behind the same [`VectorIndex`] trait.
//!
//! The paper notes that "other vector indexes (such as quantization-based
//! indexes) can be easily integrated into TigerVector" because the engine
//! only needs the four generic functions (§4.4). This module demonstrates
//! that: a k-means coarse quantizer with `nprobe` list probing implements
//! the same trait as HNSW, and the embedding service composes with it
//! unchanged. It also serves as the ablation partner in the benchmark
//! suite (HNSW vs IVF recall/latency trade-offs).

use crate::index::{DeltaAction, DeltaRecord, Payload, QuantState, VectorIndex};
use crate::stats::SearchStats;
use std::collections::HashMap;
use tv_common::bitmap::Filter;
use tv_common::kernels;
use tv_common::{
    DistanceMetric, Neighbor, PreparedQuery, QuantSpec, SplitMix64, StorageTier, TvError, TvResult,
    VertexId,
};

/// IVF-Flat configuration.
#[derive(Debug, Clone, Copy)]
pub struct IvfConfig {
    /// Vector dimensionality.
    pub dim: usize,
    /// Distance metric.
    pub metric: DistanceMetric,
    /// Number of inverted lists (k-means centroids).
    pub nlist: usize,
    /// Lists probed per query.
    pub nprobe: usize,
    /// k-means iterations at (re)train time.
    pub train_iters: usize,
    /// RNG seed for centroid init.
    pub seed: u64,
}

impl IvfConfig {
    /// Reasonable defaults for `dim`/`metric`.
    #[must_use]
    pub fn new(dim: usize, metric: DistanceMetric) -> Self {
        IvfConfig {
            dim,
            metric,
            nlist: 64,
            nprobe: 8,
            train_iters: 5,
            seed: 0x1F1F,
        }
    }
}

/// Inverted-file flat index: coarse k-means partition + exact scan of the
/// probed lists.
pub struct IvfFlatIndex {
    cfg: IvfConfig,
    /// Flat centroid storage (nlist × dim), empty until trained.
    centroids: Vec<f32>,
    /// Euclidean norm per centroid (refreshed whenever centroids move).
    centroid_norms: Vec<f32>,
    /// Per-list member slots.
    lists: Vec<Vec<u32>>,
    /// Slot-major vectors.
    vectors: Vec<f32>,
    /// Per-slot Euclidean norm cache.
    norms: Vec<f32>,
    keys: Vec<VertexId>,
    slot_of: HashMap<VertexId, u32>,
    deleted: Vec<bool>,
    live: usize,
    /// Quantized storage tier, if attached via [`IvfFlatIndex::quantize`].
    /// When `spec.keep_f32` is false, `vectors`/`norms` are empty and all
    /// list scoring runs against codes (centroids stay f32).
    quant: Option<QuantState>,
}

impl IvfFlatIndex {
    /// New untrained index.
    #[must_use]
    pub fn new(cfg: IvfConfig) -> Self {
        assert!(cfg.dim > 0 && cfg.nlist > 0, "bad IVF config");
        IvfFlatIndex {
            cfg,
            centroids: Vec::new(),
            centroid_norms: Vec::new(),
            lists: vec![Vec::new(); cfg.nlist],
            vectors: Vec::new(),
            norms: Vec::new(),
            keys: Vec::new(),
            slot_of: HashMap::new(),
            deleted: Vec::new(),
            live: 0,
            quant: None,
        }
    }

    fn vec_of(&self, slot: u32) -> &[f32] {
        let d = self.cfg.dim;
        &self.vectors[slot as usize * d..(slot as usize + 1) * d]
    }

    /// The vector at `slot`, reconstructed from codes when the f32 arena
    /// has been dropped.
    fn materialize(&self, slot: u32) -> Vec<f32> {
        if !self.vectors.is_empty() {
            return self.vec_of(slot).to_vec();
        }
        let q = self.quant.as_ref().expect("no arena and no quant state");
        let mut out = vec![0.0f32; self.cfg.dim];
        q.materialize_into(slot as usize, &mut out);
        out
    }

    /// Attach a quantized storage tier (same semantics as
    /// `HnswIndex::quantize`): train on the current arena, encode every
    /// slot, and drop the f32 arena unless the spec retains it.
    pub fn quantize(&mut self, spec: QuantSpec) -> TvResult<()> {
        if spec.tier == StorageTier::F32 {
            return match &self.quant {
                None => Ok(()),
                Some(q) if q.spec.keep_f32 => {
                    self.quant = None;
                    Ok(())
                }
                Some(_) => Err(TvError::InvalidArgument(
                    "cannot drop quantization: f32 arena was discarded".into(),
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
        let q = QuantState::build(
            spec,
            self.cfg.dim,
            self.cfg.metric,
            &self.vectors,
            self.cfg.seed,
        )?;
        if !spec.keep_f32 {
            self.vectors = Vec::new();
            self.norms = Vec::new();
        }
        self.quant = Some(q);
        Ok(())
    }

    /// The active storage tier.
    #[must_use]
    pub fn storage_tier(&self) -> StorageTier {
        self.quant
            .as_ref()
            .map_or(StorageTier::F32, |q| q.spec.tier)
    }

    /// The quantization spec, if a tier is attached.
    #[must_use]
    pub fn quant_spec(&self) -> Option<QuantSpec> {
        self.quant.as_ref().map(|q| q.spec)
    }

    /// Resident bytes of vector payloads (arena + norms + codes).
    #[must_use]
    pub fn vector_storage_bytes(&self) -> usize {
        use std::mem::size_of;
        self.vectors.len() * size_of::<f32>()
            + self.norms.len() * size_of::<f32>()
            + self.quant.as_ref().map_or(0, QuantState::bytes)
    }

    /// The scored payload (f32 arena, norm cache, quantized tier).
    fn payload(&self) -> Payload<'_> {
        Payload {
            dim: self.cfg.dim,
            metric: self.cfg.metric,
            vectors: &self.vectors,
            norms: &self.norms,
            quant: self.quant.as_ref(),
        }
    }

    /// Exact-rerank stage over the probed shortlist ([`Payload::rerank`]).
    fn rerank_and_take(
        &self,
        query: &[f32],
        found: Vec<(f32, u32)>,
        k: usize,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        self.payload()
            .rerank(query, found, k, stats)
            .into_iter()
            .map(|(d, s)| Neighbor::new(self.keys[s as usize], d))
            .collect()
    }

    fn centroid(&self, c: usize) -> &[f32] {
        let d = self.cfg.dim;
        &self.centroids[c * d..(c + 1) * d]
    }

    /// Whether k-means has run.
    #[must_use]
    pub fn is_trained(&self) -> bool {
        !self.centroids.is_empty()
    }

    /// Train the coarse quantizer on the current live vectors and rebuild
    /// the inverted lists. Call after bulk loading (or rely on the lazy
    /// training in `top_k`).
    pub fn train(&mut self) {
        let d = self.cfg.dim;
        let live_slots: Vec<u32> = (0..self.keys.len() as u32)
            .filter(|&s| !self.deleted[s as usize])
            .collect();
        if live_slots.is_empty() {
            self.centroids.clear();
            self.centroid_norms.clear();
            return;
        }
        let nlist = self.cfg.nlist.min(live_slots.len());
        // Init: sample distinct points. Codes-only tiers train on
        // reconstructions (training is offline, the copies are fine).
        let mut rng = SplitMix64::new(self.cfg.seed);
        let mut picks = live_slots.clone();
        rng.shuffle(&mut picks);
        self.centroids = picks[..nlist]
            .iter()
            .flat_map(|&s| self.materialize(s))
            .collect();
        self.refresh_centroid_norms(nlist);
        // Lloyd iterations.
        let mut scratch: Vec<f32> = Vec::new();
        for _ in 0..self.cfg.train_iters {
            let mut sums = vec![0.0f64; nlist * d];
            let mut counts = vec![0usize; nlist];
            for &s in &live_slots {
                let v = self.materialize(s);
                let c = self.nearest_centroid(&v, nlist, &mut scratch);
                counts[c] += 1;
                for (j, &x) in v.iter().enumerate() {
                    sums[c * d + j] += f64::from(x);
                }
            }
            for c in 0..nlist {
                if counts[c] > 0 {
                    for j in 0..d {
                        self.centroids[c * d + j] = (sums[c * d + j] / counts[c] as f64) as f32;
                    }
                }
            }
            self.refresh_centroid_norms(nlist);
        }
        // Rebuild lists.
        self.lists = vec![Vec::new(); nlist];
        for &s in &live_slots {
            let v = self.materialize(s);
            let c = self.nearest_centroid(&v, nlist, &mut scratch);
            self.lists[c].push(s);
        }
    }

    fn refresh_centroid_norms(&mut self, nlist: usize) {
        let k = kernels::active();
        self.centroid_norms = (0..nlist)
            .map(|c| k.norm_sq(self.centroid(c)).sqrt())
            .collect();
    }

    /// Nearest centroid to `v`, scored over the contiguous centroid slab in
    /// one batched kernel call (`dists` is caller-owned scratch).
    fn nearest_centroid(&self, v: &[f32], nlist: usize, dists: &mut Vec<f32>) -> usize {
        let d = self.cfg.dim;
        let pq = PreparedQuery::new(self.cfg.metric, v);
        dists.clear();
        dists.resize(nlist, 0.0);
        pq.distance_batch(
            &self.centroids[..nlist * d],
            Some(&self.centroid_norms[..nlist]),
            dists,
        );
        let mut best = 0;
        let mut best_d = f32::INFINITY;
        for (c, &dc) in dists.iter().enumerate() {
            if dc < best_d {
                best_d = dc;
                best = c;
            }
        }
        best
    }

    /// Insert or replace; new points go to their nearest list (once
    /// trained) without retraining — the incremental-update path.
    pub fn insert(&mut self, key: VertexId, vector: &[f32]) -> TvResult<()> {
        if vector.len() != self.cfg.dim {
            return Err(TvError::DimensionMismatch {
                expected: self.cfg.dim,
                got: vector.len(),
            });
        }
        if let Some(&old) = self.slot_of.get(&key) {
            if !self.deleted[old as usize] {
                self.deleted[old as usize] = true;
                self.live -= 1;
            }
        }
        let slot = self.keys.len() as u32;
        let metric = self.cfg.metric;
        if let Some(q) = &mut self.quant {
            q.push(metric, vector);
        }
        if self.quant.as_ref().is_none_or(|q| q.spec.keep_f32) {
            self.vectors.extend_from_slice(vector);
            self.norms.push(kernels::active().norm_sq(vector).sqrt());
        }
        self.keys.push(key);
        self.deleted.push(false);
        self.slot_of.insert(key, slot);
        self.live += 1;
        if self.is_trained() {
            let nlist = self.lists.len();
            let mut scratch = Vec::new();
            let c = self.nearest_centroid(vector, nlist, &mut scratch);
            self.lists[c].push(slot);
        }
        Ok(())
    }

    /// Mark deleted.
    pub fn remove(&mut self, key: VertexId) -> bool {
        if let Some(&slot) = self.slot_of.get(&key) {
            if !self.deleted[slot as usize] {
                self.deleted[slot as usize] = true;
                self.live -= 1;
                self.slot_of.remove(&key);
                return true;
            }
        }
        false
    }
}

impl VectorIndex for IvfFlatIndex {
    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn metric(&self) -> DistanceMetric {
        self.cfg.metric
    }

    fn len(&self) -> usize {
        self.live
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
        _ef: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut stats = SearchStats::default();
        if k == 0 || query.len() != self.cfg.dim || self.live == 0 {
            return (Vec::new(), stats);
        }
        let d = self.cfg.dim;
        let mut accepted: Vec<u32> = Vec::new();
        if !self.is_trained() {
            // Untrained: exact scan (small indexes never need training).
            stats.brute_force = true;
            accepted.reserve(self.live);
            for (&key, &slot) in &self.slot_of {
                if !filter.accepts(key.local().0 as usize) {
                    stats.filtered_out += 1;
                    continue;
                }
                accepted.push(slot);
            }
        } else {
            // Rank centroids over the contiguous centroid slab in one batched
            // call, probe the nearest `nprobe` lists. Centroids are always f32.
            let pq = PreparedQuery::new(self.cfg.metric, query);
            let nlist = self.lists.len();
            let mut dists = vec![0.0f32; nlist];
            pq.distance_batch(
                &self.centroids[..nlist * d],
                Some(&self.centroid_norms[..nlist]),
                &mut dists,
            );
            stats.distance_computations += nlist as u64;
            let mut ranked: Vec<(f32, usize)> = dists.iter().copied().zip(0..nlist).collect();
            ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            for &(_, c) in ranked.iter().take(self.cfg.nprobe.max(1)) {
                for &slot in &self.lists[c] {
                    if self.deleted[slot as usize] {
                        stats.deleted_skipped += 1;
                        continue;
                    }
                    let key = self.keys[slot as usize];
                    // Skip stale slots superseded by an upsert.
                    if self.slot_of.get(&key) != Some(&slot) {
                        continue;
                    }
                    if !filter.accepts(key.local().0 as usize) {
                        stats.filtered_out += 1;
                        continue;
                    }
                    accepted.push(slot);
                }
            }
            stats.hops += accepted.len() as u64;
        }
        // The `fetch` best approximate candidates of the accepted slots,
        // scored in one batched pass; the exact-rerank stage trims to `k`.
        let p = self.payload();
        let found = p.nearest(&p.scorer(query), &accepted, p.fetch_count(k), &mut stats);
        let out = self.rerank_and_take(query, found, k, &mut stats);
        (out, stats)
    }

    fn range_search(
        &self,
        query: &[f32],
        threshold: f32,
        ef: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats) {
        // Same DiskANN-style doubling adaptation as HNSW (§4.4).
        let mut stats = SearchStats::default();
        let mut k = 16usize;
        loop {
            let (results, s) = self.top_k(query, k, ef, filter);
            stats.merge(&s);
            let exhausted = results.len() < k || results.len() >= self.live;
            let median = if results.is_empty() {
                f32::INFINITY
            } else {
                results[results.len() / 2].dist
            };
            if exhausted || threshold < median {
                return (
                    results
                        .into_iter()
                        .filter(|n| n.dist <= threshold)
                        .collect(),
                    stats,
                );
            }
            k *= 2;
        }
    }

    fn update_items(&mut self, records: &[DeltaRecord]) -> TvResult<usize> {
        let mut applied = 0;
        for rec in records {
            match rec.action {
                DeltaAction::Upsert => self.insert(rec.id, &rec.vector)?,
                DeltaAction::Delete => {
                    self.remove(rec.id);
                }
            }
            applied += 1;
        }
        Ok(applied)
    }

    fn scan(&self) -> Box<dyn Iterator<Item = (VertexId, Vec<f32>)> + '_> {
        Box::new(self.slot_of.iter().map(|(&k, &s)| (k, self.materialize(s))))
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.vector_storage_bytes()
            + self.centroids.len() * size_of::<f32>()
            + self.centroid_norms.len() * size_of::<f32>()
            + self
                .lists
                .iter()
                .map(|l| l.len() * size_of::<u32>())
                .sum::<usize>()
            + self.keys.len() * size_of::<VertexId>()
            + self.deleted.len() * size_of::<bool>()
            + self.slot_of.len() * (size_of::<VertexId>() + size_of::<u32>())
    }

    fn storage_tier(&self) -> StorageTier {
        IvfFlatIndex::storage_tier(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::ids::{LocalId, SegmentId};

    fn key(i: u32) -> VertexId {
        VertexId::new(SegmentId(0), LocalId(i))
    }

    fn clustered(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SplitMix64::new(seed);
        let centers: Vec<Vec<f32>> = (0..8)
            .map(|_| (0..dim).map(|_| rng.next_f32() * 100.0).collect())
            .collect();
        (0..n)
            .map(|_| {
                let c = &centers[rng.next_below(8) as usize];
                c.iter()
                    .map(|&x| x + rng.next_gaussian() as f32 * 2.0)
                    .collect()
            })
            .collect()
    }

    fn build(n: usize) -> (IvfFlatIndex, Vec<Vec<f32>>) {
        let vecs = clustered(n, 8, 42);
        let mut idx = IvfFlatIndex::new(IvfConfig {
            nlist: 16,
            nprobe: 6,
            ..IvfConfig::new(8, DistanceMetric::L2)
        });
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(key(i as u32), v).unwrap();
        }
        idx.train();
        (idx, vecs)
    }

    #[test]
    fn untrained_falls_back_to_exact() {
        let vecs = clustered(50, 8, 1);
        let mut idx = IvfFlatIndex::new(IvfConfig::new(8, DistanceMetric::L2));
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(key(i as u32), v).unwrap();
        }
        assert!(!idx.is_trained());
        let (r, stats) = idx.top_k(&vecs[7], 1, 0, Filter::All);
        assert_eq!(r[0].id, key(7));
        assert!(stats.brute_force);
    }

    #[test]
    fn trained_search_finds_exact_match() {
        let (idx, vecs) = build(600);
        for probe in [0usize, 99, 321, 599] {
            let (r, stats) = idx.top_k(&vecs[probe], 1, 0, Filter::All);
            assert_eq!(r[0].id, key(probe as u32), "probe {probe}");
            assert!(!stats.brute_force);
            // Probing must scan far fewer points than the whole set.
            assert!(stats.hops < 600);
        }
    }

    #[test]
    fn recall_reasonable_on_clustered_data() {
        let (idx, vecs) = build(1000);
        let queries = clustered(20, 8, 9);
        let mut hits = 0;
        for q in &queries {
            let exact: Vec<u32> = {
                let mut scored: Vec<(f32, u32)> = vecs
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (tv_common::metric::l2_sq(q, v), i as u32))
                    .collect();
                scored.sort_by(|a, b| a.0.total_cmp(&b.0));
                scored.into_iter().take(10).map(|(_, i)| i).collect()
            };
            let (got, _) = idx.top_k(q, 10, 0, Filter::All);
            hits += exact
                .iter()
                .filter(|e| got.iter().any(|n| n.id.local().0 == **e))
                .count();
        }
        let recall = hits as f64 / (20.0 * 10.0);
        assert!(recall > 0.8, "IVF recall {recall}");
    }

    #[test]
    fn incremental_insert_after_train() {
        let (mut idx, _) = build(200);
        let novel = vec![500.0; 8];
        idx.insert(key(9999), &novel).unwrap();
        let (r, _) = idx.top_k(&novel, 1, 0, Filter::All);
        assert_eq!(r[0].id, key(9999));
    }

    #[test]
    fn delete_and_upsert_respected() {
        let (mut idx, vecs) = build(100);
        assert!(idx.remove(key(5)));
        let (r, _) = idx.top_k(&vecs[5], 1, 0, Filter::All);
        assert_ne!(r[0].id, key(5));
        idx.insert(key(6), &[999.0; 8]).unwrap();
        assert_eq!(idx.get_embedding(key(6)).unwrap(), &[999.0f32; 8]);
        assert_eq!(idx.len(), 99);
    }

    #[test]
    fn filter_respected() {
        let (idx, vecs) = build(100);
        let bm = tv_common::Bitmap::from_indices(100, [3usize, 4]);
        let (r, _) = idx.top_k(&vecs[0], 5, 0, Filter::Valid(&bm));
        assert!(r.iter().all(|n| n.id.local().0 == 3 || n.id.local().0 == 4));
    }

    #[test]
    fn range_search_within_threshold() {
        let (idx, vecs) = build(300);
        let (r, _) = idx.range_search(&vecs[0], 50.0, 0, Filter::All);
        assert!(r.iter().all(|n| n.dist <= 50.0));
        assert!(r.iter().any(|n| n.id == key(0)));
    }

    #[test]
    fn quantized_ivf_search_and_memory() {
        let vecs = clustered(600, 32, 4);
        let mut idx = IvfFlatIndex::new(IvfConfig {
            nlist: 16,
            nprobe: 8,
            ..IvfConfig::new(32, DistanceMetric::L2)
        });
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(key(i as u32), v).unwrap();
        }
        idx.train();
        let f32_bytes = idx.vector_storage_bytes();
        idx.quantize(QuantSpec::sq8()).unwrap();
        assert_eq!(idx.storage_tier(), StorageTier::Sq8);
        assert!(
            (idx.vector_storage_bytes() as f64) <= 0.30 * f32_bytes as f64,
            "ivf sq8 bytes {} vs f32 {f32_bytes}",
            idx.vector_storage_bytes()
        );
        // Codes score the lists; exact matches still surface.
        for probe in [0usize, 100, 599] {
            let (r, _) = idx.top_k(&vecs[probe], 1, 0, Filter::All);
            assert_eq!(r[0].id, key(probe as u32), "probe {probe}");
        }
        // Incremental insert + retrain on reconstructions both work.
        idx.insert(key(9999), &[500.0; 32]).unwrap();
        idx.train();
        let (r, _) = idx.top_k(&[500.0; 32], 1, 0, Filter::All);
        assert_eq!(r[0].id, key(9999));
    }

    #[test]
    fn quantized_ivf_keep_f32_reranks_exactly() {
        let vecs = clustered(400, 8, 6);
        let mut idx = IvfFlatIndex::new(IvfConfig {
            nlist: 8,
            nprobe: 8,
            ..IvfConfig::new(8, DistanceMetric::L2)
        });
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(key(i as u32), v).unwrap();
        }
        idx.train();
        idx.quantize(QuantSpec::sq8().with_keep_f32(true).with_rerank_factor(4))
            .unwrap();
        let q = &vecs[17];
        let (r, stats) = idx.top_k(q, 5, 0, Filter::All);
        assert_eq!(r[0].id, key(17));
        assert!(stats.reranked > 0);
        // Reranked distances equal exact f32 metric values.
        for n in &r {
            let exact = tv_common::metric::l2_sq(q, &vecs[n.id.local().0 as usize]);
            assert!((n.dist - exact).abs() <= 1e-4 * exact.max(1.0));
        }
    }

    #[test]
    fn update_items_works_via_trait() {
        let mut idx = IvfFlatIndex::new(IvfConfig::new(4, DistanceMetric::L2));
        let recs = vec![
            DeltaRecord::upsert(key(0), tv_common::Tid(1), vec![1.0; 4]),
            DeltaRecord::upsert(key(1), tv_common::Tid(2), vec![2.0; 4]),
            DeltaRecord::delete(key(0), tv_common::Tid(3)),
        ];
        assert_eq!(idx.update_items(&recs).unwrap(), 3);
        assert_eq!(idx.len(), 1);
    }
}
