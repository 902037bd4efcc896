//! Compiled-vs-forest oracle identity suite.
//!
//! The cache-conscious layout compiler (BFS slot renumbering + CSR
//! adjacency + prefetched search loops) must be *invisible* through the
//! key-based search API: for every query, the compiled index and the
//! uncompiled build forest it came from produce the same neighbor ids and
//! bit-identical distances (`f32::to_bits`). The slot permutation itself
//! is unobservable — results are keyed by `VertexId`, which travels with
//! its vector.
//!
//! Covered: top-k (unfiltered, filtered, post-filter via the planner),
//! range search, post-vacuum graphs (tombstones + upserts), every
//! quantized tier, and compile→thaw→recompile cycles.

use tv_common::bitmap::Filter;
use tv_common::ids::{LocalId, SegmentId};
use tv_common::{Bitmap, DistanceMetric, GraphLayout, Neighbor, QuantSpec, SplitMix64, VertexId};
use tv_hnsw::{HnswConfig, HnswIndex, VectorIndex};

fn key(i: u32) -> VertexId {
    VertexId::new(SegmentId(0), LocalId(i))
}

fn make_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.next_f32() * 10.0).collect())
        .collect()
}

fn build(n: usize, dim: usize, metric: DistanceMetric, seed: u64) -> HnswIndex {
    let mut idx = HnswIndex::new(HnswConfig::new(dim, metric));
    for (i, v) in make_vectors(n, dim, seed).into_iter().enumerate() {
        idx.insert(key(i as u32), &v).unwrap();
    }
    idx
}

/// `(key, dist bits)` fingerprint of a result list — the form in which two
/// layouts must agree exactly.
fn fingerprint(results: &[Neighbor]) -> Vec<(VertexId, u32)> {
    results.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// Assert that compiling `idx` changes no search result across a battery
/// of query shapes.
fn assert_layouts_identical(idx: &HnswIndex, dim: usize, queries: usize) {
    let qs = make_vectors(queries, dim, 0xBEEF);
    let filter_bits = Bitmap::from_indices(idx.slot_count() + 8, (0..idx.slot_count()).step_by(3));
    let mut packed = idx.clone();
    assert!(packed.compile_layout());
    assert_eq!(packed.layout(), GraphLayout::PackedPrefetch);
    assert_eq!(packed.len(), idx.len());
    for q in &qs {
        // Unfiltered top-k.
        let (a, sa) = idx.top_k(q, 10, 64, Filter::All);
        let (b, sb) = packed.top_k(q, 10, 64, Filter::All);
        assert_eq!(fingerprint(&a), fingerprint(&b), "top_k");
        assert_eq!(sb.packed_searches, 1, "served from the packed form");
        assert_eq!(sa.distance_computations, sb.distance_computations);
        assert_eq!(sa.hops, sb.hops);
        // Filtered top-k (in-traversal bitmap).
        let (a, _) = idx.top_k(q, 5, 64, Filter::Valid(&filter_bits));
        let (b, _) = packed.top_k(q, 5, 64, Filter::Valid(&filter_bits));
        assert_eq!(fingerprint(&a), fingerprint(&b), "filtered");
        // Post-filter strategy.
        let (a, _) = idx.post_filter_top_k(q, 5, 96, Filter::Valid(&filter_bits));
        let (b, _) = packed.post_filter_top_k(q, 5, 96, Filter::Valid(&filter_bits));
        assert_eq!(fingerprint(&a), fingerprint(&b), "post_filter");
        // Range search.
        let (a, _) = idx.range_search(q, 30.0, 64, Filter::All);
        let (b, _) = packed.range_search(q, 30.0, 64, Filter::All);
        assert_eq!(fingerprint(&a), fingerprint(&b), "range");
    }
    // Every stored embedding is reachable by key and identical.
    for s in 0..idx.slot_count() as u32 {
        let k = key(s);
        match (idx.get_embedding(k), packed.get_embedding(k)) {
            (None, None) => {}
            (Some(va), Some(vb)) => {
                let fa: Vec<u32> = va.iter().map(|x| x.to_bits()).collect();
                let fb: Vec<u32> = vb.iter().map(|x| x.to_bits()).collect();
                assert_eq!(fa, fb, "embedding {s}");
            }
            other => panic!("embedding presence diverged for {s}: {other:?}"),
        }
    }
}

#[test]
fn oracle_identity_l2() {
    let idx = build(400, 16, DistanceMetric::L2, 11);
    assert_layouts_identical(&idx, 16, 12);
}

#[test]
fn oracle_identity_cosine_and_ip() {
    for metric in [DistanceMetric::Cosine, DistanceMetric::InnerProduct] {
        let idx = build(250, 12, metric, 23);
        assert_layouts_identical(&idx, 12, 8);
    }
}

#[test]
fn oracle_identity_post_vacuum() {
    // Tombstones + upserts before compiling: the repaired graph must pack
    // the same as it searches.
    let mut idx = build(350, 16, DistanceMetric::L2, 37);
    for i in (0..350u32).step_by(5) {
        idx.remove(key(i));
    }
    // Distinct vectors throughout: exact distance ties break on slot id,
    // which the BFS renumbering permutes — identity is guaranteed modulo
    // ties (see DESIGN §3i), so the oracle uses tie-free data.
    let fresh = make_vectors(40, 16, 99);
    for (i, v) in fresh.iter().enumerate() {
        idx.insert(key(1000 + i as u32), v).unwrap();
    }
    let moved = make_vectors(40, 16, 101);
    for (i, v) in moved.iter().enumerate() {
        idx.insert(key((i * 7) as u32 + 1), v).unwrap(); // in-place updates
    }
    assert_layouts_identical(&idx, 16, 10);
}

#[test]
fn oracle_identity_quantized_tiers() {
    for spec in [
        QuantSpec::sq8(),
        QuantSpec::sq8().with_keep_f32(true),
        QuantSpec::pq(4),
        QuantSpec::pq(4).with_keep_f32(true),
    ] {
        let mut idx = build(300, 16, DistanceMetric::L2, 53);
        idx.quantize(spec).unwrap();
        assert_layouts_identical(&idx, 16, 8);
    }
}

#[test]
fn oracle_identity_quantized_cosine() {
    // Cosine exercises the recon-norm caches, which the permutation must
    // carry along with the code rows.
    let mut idx = build(220, 16, DistanceMetric::Cosine, 71);
    idx.quantize(QuantSpec::sq8().with_keep_f32(true)).unwrap();
    assert_layouts_identical(&idx, 16, 8);
}

#[test]
fn compile_thaw_recompile_is_stable() {
    let idx = build(300, 16, DistanceMetric::L2, 67);
    let qs = make_vectors(6, 16, 0xFEED);
    let mut packed = idx.clone();
    packed.compile_layout();
    let baseline: Vec<_> = qs
        .iter()
        .map(|q| fingerprint(&packed.top_k(q, 10, 64, Filter::All).0))
        .collect();

    // Mutate (thaws), then recompile — results must match a plain index
    // given the same mutation, and the recompile must stay queryable.
    let extra = make_vectors(20, 16, 0x5A5A);
    let mut plain = idx.clone();
    for (i, v) in extra.iter().enumerate() {
        packed.insert(key(2000 + i as u32), v).unwrap();
        plain.insert(key(2000 + i as u32), v).unwrap();
    }
    assert_eq!(packed.layout(), GraphLayout::Pointer, "mutation thaws");
    for q in &qs {
        assert_eq!(
            fingerprint(&packed.top_k(q, 10, 64, Filter::All).0),
            fingerprint(&plain.top_k(q, 10, 64, Filter::All).0),
            "thawed graph == never-compiled graph"
        );
    }
    packed.compile_layout();
    for q in &qs {
        assert_eq!(
            fingerprint(&packed.top_k(q, 10, 64, Filter::All).0),
            fingerprint(&plain.top_k(q, 10, 64, Filter::All).0),
            "recompiled graph == never-compiled graph"
        );
    }

    // Compiling an already-compiled index is a no-op.
    let mut twice = idx.clone();
    assert!(twice.compile_layout());
    assert!(twice.compile_layout());
    assert_eq!(twice.layout(), GraphLayout::PackedPrefetch);
    for (q, want) in qs.iter().zip(&baseline) {
        let got = fingerprint(&twice.top_k(q, 10, 64, Filter::All).0);
        assert_eq!(&got, want);
    }
}

#[test]
fn memory_accounting_reports_both_forms() {
    let idx = build(300, 16, DistanceMetric::L2, 91);
    let (pointer_before, packed_est) = idx.link_memory_bytes();
    // The pointer forest pays three layers of Vec headers plus growth
    // slack; the CSR estimate must come in well under it.
    assert!(packed_est < pointer_before);

    let mut compiled = idx.clone();
    compiled.compile_layout();
    let (pointer_est, packed_exact) = compiled.link_memory_bytes();
    // Estimates are len-based where the exact numbers are capacity-based,
    // so cross-form comparisons are approximate — but the packed slabs are
    // exact and must cover every stored neighbor id.
    assert!(packed_exact >= packed_est);
    assert!(pointer_before >= pointer_est);
    // Compiling must shrink the index's total resident accounting.
    assert!(compiled.memory_bytes() < idx.memory_bytes());
}

/// FNV-1a over little-endian words: a stable, dependency-free digest for
/// the pinned-identity test below.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Result ids, distance bits, and the two work counters.
    fn search(&mut self, (results, stats): &(Vec<Neighbor>, tv_hnsw::SearchStats)) {
        self.word(results.len() as u64);
        for n in results {
            self.word(n.id.0);
            self.word(u64::from(n.dist.to_bits()));
        }
        self.word(stats.distance_computations);
        self.word(stats.hops);
    }
}

/// Load `index`'s snapshot back as a compiled index by re-tagging its
/// v1/v2 image as v3 (magic, layout tag, quant flag, then the same
/// payload). The loader freezes the stored slot order into CSR slabs, so
/// the compiled search loops run over exactly the forest's graph.
fn load_compiled(index: &HnswIndex, tag: u8) -> HnswIndex {
    let image = tv_hnsw::snapshot::to_bytes(index);
    let mut v3 = b"TVHNSW03".to_vec();
    v3.push(tag);
    v3.push(u8::from(index.quant_spec().is_some()));
    v3.extend_from_slice(&image[8..]);
    let compiled = tv_hnsw::snapshot::from_bytes(&v3).unwrap();
    assert_ne!(compiled.layout(), GraphLayout::Pointer, "loaded compiled");
    compiled
}

/// Identity oracle for the search and build paths: digests of result ids,
/// `f32::to_bits` distances and the `distance_computations`/`hops`
/// counters over a fixed battery of seeded searches, plus the snapshot
/// image of a sequential build with in-place upserts. Any change to visit
/// order, admission, scoring or link selection moves a digest.
///
/// Distances are deterministic within one kernel tier but not across
/// tiers, so the digests are pinned per tier; a tier with no pinned row
/// only checks that both v3 layout tags load to the same results.
#[test]
fn pinned_search_and_build_identity() {
    use tv_common::kernels::{self, KernelTier};
    const DIM: usize = 16;
    const CASES: [&str; 9] = [
        "top_k",
        "top_k filtered",
        "post_filter_top_k",
        "brute_force_top_k",
        "range_search",
        "sq8 codes-only top_k",
        "sq8 codes-only filtered",
        "forest top_k + filtered + post-filter",
        "insert_batch(.., 1) snapshot",
    ];
    const PINNED: &[(KernelTier, [u64; 9])] = &[
        (
            KernelTier::Scalar,
            [
                0xe437_c8f7_326f_4d96,
                0x35ff_5da6_4258_e0fc,
                0x2c0b_6b79_81dd_51b4,
                0xf5a1_3173_1f8c_281d,
                0x646d_4c5b_d01e_dc21,
                0xf1a8_e4b0_1c49_a674,
                0x46b3_8bab_7861_bfce,
                0xe7de_74de_681b_e23a,
                0xb796_1381_aa30_9923,
            ],
        ),
        (
            KernelTier::Sse,
            [
                0x8b94_a13e_e7ae_19d1,
                0x2a02_ca99_18d1_f491,
                0xfd14_542d_1eba_2319,
                0x2ae4_20b0_b43b_f1ab,
                0x7ffe_28b4_22b7_c79a,
                0x5acd_72c7_657a_12ee,
                0xfc41_ceee_3866_d490,
                0x3c2a_9284_9e02_fba1,
                0xb796_1381_aa30_9923,
            ],
        ),
        (
            KernelTier::Avx2Fma,
            [
                0x8071_0ef5_42a7_b527,
                0x2661_96cb_c386_75b9,
                0x1ff6_8bbd_127b_bfa9,
                0x48be_0d8a_91b2_6bbe,
                0xd9d3_fe8d_4a1d_b448,
                0x3a18_adc9_5631_5bbb,
                0xa43f_ec7d_e9ee_877c,
                0x556c_4516_4045_3cfb,
                0xb796_1381_aa30_9923,
            ],
        ),
    ];

    let vecs = make_vectors(600, DIM, 7);
    let items: Vec<(VertexId, Vec<f32>)> = vecs
        .iter()
        .enumerate()
        .map(|(i, v)| (key(i as u32), v.clone()))
        .collect();
    let mut forest = HnswIndex::new(HnswConfig::new(DIM, DistanceMetric::L2));
    forest.insert_batch(&items, 1).unwrap();
    for i in (0..600u32).step_by(9) {
        forest.remove(key(i));
    }
    let mut sq8 = HnswIndex::new(HnswConfig::new(DIM, DistanceMetric::L2));
    sq8.insert_batch(&items[..400], 1).unwrap();
    sq8.quantize(QuantSpec::sq8()).unwrap();

    let queries = make_vectors(8, DIM, 0xC0FFEE);
    let bits = Bitmap::from_indices(640, (0..600).filter(|i| i % 4 != 1));
    let valid = Filter::Valid(&bits);

    let digests = |tag: u8| -> [u64; 9] {
        let compiled = load_compiled(&forest, tag);
        let compiled_sq8 = load_compiled(&sq8, tag);
        let mut h: Vec<Fnv> = (0..9).map(|_| Fnv::new()).collect();
        for q in &queries {
            h[0].search(&compiled.top_k(q, 10, 64, Filter::All));
            h[1].search(&compiled.top_k(q, 5, 48, valid));
            h[2].search(&compiled.post_filter_top_k(q, 5, 96, valid));
            h[3].search(&compiled.brute_force_top_k(q, 10, valid));
            h[4].search(&compiled.range_search(q, 120.0, 64, Filter::All));
            h[5].search(&compiled_sq8.top_k(q, 10, 64, Filter::All));
            h[6].search(&compiled_sq8.top_k(q, 5, 48, valid));
            h[7].search(&forest.top_k(q, 10, 64, Filter::All));
            h[7].search(&forest.top_k(q, 5, 48, valid));
            h[7].search(&forest.post_filter_top_k(q, 5, 96, valid));
        }
        // Sequential build with in-place upserts (neighbourhood repair and
        // link shrinking), serialized from the forest.
        let mut built = HnswIndex::new(HnswConfig::new(DIM, DistanceMetric::L2));
        built.insert_batch(&items[..300], 1).unwrap();
        let moved: Vec<(VertexId, Vec<f32>)> = make_vectors(30, DIM, 0xD1CE)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (key(i as u32 * 7), v))
            .collect();
        built.insert_batch(&moved, 1).unwrap();
        h[8].bytes(&tv_hnsw::snapshot::to_bytes(&built));
        let mut out = [0u64; 9];
        for (o, f) in out.iter_mut().zip(&h) {
            *o = f.0;
        }
        out
    };

    let got = digests(2);
    assert_eq!(got, digests(1), "both v3 layout tags load to one form");
    let tier = kernels::active().tier();
    let Some((_, want)) = PINNED.iter().find(|(t, _)| *t == tier) else {
        eprintln!("no digests pinned for kernel tier {tier:?}: {got:#x?}");
        return;
    };
    for ((name, g), w) in CASES.iter().zip(&got).zip(want) {
        assert_eq!(g, w, "{name} moved on tier {tier:?}");
    }
}
