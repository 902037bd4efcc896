//! `topk_merged`: plain vector top-k over fully merged segments.
//!
//! 50,000 SIFT-shape dim-128 L2 vectors in 8 segments, delta- and
//! index-merged (25.6 MB of f32, several times the L2 cache). One closed-loop
//! client calls `Server::vector_top_k` as an unrestricted tenant, so kernels,
//! HNSW traversal, pool fan-out and the batcher do nearly all the work; GSQL,
//! graph scans and deltas do none.

use crate::run::{
    merge_all, op_id, read_phases, record_merge, repeated_setup, stamp_provenance,
    traced_server_top_k, Args, Report, BLOCKS, CLIENTS, K, SETUP_REPS,
};
use crate::util::{kernel_ns_per_row, recall, Slab, WARMUP};
use std::collections::HashMap;
use std::sync::Arc;
use tg_graph::{AccessControl, Graph, Role};
use tg_storage::{AttrType, AttrValue};
use tv_common::ids::SegmentLayout;
use tv_common::{DistanceMetric, TvResult, VertexId};
use tv_datagen::{DatasetShape, VectorDataset};
use tv_embedding::{EmbeddingTypeDef, ServiceConfig};
use tv_server::{Server, ServerConfig};

const N: usize = 50_000;
const DIM: usize = 128;
const SEGMENTS: usize = 8;
const QUERIES: usize = 1000;
/// In the traced half, one operation in this many is traced.
const TRACE_EVERY: u64 = 4;
/// Lowest acceptable mean recall@10 (the shipped ef=64 gives about 0.97).
const RECALL_FLOOR: f64 = 0.85;

struct System {
    graph: Graph,
    doc: u32,
    attr: u32,
    ids: Vec<VertexId>,
    base: Vec<Vec<f32>>,
    queries: Vec<Vec<f32>>,
    merge: (f64, f64, usize),
}

fn build(seed: u64) -> TvResult<System> {
    let ds = VectorDataset::generate_dim(DatasetShape::Sift, DIM, N, QUERIES, seed);
    let graph = Graph::with_config(
        SegmentLayout::with_capacity(N / SEGMENTS),
        ServiceConfig::default(),
    );
    let doc = graph.create_vertex_type("Doc", &[("shard", AttrType::Int)])?;
    let attr = graph.add_embedding_attribute(
        "Doc",
        EmbeddingTypeDef::new("emb", DIM, "SIFT", DistanceMetric::L2),
    )?;
    let ids = graph.allocate_many(doc, N)?;
    for chunk in (0..N).collect::<Vec<_>>().chunks(5000) {
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
        graph,
        doc,
        attr,
        ids,
        base: ds.base,
        queries: ds.queries,
        merge,
    })
}

/// Run the workload.
pub fn run(args: &Args) -> TvResult<Report> {
    let mut report = Report::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (sys, setup_s) = repeated_setup(reps, || build(args.seed))?;
    report.setup_s = setup_s;
    let (delta_ms, index_ms, rows) = sys.merge;
    record_merge(&mut report.extra, delta_ms, index_ms, rows);

    // The benchmark's own copy of the data, for exact answers.
    let slab = Slab::from_rows(DIM, &sys.base);
    let row_of: HashMap<VertexId, usize> =
        sys.ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();

    let graph = Arc::new(sys.graph);
    let acl = Arc::new(AccessControl::new());
    acl.define_role("reader", Role::default().allow_type(sys.doc));
    acl.assign("reader-user", "reader")?;
    let server = Server::new(
        Arc::clone(&graph),
        Arc::clone(&acl),
        ServerConfig::default(),
    );
    let sessions: Vec<_> = (0..CLIENTS)
        .map(|c| server.open_session(&format!("tenant{c}"), "reader-user"))
        .collect();
    let attr = sys.attr;
    let queries = &sys.queries;
    let pick = |c: usize, seq: u64| (c * QUERIES / CLIENTS + seq as usize) % QUERIES;

    let logs = read_phases(
        &mut report,
        args,
        CLIENTS,
        WARMUP,
        BLOCKS,
        None,
        TRACE_EVERY,
        |c, seq| {
            let qi = pick(c, seq);
            let hits = server.vector_top_k(&sessions[c], &[attr], queries[qi].clone(), K)?;
            Ok((qi, hits))
        },
        |c, seq, tr, acc| {
            let qi = pick(c, seq);
            let (hits, _, _) = traced_server_top_k(
                &server,
                &acl,
                &sessions[c],
                attr,
                &queries[qi],
                op_id(c, seq),
                tr,
                acc,
            )?;
            Ok((qi, hits))
        },
    );
    report.resident_mb = graph.embeddings().memory_bytes() as f64 / 1e6;
    report.extra.batch_size = crate::trace::batch_size(&server);
    stamp_provenance(&graph, &[attr]);

    // Correctness: recall@10 of every answer against an exact scan.
    let mut exact: Vec<Option<Vec<usize>>> = vec![None; QUERIES];
    let mut scratch = Vec::new();
    let mut samples = Vec::new();
    for log in &logs {
        for (_, (qi, hits)) in &log.ok {
            let want = exact[*qi]
                .get_or_insert_with(|| slab.exact_top_k(&queries[*qi], K, &mut scratch, |_| true));
            let got: Vec<usize> = hits
                .iter()
                .filter_map(|h| row_of.get(&h.neighbor.id).copied())
                .collect();
            samples.extend(recall(&got, want));
        }
    }
    report.set_recall(&samples, RECALL_FLOOR);

    if args.trace {
        report.extra.kernel_ns_per_row = kernel_ns_per_row(&slab);
    }
    Ok(report)
}
