//! `hybrid_gsql`: the paper's headline use, hybrid graph + vector queries.
//!
//! The `tv-datagen` SNB-like graph at sf 10 (900 persons, 3,500 posts,
//! 10,500 comments, dim 128, merged). One closed-loop client cycles through
//! five query classes in a fixed order drawn from the seed:
//!
//! * `filter_lang` — Comments with `language = "es"` (about 20%), GSQL;
//! * `filter_tag` — Comments with one rare tag (about 1%), GSQL;
//! * `pattern_friends` — Person-knows-Person<-postHasCreator-Post from one
//!   person, GSQL;
//! * `restricted_topk` — `Server::vector_top_k` over Posts as a tenant whose
//!   role only reads `language = "en"` rows;
//! * `compose` — a graph-only GSQL block (Posts by persons located in one
//!   country) whose result set filters `tv_gsql::vector_search` (§5.5).
//!
//! GSQL, graph scans and ACL restriction do nearly all the work, and the
//! selectivity decides which plan the planner picks per segment.

use crate::run::{
    merge_all, op_id, read_phases, record_merge, repeated_setup, stamp_provenance, Args, Report,
    BLOCKS, CLIENTS, K, SETUP_REPS,
};
use crate::trace::{peel_vector, would_queue, Layers, Tracer};
use crate::util::{kernel_ns_per_row, permutation, recall, Slab, WARMUP};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tg_graph::{AccessControl, Graph, Role, VertexSet};
use tg_storage::AttrValue;
use tv_common::{Deadline, SplitMix64, Tid, TvError, TvResult, VertexId};
use tv_datagen::snb::{SnbConfig, SnbGraph};
use tv_gsql::{Params, QueryOutput, Value, VectorSearchOptions};
use tv_hnsw::SearchStats;
use tv_server::{Server, ServerConfig, Session};

const SF: usize = 10;
const DIM: usize = 128;
const QUERIES: usize = 500;
/// Persons drawn for `pattern_friends`, countries for `compose`.
const PERSON_POOL: usize = 16;
const COUNTRY_POOL: usize = 3;
/// Lowest acceptable mean recall@10 over every vector-returning class.
const RECALL_FLOOR: f64 = 0.85;
/// Operations are slow and few, so the traced half traces every one.
const TRACE_EVERY: u64 = 1;
/// Spread of the query vectors around stored vectors.
const QUERY_NOISE: f64 = 24.0;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Class {
    FilterLang,
    FilterTag,
    PatternFriends,
    RestrictedTopk,
    Compose,
}

const CLASSES: [Class; 5] = [
    Class::FilterLang,
    Class::FilterTag,
    Class::PatternFriends,
    Class::RestrictedTopk,
    Class::Compose,
];

impl Class {
    fn root_span(self) -> &'static str {
        match self {
            Class::FilterLang => "op.filter_lang",
            Class::FilterTag => "op.filter_tag",
            Class::PatternFriends => "op.pattern_friends",
            Class::RestrictedTopk => "op.restricted_topk",
            Class::Compose => "op.compose",
        }
    }
}

/// The loaded system plus the benchmark's own copy of its data.
struct System {
    graph: Arc<Graph>,
    person_t: u32,
    post_t: u32,
    comment_t: u32,
    country_t: u32,
    knows_e: u32,
    post_creator_e: u32,
    located_e: u32,
    post_emb: u32,
    comment_emb: u32,
    persons: Vec<VertexId>,
    posts: Vec<VertexId>,
    comments: Vec<VertexId>,
    person_country: Vec<usize>,
    merge: (f64, f64, usize),
}

fn build(seed: u64) -> TvResult<System> {
    let snb = SnbGraph::generate(SnbConfig {
        sf: SF,
        dim: DIM,
        seed,
        ..SnbConfig::default()
    })?;
    let merge = merge_all(
        &snb.graph,
        &[snb.post_emb, snb.comment_emb],
        tv_common::pool::default_width(),
    )?;
    Ok(System {
        person_t: snb.person_t,
        post_t: snb.post_t,
        comment_t: snb.comment_t,
        country_t: snb.country_t,
        knows_e: snb.knows_e,
        post_creator_e: snb.post_creator_e,
        located_e: snb.located_e,
        post_emb: snb.post_emb,
        comment_emb: snb.comment_emb,
        persons: snb.persons,
        posts: snb.posts,
        comments: snb.comments,
        person_country: snb.person_country,
        merge,
        graph: Arc::new(snb.graph),
    })
}

/// One message row of the benchmark's copy.
struct Message {
    vertex_type: u32,
    language: String,
    tag: i64,
    /// Creator (posts only; comments are filtered by attributes alone).
    creator: Option<VertexId>,
}

/// The benchmark's own copy of the data, read back once after loading.
struct Reference {
    slab: Slab,
    messages: Vec<Message>,
    row_of: HashMap<(u32, VertexId), usize>,
    knows: HashMap<VertexId, Vec<VertexId>>,
    country_of: HashMap<VertexId, usize>,
}

fn reference(sys: &System, tid: Tid) -> TvResult<Reference> {
    let g = &sys.graph;
    let mut rows = Vec::new();
    let mut messages = Vec::new();
    let mut row_of = HashMap::new();
    for (t, attr, ids) in [
        (sys.post_t, sys.post_emb, &sys.posts),
        (sys.comment_t, sys.comment_emb, &sys.comments),
    ] {
        for &id in ids {
            let language = g
                .attr(t, id, "language", tid)?
                .and_then(|v| v.as_str().map(str::to_string))
                .unwrap_or_default();
            let tag = g
                .attr(t, id, "tag", tid)?
                .and_then(|v| v.as_int())
                .unwrap_or(-1);
            let creator = if t == sys.post_t {
                g.out_neighbors(t, id, sys.post_creator_e, tid)?
                    .first()
                    .copied()
            } else {
                None
            };
            let v = g
                .embedding_of(attr, id, tid)?
                .ok_or_else(|| TvError::NotFound(format!("embedding of {id}")))?;
            row_of.insert((t, id), rows.len());
            rows.push(v);
            messages.push(Message {
                vertex_type: t,
                language,
                tag,
                creator,
            });
        }
    }
    let mut knows = HashMap::new();
    let mut country_of = HashMap::new();
    for (i, &p) in sys.persons.iter().enumerate() {
        knows.insert(p, g.out_neighbors(sys.person_t, p, sys.knows_e, tid)?);
        country_of.insert(p, sys.person_country[i]);
    }
    Ok(Reference {
        slab: Slab::from_rows(DIM, &rows),
        messages,
        row_of,
        knows,
        country_of,
    })
}

/// The parameters of one operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Spec {
    class: Class,
    /// Person (pattern_friends) or country (compose) pool index.
    param: usize,
    query: usize,
}

/// Everything the clients share.
struct Ctx<'a> {
    sys: &'a System,
    server: &'a Server,
    acl: &'a AccessControl,
    reader: Vec<Session>,
    restricted: Vec<Session>,
    order: Vec<Class>,
    rare_tag: i64,
    person_pool: Vec<usize>,
    country_pool: Vec<usize>,
    queries: Vec<Vec<f32>>,
    params: Vec<Params>,
}

type Answer = (Spec, Vec<(u32, VertexId)>);

impl Ctx<'_> {
    fn spec(&self, c: usize, seq: u64) -> Spec {
        let class = self.order[(seq as usize + 2 * c) % self.order.len()];
        let round = seq as usize / self.order.len() + c * 7;
        let param = match class {
            Class::PatternFriends => round % self.person_pool.len(),
            Class::Compose => round % self.country_pool.len(),
            _ => 0,
        };
        Spec {
            class,
            param,
            query: (c * QUERIES / CLIENTS + seq as usize) % QUERIES,
        }
    }

    fn text(&self, spec: Spec) -> String {
        match spec.class {
            Class::FilterLang => "SELECT s FROM (s:Comment) WHERE s.language = \"es\" \
                 ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 10"
                .to_string(),
            Class::FilterTag => format!(
                "SELECT s FROM (s:Comment) WHERE s.tag = {} \
                 ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 10",
                self.rare_tag
            ),
            Class::PatternFriends => format!(
                "SELECT t FROM (s:Person) -[:knows]-> (:Person) <-[:postHasCreator]- (t:Post) \
                 WHERE s.firstName = \"p{}\" ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 10",
                self.person_pool[spec.param]
            ),
            Class::Compose => format!(
                "SELECT t FROM (c:Country) <-[:isLocatedIn]- (:Person) <-[:postHasCreator]- (t:Post) \
                 WHERE c.name = \"country{}\"",
                self.country_pool[spec.param]
            ),
            Class::RestrictedTopk => String::new(),
        }
    }

    fn rows(out: QueryOutput) -> Vec<(u32, VertexId)> {
        match out {
            QueryOutput::Vertices(rows) => rows.iter().map(|r| (r.vertex_type, r.id)).collect(),
            QueryOutput::Pairs(_) => Vec::new(),
        }
    }

    /// The composed vector step of `compose`: top-k Posts within `set`.
    fn compose_search(
        &self,
        set: &VertexSet,
        q: &[f32],
        tid: Tid,
    ) -> TvResult<Vec<(u32, VertexId)>> {
        let hits = tv_gsql::vector_search(
            &self.sys.graph,
            &[("Post", "content_emb")],
            q,
            K,
            VectorSearchOptions {
                filter: Some(set),
                tid: Some(tid),
                ..VectorSearchOptions::default()
            },
        )?;
        Ok(hits.iter().collect())
    }

    fn plain(&self, c: usize, seq: u64) -> TvResult<Answer> {
        let spec = self.spec(c, seq);
        let q = &self.queries[spec.query];
        let rows = match spec.class {
            Class::RestrictedTopk => self
                .server
                .vector_top_k(&self.restricted[c], &[self.sys.post_emb], q.clone(), K)?
                .iter()
                .map(|h| (h.vertex_type, h.neighbor.id))
                .collect(),
            Class::Compose => {
                let set: VertexSet = Self::rows(self.server.query(
                    &self.reader[c],
                    &self.text(spec),
                    &Params::new(),
                )?)
                .into_iter()
                .collect();
                self.compose_search(&set, q, self.sys.graph.read_tid())?
            }
            _ => Self::rows(self.server.query(
                &self.reader[c],
                &self.text(spec),
                &self.params[spec.query],
            )?),
        };
        Ok((spec, rows))
    }

    /// The graph-layer steps of a class, issued through the public graph
    /// calls: predicate selects, then the pattern's edge steps. Returns the
    /// candidate set and adds rows examined to `acc`.
    fn graph_steps(
        &self,
        spec: Spec,
        tid: Tid,
        tr: &mut Tracer,
        acc: &mut Layers,
    ) -> TvResult<VertexSet> {
        let s = self.sys;
        let g = &s.graph;
        let str_is =
            |v: Option<AttrValue>, want: &str| v.as_ref().and_then(|v| v.as_str()) == Some(want);
        match spec.class {
            Class::FilterLang | Class::FilterTag => {
                let tag = self.rare_tag;
                let lang = spec.class == Class::FilterLang;
                let (set, us) = tr.span("graph.select_vertices", || {
                    g.select_vertices(s.comment_t, tid, |_, get| {
                        if lang {
                            str_is(get("language"), "es")
                        } else {
                            get("tag").and_then(|v| v.as_int()) == Some(tag)
                        }
                    })
                });
                acc.select_us += us;
                acc.rows_examined += s.comments.len() as f64;
                set
            }
            Class::PatternFriends => {
                let name = format!("p{}", self.person_pool[spec.param]);
                let ((from, posts), us) = tr.span("graph.select_vertices", || {
                    let from = g
                        .select_vertices(s.person_t, tid, |_, get| str_is(get("firstName"), &name));
                    let posts = g.select_vertices(s.post_t, tid, |_, _| true);
                    (from, posts)
                });
                acc.select_us += us;
                acc.rows_examined += (s.persons.len() + s.posts.len()) as f64;
                let (from, posts) = (from?, posts?);
                let (set, us) = tr.span("graph.traverse", || -> TvResult<VertexSet> {
                    let mut friends = HashSet::new();
                    for p in from.of_type(s.person_t) {
                        for f in g.out_neighbors(s.person_t, p, s.knows_e, tid)? {
                            if g.is_live(s.person_t, f, tid)? {
                                friends.insert(f);
                            }
                        }
                    }
                    let mut out = VertexSet::new();
                    for post in posts.of_type(s.post_t) {
                        let by = g.out_neighbors(s.post_t, post, s.post_creator_e, tid)?;
                        if by.iter().any(|p| friends.contains(p)) {
                            out.insert(s.post_t, post);
                        }
                    }
                    Ok(out)
                });
                acc.traverse_us += us;
                acc.rows_examined += s.posts.len() as f64;
                set
            }
            Class::Compose => {
                let name = format!("country{}", self.country_pool[spec.param]);
                let ((countries, persons, posts), us) = tr.span("graph.select_vertices", || {
                    (
                        g.select_vertices(s.country_t, tid, |_, get| str_is(get("name"), &name)),
                        g.select_vertices(s.person_t, tid, |_, _| true),
                        g.select_vertices(s.post_t, tid, |_, _| true),
                    )
                });
                acc.select_us += us;
                acc.rows_examined +=
                    (tv_datagen::snb::COUNTRIES + s.persons.len() + s.posts.len()) as f64;
                let (countries, persons, posts) = (countries?, persons?, posts?);
                let (set, us) = tr.span("graph.traverse", || -> TvResult<VertexSet> {
                    let mut located = HashSet::new();
                    for p in persons.of_type(s.person_t) {
                        let at = g.out_neighbors(s.person_t, p, s.located_e, tid)?;
                        if at.iter().any(|c| countries.contains(s.country_t, *c)) {
                            located.insert(p);
                        }
                    }
                    let mut out = VertexSet::new();
                    for post in posts.of_type(s.post_t) {
                        let by = g.out_neighbors(s.post_t, post, s.post_creator_e, tid)?;
                        if by.iter().any(|p| located.contains(p)) {
                            out.insert(s.post_t, post);
                        }
                    }
                    Ok(out)
                });
                acc.traverse_us += us;
                acc.rows_examined += (s.persons.len() + s.posts.len()) as f64;
                set
            }
            Class::RestrictedTopk => Ok(VertexSet::new()),
        }
    }

    fn traced(&self, c: usize, seq: u64, tr: &mut Tracer, acc: &mut Layers) -> TvResult<Answer> {
        let spec = self.spec(c, seq);
        let s = self.sys;
        let g = &s.graph;
        let q = &self.queries[spec.query];
        let ef = g.embeddings().config().default_ef.max(K);
        tr.begin(op_id(c, seq));
        if would_queue(self.server) {
            acc.queued += 1;
        }
        let tid = g.read_tid();
        let rows = match spec.class {
            Class::RestrictedTopk => {
                let session = &self.restricted[c];
                let attr = s.post_emb;
                let (hits, server_us) = tr.span("server.vector_top_k", || {
                    self.server.vector_top_k(session, &[attr], q.clone(), K)
                });
                let rows: Vec<_> = hits?
                    .iter()
                    .map(|h| (h.vertex_type, h.neighbor.id))
                    .collect();
                let (restriction, acl_us) = tr.span("graph.acl_restriction", || {
                    self.acl
                        .restriction_for_attrs(g, &session.user, &[attr], tid)
                });
                let set = restriction?.unwrap_or_default();
                let (filters, sf_us) =
                    tr.span("graph.segment_filters", || g.segment_filters(&[attr], &set));
                let (_, top_k_us) =
                    peel_vector(g, &[attr], q, K, ef, tid, Some(&filters?), tr, acc)?;
                acc.server_self.push(server_us - acl_us - sf_us - top_k_us);
                acc.acl_us += acl_us;
                acc.segment_filters_us += sf_us;
                acc.candidates += set.len() as f64;
                acc.candidate_ops += 1;
                rows
            }
            class => {
                let session = &self.reader[c];
                let text = self.text(spec);
                let params = if class == Class::Compose {
                    Params::new()
                } else {
                    self.params[spec.query].clone()
                };
                let (out, server_us) = tr.span("server.query", || {
                    self.server.query(session, &text, &params)
                });
                let out = Self::rows(out?);
                let (plan, plan_us) = tr.span("gsql.explain", || tv_gsql::explain(g, &text));
                plan?;
                let (exec, exec_us) = tr.span("gsql.execute", || {
                    let mut stats = SearchStats::default();
                    tv_gsql::execute_at_as_stats(
                        g,
                        self.acl,
                        &session.user,
                        &text,
                        &params,
                        tid,
                        Deadline::none(),
                        &mut stats,
                    )
                });
                exec?;
                let attr = if class == Class::PatternFriends || class == Class::Compose {
                    s.post_emb
                } else {
                    s.comment_emb
                };
                let mut children_us = 0.0;
                if class != Class::Compose {
                    let (restriction, acl_us) = tr.span("graph.acl_restriction", || {
                        self.acl
                            .restriction_for_attrs(g, &session.user, &[attr], tid)
                    });
                    restriction?;
                    acc.acl_us += acl_us;
                    children_us += acl_us;
                }
                let before = acc.select_us + acc.traverse_us;
                let set = self.graph_steps(spec, tid, tr, acc)?;
                children_us += acc.select_us + acc.traverse_us - before;
                let mut exec_total = exec_us;
                let rows = if class == Class::Compose {
                    // The composed step runs outside the server, in tv-gsql.
                    let listed: VertexSet = out.iter().copied().collect();
                    let (hits, vs_us) = tr.span("gsql.vector_search", || {
                        self.compose_search(&listed, q, tid)
                    });
                    exec_total += vs_us;
                    hits?
                } else {
                    out
                };
                let (filters, sf_us) =
                    tr.span("graph.segment_filters", || g.segment_filters(&[attr], &set));
                let (_, top_k_us) =
                    peel_vector(g, &[attr], q, K, ef, tid, Some(&filters?), tr, acc)?;
                children_us += sf_us + top_k_us;
                acc.segment_filters_us += sf_us;
                acc.server_self.push(server_us - exec_us);
                acc.plan_us += plan_us;
                acc.exec_self.push(exec_total - children_us);
                acc.candidates += set.len() as f64;
                acc.candidate_ops += 1;
                rows
            }
        };
        tr.end(spec.class.root_span());
        acc.ops += 1;
        acc.rows_returned += rows.len() as f64;
        Ok((spec, rows))
    }

    /// Rows of the exact answer's candidate set, for a spec.
    fn keep<'r>(&'r self, r: &'r Reference, spec: Spec) -> impl Fn(usize) -> bool + 'r {
        let s = self.sys;
        let friends: HashSet<VertexId> = match spec.class {
            Class::PatternFriends => {
                let p = s.persons[self.person_pool[spec.param]];
                r.knows.get(&p).into_iter().flatten().copied().collect()
            }
            _ => HashSet::new(),
        };
        let country = match spec.class {
            Class::Compose => self.country_pool[spec.param],
            _ => usize::MAX,
        };
        let tag = self.rare_tag;
        let r_msgs = &r.messages;
        let country_of = &r.country_of;
        move |i| {
            let m = &r_msgs[i];
            match spec.class {
                Class::FilterLang => m.vertex_type == s.comment_t && m.language == "es",
                Class::FilterTag => m.vertex_type == s.comment_t && m.tag == tag,
                Class::PatternFriends => m.creator.is_some_and(|c| friends.contains(&c)),
                Class::RestrictedTopk => m.vertex_type == s.post_t && m.language == "en",
                Class::Compose => m
                    .creator
                    .is_some_and(|c| country_of.get(&c) == Some(&country)),
            }
        }
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
    let tid = sys.graph.read_tid();
    let reference = reference(&sys, tid)?;

    // Inputs drawn from the seed.
    let mut rng = SplitMix64::new(args.seed ^ 0x4B1D);
    let order: Vec<Class> = permutation(CLASSES.len(), &mut rng)
        .into_iter()
        .map(|i| CLASSES[i])
        .collect();
    let rare_tag = 10 + rng.next_below(5) as i64;
    let mut person_pool = Vec::new();
    while person_pool.len() < PERSON_POOL {
        let i = rng.next_below(sys.persons.len() as u64) as usize;
        let friends = reference.knows.get(&sys.persons[i]).map_or(0, Vec::len);
        if friends > 0 && !person_pool.contains(&i) {
            person_pool.push(i);
        }
    }
    // Countries are skewed towards index 0; draw among the populous ones.
    let country_pool: Vec<usize> = permutation(6, &mut rng)
        .into_iter()
        .take(COUNTRY_POOL)
        .collect();
    let queries: Vec<Vec<f32>> = (0..QUERIES)
        .map(|_| {
            let row = reference
                .slab
                .row(rng.next_below(reference.slab.rows() as u64) as usize);
            row.iter()
                .map(|&x| x + (rng.next_gaussian() * QUERY_NOISE) as f32)
                .collect()
        })
        .collect();
    let params: Vec<Params> = queries
        .iter()
        .map(|q| Params::from([("qv".to_string(), Value::Vector(q.clone()))]))
        .collect();

    let graph_types = [sys.person_t, sys.post_t, sys.comment_t, sys.country_t];
    let acl = AccessControl::new();
    let mut reader_role = Role::default();
    for t in graph_types {
        reader_role = reader_role.allow_type(t);
    }
    acl.define_role("reader", reader_role);
    acl.define_role(
        "analyst-en",
        Role::default().allow_rows(sys.post_t, "language", AttrValue::Str("en".into())),
    );
    acl.assign("reader-user", "reader")?;
    acl.assign("analyst-user", "analyst-en")?;
    let acl = Arc::new(acl);
    let server = Server::new(
        Arc::clone(&sys.graph),
        Arc::clone(&acl),
        ServerConfig::default(),
    );
    let ctx = Ctx {
        sys: &sys,
        server: &server,
        acl: &acl,
        reader: (0..CLIENTS)
            .map(|c| server.open_session(&format!("reader{c}"), "reader-user"))
            .collect(),
        restricted: (0..CLIENTS)
            .map(|c| server.open_session(&format!("analyst{c}"), "analyst-user"))
            .collect(),
        order,
        rare_tag,
        person_pool,
        country_pool,
        queries,
        params,
    };

    let logs = read_phases(
        &mut report,
        args,
        CLIENTS,
        WARMUP,
        BLOCKS,
        None,
        TRACE_EVERY,
        |c, seq| ctx.plain(c, seq),
        |c, seq, tr, acc| ctx.traced(c, seq, tr, acc),
    );
    report.resident_mb = sys.graph.embeddings().memory_bytes() as f64 / 1e6;
    report.extra.batch_size = crate::trace::batch_size(&server);
    stamp_provenance(&sys.graph, &[sys.post_emb, sys.comment_emb]);

    for class in CLASSES {
        let lat: Vec<u64> = logs
            .iter()
            .flat_map(|l| l.ok.iter())
            .filter(|(_, (spec, _))| spec.class == class)
            .map(|(ns, _)| *ns)
            .collect();
        let (p50, _, _) = crate::util::p50_tail(&lat, 1e-6);
        report.notes.push(format!(
            "class {} reads {} p50_ms {p50:.3}",
            &class.root_span()[3..],
            lat.len()
        ));
    }

    // Correctness: recall@10 against an exact scan of the candidate set the
    // benchmark derives from its own copy, and row security.
    let mut exact: HashMap<Spec, Vec<usize>> = HashMap::new();
    let mut scratch = Vec::new();
    let mut samples = Vec::new();
    let mut leaks = 0usize;
    for log in &logs {
        for (_, (spec, rows)) in &log.ok {
            let got: Vec<usize> = rows
                .iter()
                .filter_map(|key| reference.row_of.get(key).copied())
                .collect();
            if spec.class == Class::RestrictedTopk {
                leaks += got
                    .iter()
                    .filter(|&&i| {
                        let m = &reference.messages[i];
                        m.vertex_type != sys.post_t || m.language != "en"
                    })
                    .count()
                    + rows.len()
                    - got.len();
            }
            let want = exact.entry(*spec).or_insert_with(|| {
                let keep = ctx.keep(&reference, *spec);
                reference
                    .slab
                    .exact_top_k(&ctx.queries[spec.query], K, &mut scratch, keep)
            });
            samples.extend(recall(&got, want));
        }
    }
    if leaks > 0 {
        report.violations.push(format!(
            "restricted_topk returned {leaks} rows outside the tenant's allow_rows"
        ));
    }
    report.set_recall(&samples, RECALL_FLOOR);

    if args.trace {
        report.extra.kernel_ns_per_row = kernel_ns_per_row(&reference.slab);
    }
    Ok(report)
}
