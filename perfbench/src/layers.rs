//! Calls into the layers that every workload shares, with a span around
//! each: the set-up path from XML bytes to an opened artifact, the exact
//! counting pass, per-call engine timings, the worker-pool speed-up and
//! the succinct tree operations.

use crate::trace::{self, span, Span};
use crate::util::{median, Metric, Rng};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xwq_core::{EvalScratch, EvalStats, Strategy};
use xwq_index::{TopologyKind, TreeIndex};
use xwq_store::{DocumentStore, QueryRequest, Session};
use xwq_succinct::SuccinctTree;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit. A
/// traced run prints all of them; a layer that the workload does not
/// reach reads 0 (see README.md for which workload reports what).
pub const PER_LAYER: [(&str, &str); 41] = [
    ("xmltree.parse_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.xwqi_bytes_per_node", "B/node"),
    ("store.write_ms", "ms"),
    ("store.open_ms", "ms"),
    ("succinct.first_child_ns", "ns"),
    ("succinct.next_sibling_ns", "ns"),
    ("succinct.parent_ns", "ns"),
    ("succinct.rank1_ns", "ns"),
    ("succinct.select1_ns", "ns"),
    ("succinct.find_close_ns", "ns"),
    ("xpath.parse_us", "us"),
    ("core.compile_us", "us"),
    ("core.plan_us", "us"),
    ("core.run_ms", "ms"),
    ("core.visited_per_query", "count"),
    ("core.jumps_per_query", "count"),
    ("core.selected_per_visited", "ratio"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.vm_dispatch_share", "ratio"),
    ("core.replans", "count"),
    ("core.visited", "count"),
    ("core.jumps", "count"),
    ("core.memo_hits", "count"),
    ("core.memo_misses", "count"),
    ("core.selected", "count"),
    ("store.session_overhead_us", "us"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.cache_hits", "count"),
    ("store.cache_misses", "count"),
    ("store.pool_speedup", "x"),
    ("shard.fanout_ms", "ms"),
    ("shard.fanout_speedup", "x"),
    ("shard.admission_waits", "count/1k"),
    ("shard.wal_commit_ms", "ms"),
    ("shard.checkpoint_ms", "ms"),
    ("serve.outside_fanout_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.stream_first_row_ms", "ms"),
    ("serve.response_bytes", "B"),
    ("obs.telemetry_overhead_pct", "%"),
];

/// Per-layer values a traced run collects, by metric name.
#[derive(Default)]
pub struct LayerValues(HashMap<&'static str, f64>);

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }

    /// The set-up layers, from the spans of the set-up phase: mean time
    /// per call of each.
    pub fn set_setup_layers(&mut self, spans: &[Span]) {
        self.set("xmltree.parse_ms", trace::mean_ms(spans, "xmltree.parse"));
        self.set("index.build_ms", trace::mean_ms(spans, "index.build"));
        self.set("store.write_ms", trace::mean_ms(spans, "store.write"));
        self.set("store.open_ms", trace::mean_ms(spans, "store.open"));
    }
}

/// What one artifact commit produced.
pub struct Artifact {
    pub nodes: usize,
    pub bytes: u64,
}

/// The path from XML bytes to a durably committed `.xwqi`: parse, index,
/// write under a staging name with `sync_data`, rename, and sync the
/// directory.
pub fn commit_artifact(xml: &[u8], kind: TopologyKind, path: &Path) -> Artifact {
    let doc = {
        let _s = span("xmltree.parse", 0);
        xwq_xml::parse_bytes(xml).expect("generated XML parses")
    };
    let index = {
        let _s = span("index.build", 0);
        TreeIndex::build_with(&doc, kind)
    };
    let _s = span("store.write", 0);
    let staged = path.with_extension("xwqi.stage");
    xwq_store::write_index_file_durable(&staged, &doc, &index).expect("artifact write");
    std::fs::rename(&staged, path).expect("artifact rename");
    let dir = path.parent().expect("artifact has a directory");
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .expect("directory sync");
    Artifact {
        nodes: doc.len(),
        bytes: std::fs::metadata(path).expect("artifact metadata").len(),
    }
}

/// Memory-maps a committed artifact into `store` under `name`.
pub fn open_artifact(store: &DocumentStore, name: &str, path: &Path) {
    let _s = span("store.open", 0);
    store.open_mmap(name, path).expect("artifact opens");
}

/// Exact totals of one counting pass.
#[derive(Default)]
pub struct Counts {
    pub queries: u64,
    pub stats: EvalStats,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub replans: u64,
}

impl Counts {
    pub fn add(&mut self, s: &EvalStats) {
        self.queries += 1;
        self.stats.accumulate(s);
    }

    pub fn report(&self, v: &mut LayerValues) {
        let s = &self.stats;
        let q = self.queries.max(1) as f64;
        v.set("core.visited", s.visited as f64);
        v.set("core.jumps", s.jumps as f64);
        v.set("core.memo_hits", s.memo_hits as f64);
        v.set("core.memo_misses", s.memo_misses as f64);
        v.set("core.selected", s.selected as f64);
        v.set("core.visited_per_query", s.visited as f64 / q);
        v.set("core.jumps_per_query", s.jumps as f64 / q);
        v.set(
            "core.selected_per_visited",
            s.selected as f64 / s.visited.max(1) as f64,
        );
        v.set(
            "core.memo_hit_ratio",
            s.memo_hits as f64 / (s.memo_hits + s.memo_misses).max(1) as f64,
        );
        v.set("core.replans", self.replans as f64);
        v.set("store.cache_hits", self.cache_hits as f64);
        v.set("store.cache_misses", self.cache_misses as f64);
        v.set(
            "store.cache_hit_ratio",
            self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64,
        );
    }
}

/// Rounds of the counting pass after its warm-up round.
const COUNT_ROUNDS: usize = 3;

/// The exact counting pass of the `xmark-*` workloads: a fresh session
/// over `store` answers every (document, query) once to warm its cache,
/// then [`COUNT_ROUNDS`] more times, serially, and the counters of those
/// rounds are summed. Serial and fresh, so every count repeats exactly.
pub fn count_pass(
    store: &Arc<DocumentStore>,
    docs: &[&str],
    queries: &[&str],
    strategy: Strategy,
) -> Counts {
    let session = Session::new(Arc::clone(store));
    let replans = || -> u64 {
        docs.iter()
            .map(|d| store.get(d).expect("doc").engine().plan_counters().replans)
            .sum()
    };
    let ask = |c: Option<&mut Counts>| {
        let mut c = c;
        for d in docs {
            for q in queries {
                let r = session.query(d, q, strategy).expect("query answers");
                if let Some(c) = c.as_deref_mut() {
                    c.add(&r.stats);
                }
            }
        }
    };
    ask(None);
    let before = (session.cache_stats(), replans());
    let mut c = Counts::default();
    for _ in 0..COUNT_ROUNDS {
        ask(Some(&mut c));
    }
    let after = session.cache_stats();
    c.cache_hits = after.hits - before.0.hits;
    c.cache_misses = after.misses - before.0.misses;
    c.replans = replans() - before.1;
    c
}

/// Per-call timings of the query path, each call in its own span:
/// `parse_xpath`, `Engine::compile`, a cold `Engine::program`, a warm
/// `Engine::run_with_scratch` (after one untimed run of the same compiled
/// query), and a warm `Session::query` right after it (the session's own
/// overhead is the difference).
pub fn engine_timings(
    store: &Arc<DocumentStore>,
    docs: &[&str],
    queries: &[&str],
    strategy: Strategy,
    rounds: usize,
    v: &mut LayerValues,
) {
    let session = Session::new(Arc::clone(store));
    // Warm the session cache, so that `Session::query` below is the
    // steady-state path.
    for d in docs {
        for q in queries {
            session.query(d, q, strategy).expect("query answers");
        }
    }
    let mut scratch = EvalScratch::new();
    let (mut run_ns, mut dispatch_ns) = (0u128, 0u128);
    let mut overhead_us = Vec::new();
    let mut run_ms = Vec::new();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let (mut parse, mut compile, mut plan) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        for d in docs {
            let sd = store.get(d).expect("doc");
            let engine = sd.engine();
            for q in queries {
                let t = Instant::now();
                {
                    let _s = span("xpath.parse", 0);
                    black_box(xwq_xpath::parse_xpath(q).expect("query parses"));
                }
                parse.push(us(t));
                let t = Instant::now();
                let cq = {
                    let _s = span("core.compile", 0);
                    engine.compile(q).expect("query compiles")
                };
                compile.push(us(t));
                let t = Instant::now();
                {
                    let _s = span("core.plan", 0);
                    black_box(engine.program(&cq, strategy));
                }
                plan.push(us(t));
                engine.run_with_scratch(&cq, strategy, &mut scratch);
                let t = Instant::now();
                let out = {
                    let _s = span("core.run", 0);
                    engine.run_with_scratch(&cq, strategy, &mut scratch)
                };
                let run = t.elapsed();
                run_ns += run.as_nanos();
                dispatch_ns += out.vm_dispatch_ns as u128;
                run_ms.push(run.as_secs_f64() * 1e3);
                let t = Instant::now();
                {
                    let _s = span("session.query", 0);
                    black_box(session.query(d, q, strategy).expect("query answers"));
                }
                overhead_us.push(us(t) - run.as_secs_f64() * 1e6);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    v.set("xpath.parse_us", mean(&parse));
    v.set("core.compile_us", mean(&compile));
    v.set("core.plan_us", mean(&plan));
    v.set("core.run_ms", mean(&run_ms));
    v.set(
        "core.vm_dispatch_share",
        dispatch_ns as f64 / run_ns.max(1) as f64,
    );
    v.set("store.session_overhead_us", median(&overhead_us));
}

/// The same batch answered on one thread and on two, in alternating
/// order; the ratio of the median batch times.
pub fn pool_speedup(store: &Arc<DocumentStore>, requests: &[QueryRequest], reps: usize) -> f64 {
    let session = Session::new(Arc::clone(store));
    session.query_many_with_threads(requests, 2);
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for i in 0..reps {
        for threads in if i % 2 == 0 { [1, 2] } else { [2, 1] } {
            let t = Instant::now();
            {
                let _s = span("session.query_many", 0);
                black_box(session.query_many_with_threads(requests, threads));
            }
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if threads == 1 {
                one.push(ms);
            } else {
                two.push(ms);
            }
        }
    }
    median(&one) / median(&two)
}

/// Nanoseconds per call of the succinct tree's navigation and of its
/// bit-vector primitives, at random positions drawn from `seed`.
pub fn succinct_ops(tree: &SuccinctTree, seed: u64, v: &mut LayerValues) {
    const CALLS: usize = 200_000;
    let mut rng = Rng::new(seed);
    let n = tree.len();
    let bp = tree.bp();
    let rs = bp.rank_select();
    let nodes: Vec<u32> = (0..CALLS).map(|_| rng.below(n) as u32).collect();
    let bits: Vec<usize> = (0..CALLS).map(|_| rng.below(bp.len())).collect();
    let ones: Vec<usize> = (0..CALLS).map(|_| rng.below(rs.count_ones())).collect();
    let opens: Vec<usize> = nodes
        .iter()
        .map(|&x| bp.select_open(x as usize).expect("node has an open paren"))
        .collect();
    let mut time = |name: &'static str, f: &dyn Fn(usize) -> usize| {
        let mut per_call = Vec::new();
        for _ in 0..5 {
            let _s = span(name, 0);
            let t = Instant::now();
            let mut acc = 0usize;
            for i in 0..CALLS {
                acc = acc.wrapping_add(f(i));
            }
            black_box(acc);
            per_call.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
        }
        v.set(name, median(&per_call));
    };
    let none = u32::MAX as usize;
    time("succinct.first_child_ns", &|i| {
        tree.first_child(nodes[i]).map_or(none, |x| x as usize)
    });
    time("succinct.next_sibling_ns", &|i| {
        tree.next_sibling(nodes[i]).map_or(none, |x| x as usize)
    });
    time("succinct.parent_ns", &|i| {
        tree.parent(nodes[i]).map_or(none, |x| x as usize)
    });
    time("succinct.rank1_ns", &|i| rs.rank1(bits[i]));
    time("succinct.select1_ns", &|i| {
        rs.select1(ones[i]).unwrap_or(none)
    });
    time("succinct.find_close_ns", &|i| {
        bp.find_close(opens[i]).unwrap_or(none)
    });
}
