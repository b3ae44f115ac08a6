//! The two engine workloads over XMark documents held in a
//! `DocumentStore` and served by a `Session`:
//!
//! * `xmark-planned`: XMark factor 5, array topology, strategy `auto`;
//!   one request is a `Session::query_many` batch of the 15 Fig. 2
//!   queries on 1 thread (the `xwq batch` path; see README.md for why
//!   not 2).
//! * `xmark-automaton`: XMark factor 1 plus the deep document, succinct
//!   topology, strategy `opt`; one request is one `Session::query`.

use crate::check::{sorted_unique, Oracle};
use crate::layers::{self, LayerValues};
use crate::trace::{self, span};
use crate::util::{
    check, end_to_end, median, ms, peak_rss_mib, quantile, sorted, sub_seed, Report,
};
use crate::Ctx;
use std::sync::Arc;
use std::time::Instant;
use xwq_core::Strategy;
use xwq_index::{TopologyKind, TreeIndex};
use xwq_store::{DocumentStore, QueryRequest, Session};

struct Shape {
    docs: &'static [&'static str],
    topology: TopologyKind,
    strategy: Strategy,
    setup_reps: usize,
    /// Durable commits timed before each set-up besides the set-up's own,
    /// so that `write_p50_ms` is a median over more writes.
    extra_commits: usize,
    /// One request is the whole round as one `query_many` batch on
    /// [`BATCH_THREADS`] threads; otherwise each query of the round is its
    /// own request.
    batched: bool,
}

pub fn run_planned(ctx: &Ctx) -> Report {
    run(
        ctx,
        &Shape {
            docs: &["xmark"],
            topology: TopologyKind::Array,
            strategy: Strategy::Auto,
            setup_reps: 5,
            extra_commits: 1,
            batched: true,
        },
    )
}

pub fn run_automaton(ctx: &Ctx) -> Report {
    run(
        ctx,
        &Shape {
            docs: &["xmark", "deep"],
            topology: TopologyKind::Succinct,
            strategy: Strategy::Optimized,
            setup_reps: 7,
            extra_commits: 2,
            batched: false,
        },
    )
}

/// Threads of a batched request. With 2 on a 2-core VM a batch waits on
/// the second core's wake-up and steal, and its p99 spread from run to
/// run was twice that of one thread (README.md).
const BATCH_THREADS: usize = 1;
/// Stack of the check threads: the size Linux gives a main thread.
const MAIN_STACK: usize = 8 << 20;

fn run(ctx: &Ctx, shape: &Shape) -> Report {
    let queries: Vec<&str> = xwq_xmark::queries().map(|(_, q)| q).collect();
    let xml_bytes: usize = shape.docs.iter().map(|d| ctx.xml(d).len()).sum();
    // One round: the 15 queries on every document, documents interleaved.
    let requests: Vec<QueryRequest> = queries
        .iter()
        .flat_map(|q| {
            shape
                .docs
                .iter()
                .map(|d| QueryRequest::new(*d, *q).with_strategy(shape.strategy))
        })
        .collect();

    // The measured time is split into slices, one after each set-up.
    let (mut setup_s, mut commit_ms) = (Vec::new(), Vec::new());
    let (mut artifact_bytes, mut nodes) = (0u64, 0usize);
    let mut live: Option<Arc<DocumentStore>> = None;
    let mut reference: Vec<Vec<u32>> = Vec::new();
    let mut ok = true;
    let mut failed = 0u64;
    // Per slice: its requests' latencies, then p50, p90, p99 (printed
    // only) and requests/s.
    let mut latency_ms = Vec::new();
    let (mut p50, mut p90, mut p99, mut rate) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut requests_done = 0usize;
    let mut request_id = 0u64;
    let mut elapsed = 0.0;
    let slice = ctx.seconds / shape.setup_reps as f64;
    for _ in 0..shape.setup_reps {
        drop(live.take());
        // Writes timed apart from the set-up, while no store is open (so
        // that they leave the peak resident set alone): the set-up's
        // commit path, replacing the artifacts.
        for _ in 0..shape.extra_commits {
            let t = Instant::now();
            for d in shape.docs {
                layers::commit_artifact(ctx.xml(d), shape.topology, &artifact(ctx, d));
            }
            commit_ms.push(ms(t.elapsed()));
        }
        // XML bytes -> parse -> index -> durable artifact -> mmap ->
        // session; each set-up replaces the artifacts of the one before.
        let t = Instant::now();
        let store = {
            let _s = span("setup", 0);
            (artifact_bytes, nodes) = (0, 0);
            for d in shape.docs {
                let a = layers::commit_artifact(ctx.xml(d), shape.topology, &artifact(ctx, d));
                artifact_bytes += a.bytes;
                nodes += a.nodes;
            }
            commit_ms.push(ms(t.elapsed()));
            let store = Arc::new(DocumentStore::new());
            for d in shape.docs {
                layers::open_artifact(&store, d, &artifact(ctx, d));
            }
            store
        };
        let session = Session::new(Arc::clone(&store));
        setup_s.push(t.elapsed().as_secs_f64());

        // An untimed round fills the session cache; the first one also
        // gives the reference answers every later answer must equal (the
        // reference itself is checked below).
        for (i, r) in requests.iter().enumerate() {
            match session.query(&r.document, &r.query, r.strategy) {
                Ok(resp) if reference.len() == i => reference.push(resp.nodes),
                Ok(resp) => check(&mut ok, resp.nodes == reference[i], || {
                    format!("{} on {} changed its answer", r.query, r.document)
                }),
                // Errors count where they are timed, below.
                Err(e) => {
                    eprintln!("perfbench: {} on {}: {e}", r.query, r.document);
                    if reference.len() == i {
                        reference.push(Vec::new());
                    }
                }
            }
        }
        let start = Instant::now();
        let deadline = start + std::time::Duration::from_secs_f64(slice);
        while Instant::now() < deadline {
            if shape.batched {
                request_id += 1;
                let t = Instant::now();
                let out = {
                    let _s = span("request", request_id);
                    session.query_many_with_threads(&requests, BATCH_THREADS)
                };
                latency_ms.push(ms(t.elapsed()));
                // A batch fails if any of its queries does.
                let mut batch_failed = false;
                for (i, r) in out.into_iter().enumerate() {
                    match r {
                        Ok(resp) => check(&mut ok, resp.nodes == reference[i], || {
                            format!("{} changed its answer", requests[i].query)
                        }),
                        Err(_) => batch_failed = true,
                    }
                }
                failed += batch_failed as u64;
            } else {
                for (i, r) in requests.iter().enumerate() {
                    request_id += 1;
                    let t = Instant::now();
                    let out = {
                        let _s = span("request", request_id);
                        session.query(&r.document, &r.query, r.strategy)
                    };
                    latency_ms.push(ms(t.elapsed()));
                    match out {
                        Ok(resp) => check(&mut ok, resp.nodes == reference[i], || {
                            format!("{} on {} changed its answer", r.query, r.document)
                        }),
                        Err(_) => failed += 1,
                    }
                }
            }
        }
        let took = start.elapsed().as_secs_f64();
        elapsed += took;
        let lat = sorted(std::mem::take(&mut latency_ms));
        p50.push(quantile(&lat, 0.5));
        p90.push(quantile(&lat, 0.9));
        p99.push(quantile(&lat, 0.99));
        rate.push(lat.len() as f64 / took);
        requests_done += lat.len();
        live = Some(store);
    }
    let store = live.expect("at least one set-up");
    let peak = peak_rss_mib();
    let run_spans = trace::take();

    // Checks made apart from the program: the baseline evaluator on a
    // separately built array index, all seven strategies, and ordering.
    let checks = Instant::now();
    for d in shape.docs {
        let oracle = Oracle::new(ctx.xml(d));
        let engine_doc = store.get(d).expect("document is registered");
        let engine = engine_doc.engine();
        let mine: Vec<usize> = (0..requests.len())
            .filter(|&i| requests[i].document == *d)
            .collect();
        let expected: Vec<Vec<u32>> = mine
            .iter()
            .map(|&i| oracle.answer(&requests[i].query))
            .collect();
        for (&i, want) in mine.iter().zip(&expected) {
            let q = &requests[i].query;
            check(&mut ok, sorted_unique(&reference[i]), || {
                format!("{q} on {d}: unsorted or duplicate nodes")
            });
            check(&mut ok, reference[i] == *want, || {
                format!(
                    "{q} on {d}: {} nodes, baseline {}",
                    reference[i].len(),
                    want.len()
                )
            });
        }
        // Naive evaluation takes as long as the other six together; the
        // two halves run on two threads, each with the main thread's
        // stack (naive evaluation of the deep document overflows a
        // default 2 MiB one).
        let halves: [&[Strategy]; 2] = [&Strategy::ALL[..1], &Strategy::ALL[1..]];
        let disagreements: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = halves
                .iter()
                .map(|strategies| {
                    let (mine, expected) = (&mine, &expected);
                    let requests = &requests;
                    let checker = std::thread::Builder::new().stack_size(MAIN_STACK);
                    checker
                        .spawn_scoped(s, move || {
                            let mut bad = Vec::new();
                            for (&i, want) in mine.iter().zip(expected) {
                                let q = &requests[i].query;
                                let cq = engine.compile(q).expect("query compiles");
                                for &st in strategies.iter() {
                                    if engine.run(&cq, st).nodes != *want {
                                        bad.push(format!(
                                            "{q} on {d}: strategy {} disagrees",
                                            st.token()
                                        ));
                                    }
                                }
                            }
                            bad
                        })
                        .expect("check thread starts")
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("check thread"))
                .collect()
        });
        for msg in disagreements {
            check(&mut ok, false, || msg);
        }
    }

    // Latency quantiles are medians over the slices, so that a slow period
    // of the machine that covers one slice moves them less; requests/s is
    // over the whole measured time, which varied less between windows of
    // one long run than the median of the slice rates (README.md).
    let e2e = end_to_end([
        median(&setup_s),
        median(&p50),
        median(&p90),
        requests_done as f64 / elapsed,
        median(&commit_ms),
        artifact_bytes as f64 / xml_bytes as f64,
        peak,
    ]);
    eprintln!(
        "perfbench: {requests_done} requests in {elapsed:.2} s, {} set-ups, {} commits, \
         checks {:.2} s; per slice p99 {p99:.2?} ms, requests/s {rate:.1?}",
        setup_s.len(),
        commit_ms.len(),
        checks.elapsed().as_secs_f64()
    );
    let attempted = requests_done as u64;
    if !ctx.trace {
        return Report {
            correct: ok,
            attempted,
            failed,
            metrics: e2e,
        };
    }

    crate::print_traced_e2e(&e2e);
    let mut v = LayerValues::default();
    v.set_setup_layers(&run_spans);
    v.set(
        "index.xwqi_bytes_per_node",
        artifact_bytes as f64 / nodes as f64,
    );
    layers::count_pass(&store, shape.docs, &queries, shape.strategy).report(&mut v);
    layers::engine_timings(&store, shape.docs, &queries, shape.strategy, 3, &mut v);
    v.set(
        "store.pool_speedup",
        layers::pool_speedup(&store, &requests, 15),
    );
    let seed = sub_seed(ctx.seed, "succinct-probes");
    match shape.topology {
        TopologyKind::Succinct => {
            let doc = store.get(shape.docs[0]).expect("document is registered");
            let tree = doc
                .engine()
                .index()
                .topology()
                .succinct_tree()
                .expect("succinct topology");
            layers::succinct_ops(tree, seed, &mut v);
        }
        TopologyKind::Array => {
            // The control: the same operations on a succinct tree built
            // from this workload's document, which its queries never use.
            let doc = xwq_xml::parse_bytes(ctx.xml(shape.docs[0])).expect("XML parses");
            let ix = TreeIndex::build_with(&doc, TopologyKind::Succinct);
            let tree = ix.topology().succinct_tree().expect("succinct topology");
            layers::succinct_ops(tree, seed, &mut v);
        }
    }
    let mut spans = run_spans;
    spans.extend(trace::take());
    trace::print_table(&trace::summarize(&spans));
    Report {
        correct: ok,
        attempted,
        failed,
        metrics: v.into_metrics(),
    }
}

fn artifact(ctx: &Ctx, doc: &str) -> std::path::PathBuf {
    ctx.dir.join(format!("{doc}.xwqi"))
}
