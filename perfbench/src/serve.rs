//! `serve-corpus`: a durable corpus of XMark documents of mixed sizes,
//! opened the way `xwq serve` opens one (`Corpus::open_dir`, a
//! `ShardedSession` with telemetry, `Server::start`), read over HTTP by
//! the benchmark's own client while documents are durably replaced.
//!
//! The measured phase has two parts. A closed loop on two connections,
//! where every few operations of the first client are a durable replace
//! (parse, index, `Corpus::replace`, a checkpoint every few writes), gives
//! `requests_per_s` and `write_p50_ms`. An open loop of reads at a fixed offered rate,
//! pipelined on two connections, gives the request latencies, each timed
//! from its due time (see README.md for why no writes run beside it).
//! Writes replace only documents that reads leave out (see README.md: the
//! server renders paths from whatever version is live at render time, so
//! a read of a document being replaced can pair two versions).

use crate::check::{fingerprint, sorted_unique, Expected, Oracle};
use crate::client::{Conn, Pipe, Response};
use crate::inputs::{
    self, documents, query_pool, serve_version, zipf_round, SERVE_FACTORS, SERVE_VERSIONS,
    WRITE_DOCS,
};
use crate::json::{self, Json};
use crate::layers::{self, Counts, LayerValues};
use crate::trace::{self, span};
use crate::util::{
    check, end_to_end, hash_nodes, median, ms, peak_rss_mib, quantile, sorted, sub_seed, Fnv,
    Report, Rng,
};
use crate::Ctx;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xwq_core::Strategy;
use xwq_index::{TopologyKind, TreeIndex};
use xwq_obs::Registry;
use xwq_serve::{ServeConfig, Server};
use xwq_shard::{Corpus, PlacementPolicy, ShardedConfig, ShardedSession};
use xwq_store::{QueryRequest, Session};

const SHARDS: usize = 2;
const WORKERS_PER_SHARD: usize = 1;
const HTTP_WORKERS: usize = 2;
/// Connections of each loop (and client threads of the closed loop).
const CLIENTS: usize = 2;
const SETUP_REPS: usize = 7;
/// Every this-many-th operation of the first closed-loop client is a
/// write.
const OPS_PER_WRITE: usize = 2;
/// A checkpoint follows every this-many writes.
const CHECKPOINT_EVERY: usize = 8;
/// Offered rate of the open-loop phase, reads per second: half of what
/// the server keeps up with on a quiet 2-core VM, so that periods of CPU
/// steal do not push it into overload (README.md).
const OPEN_RATE: f64 = 50.0;
/// Share of `--seconds` given to the closed loop; the rest is open loop.
const CLOSED_SHARE: f64 = 0.2;
const POLICY: PlacementPolicy = PlacementPolicy::SizeBalanced;
/// The open loop's read schedule (closed-loop client `t` runs schedule
/// `t`).
const OPEN_SCHEDULE: usize = CLIENTS;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    /// JSON with node ids and positional paths.
    Json,
    /// JSON with counts only.
    Count,
    /// Chunked NDJSON with node ids and paths, one row per document.
    Stream,
}

/// Reads of one round of a schedule.
const ROUND: usize = 500;

/// A schedule's reads: rounds of the same multiset (each pool query by
/// its Zipf share, formats in fixed proportions), every round in its own
/// order drawn from the seed.
struct Reads<'a> {
    base: &'a [usize],
    seed: u64,
    round: usize,
    order: Vec<(usize, Format)>,
}

impl<'a> Reads<'a> {
    fn new(base: &'a [usize], seed: u64, schedule: usize) -> Self {
        Reads {
            base,
            seed: seed ^ ((schedule as u64) << 40),
            round: usize::MAX,
            order: Vec::new(),
        }
    }

    /// Read `i` of the schedule: a query index and a format.
    fn get(&mut self, i: usize) -> (usize, Format) {
        let round = i / self.base.len();
        if round != self.round {
            let mut queries = self.base.to_vec();
            Rng::new(self.seed ^ round as u64).shuffle(&mut queries);
            // 14 JSON, 3 count-only and 3 streamed of every 20.
            self.order = queries
                .into_iter()
                .enumerate()
                .map(|(p, q)| {
                    let format = match p % 20 {
                        0..=13 => Format::Json,
                        14..=16 => Format::Count,
                        _ => Format::Stream,
                    };
                    (q, format)
                })
                .collect();
            self.round = round;
        }
        self.order[i % self.base.len()]
    }
}

/// One document's part of a response.
struct DocPart {
    doc: usize,
    count: usize,
    nodes: Option<u64>,
    paths: Option<u64>,
    sorted: bool,
}

struct ReadLog {
    query: usize,
    parts: Vec<DocPart>,
}

/// One acknowledged replace: written document `doc` now holds `version`.
struct WriteLog {
    doc: usize,
    version: usize,
}

/// What the client side observed.
#[derive(Default)]
struct ClientLog {
    reads: Vec<ReadLog>,
    read_ms: Vec<f64>,
    /// Open loop: the round of the schedule each `read_ms` belongs to.
    read_round: Vec<usize>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl ClientLog {
    fn merge(&mut self, other: ClientLog) {
        self.reads.extend(other.reads);
        self.read_ms.extend(other.read_ms);
        self.read_round.extend(other.read_round);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    /// Files one read's response.
    fn record(
        &mut self,
        sh: &Shared,
        query: usize,
        format: Format,
        resp: std::io::Result<Response>,
    ) {
        let parts = match resp {
            Ok(r) if r.status == 200 => digest(format, &r.body, sh.read_names),
            Ok(r) => Err(format!(
                "status {}: {}",
                r.status,
                String::from_utf8_lossy(&r.body)
            )),
            Err(e) => Err(e.to_string()),
        };
        match parts {
            Ok(parts) => self.reads.push(ReadLog { query, parts }),
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{}: {e}", sh.pool[query]));
            }
        }
    }
}

/// State shared by the client threads.
struct Shared<'a> {
    ctx: &'a Ctx,
    pool: &'a [String],
    /// The documents every read names, in name order.
    read_names: &'a [String],
    /// `"docs":[...]` naming them, for the request bodies.
    docs_field: String,
    corpus: Arc<Corpus>,
    writes: Mutex<Vec<WriteLog>>,
    write_ms: Mutex<Vec<f64>>,
}

impl Shared<'_> {
    fn request_body(&self, query: usize, format: Format) -> String {
        let (q, docs) = (json::quote(&self.pool[query]), &self.docs_field);
        match format {
            Format::Json => format!("{{\"query\":{q},{docs}}}"),
            Format::Count => format!("{{\"query\":{q},{docs},\"count\":true}}"),
            Format::Stream => format!("{{\"query\":{q},{docs},\"stream\":true}}"),
        }
    }

    /// One closed-loop read.
    fn read(&self, conn: &mut Conn, query: usize, format: Format, log: &mut ClientLog, id: u64) {
        let body = self.request_body(query, format);
        let start = Instant::now();
        let resp = {
            let _s = span("http.request", id);
            conn.post("/query", &body)
        };
        log.read_ms.push(ms(start.elapsed()));
        log.record(self, query, format, resp.map(|(r, _)| r));
    }

    /// Replaces the next written document (in turn) with its next version.
    fn write(&self, id: u64) {
        let _s = span("write", id);
        let mut writes = self.writes.lock().expect("write log poisoned");
        let doc = writes.len() % WRITE_DOCS;
        let prior = writes.iter().filter(|w| w.doc == doc).count();
        let version = 1 + prior % SERVE_VERSIONS;
        let (name, xml) = (
            serve_version(self.ctx.seed, doc, 0).name,
            self.ctx
                .xml(&serve_version(self.ctx.seed, doc, version).name),
        );
        let t = Instant::now();
        let parsed = {
            let _s = span("xmltree.parse", id);
            xwq_xml::parse_bytes(xml).expect("generated XML parses")
        };
        let index = {
            let _s = span("index.build", id);
            TreeIndex::build_with(&parsed, TopologyKind::Array)
        };
        {
            let _s = span("shard.replace", id);
            self.corpus
                .replace(&name, parsed, index)
                .expect("durable replace");
        }
        self.write_ms
            .lock()
            .expect("write times poisoned")
            .push(ms(t.elapsed()));
        writes.push(WriteLog { doc, version });
        if writes.len().is_multiple_of(CHECKPOINT_EVERY) {
            let _s = span("shard.checkpoint", id);
            self.corpus.checkpoint().expect("checkpoint");
        }
    }
}

/// Reads a response body into per-document parts, in name order.
fn digest(format: Format, body: &[u8], names: &[String]) -> Result<Vec<DocPart>, String> {
    let rows: Vec<Json> = match format {
        Format::Stream => {
            let mut rows = Vec::new();
            let mut tail = None;
            for line in body.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                let v = json::parse(line)?;
                if v.get("doc").is_some() {
                    rows.push(v);
                } else {
                    tail = Some(v);
                }
            }
            let tail = tail.ok_or("stream without a closing row")?;
            if tail.get("failures").and_then(Json::as_f64) != Some(0.0) {
                return Err(format!("stream reports failures: {tail:?}"));
            }
            rows
        }
        Format::Json | Format::Count => {
            let v = json::parse(body)?;
            if v.get("failures").and_then(Json::as_f64) != Some(0.0) {
                return Err("response reports failures".into());
            }
            match v {
                Json::Obj(fields) => fields
                    .into_iter()
                    .find(|(k, _)| k == "results")
                    .and_then(|(_, r)| match r {
                        Json::Arr(rows) => Some(rows),
                        _ => None,
                    })
                    .ok_or("response without results")?,
                _ => return Err("response is not an object".into()),
            }
        }
    };
    if rows.len() != names.len() {
        return Err(format!(
            "{} documents answered, {} expected",
            rows.len(),
            names.len()
        ));
    }
    let mut parts = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if row.get("doc").and_then(Json::as_str) != Some(names[i].as_str()) {
            return Err(format!("row {i} is not {}", names[i]));
        }
        let count = row
            .get("count")
            .and_then(Json::as_f64)
            .ok_or("row without count")? as usize;
        let mut part = DocPart {
            doc: i,
            count,
            nodes: None,
            paths: None,
            sorted: true,
        };
        if format != Format::Count {
            let nodes: Vec<u32> = row
                .get("nodes")
                .and_then(Json::as_arr)
                .ok_or("row without nodes")?
                .iter()
                .map(|n| n.as_f64().map(|x| x as u32).ok_or("bad node id"))
                .collect::<Result<_, _>>()?;
            let mut h = Fnv::new();
            for p in row
                .get("paths")
                .and_then(Json::as_arr)
                .ok_or("row without paths")?
            {
                h.bytes(p.as_str().ok_or("bad path")?.as_bytes());
                h.bytes(b"\n");
            }
            part.sorted = sorted_unique(&nodes);
            part.nodes = Some(hash_nodes(&nodes));
            part.paths = Some(h.finish());
        }
        parts.push(part);
    }
    Ok(parts)
}

/// A set-up serve stack.
struct Stack {
    dir: PathBuf,
    session: Arc<ShardedSession>,
    server: Server,
}

/// XML bytes -> parse -> index -> durable add, for every document; then
/// the corpus is opened the way `xwq serve` opens it and the server
/// started. Returns the stack and the artifacts' bytes and nodes.
fn set_up(ctx: &Ctx, names: &[String], rep: usize) -> (Stack, u64, usize) {
    let dir = ctx.dir.join(format!("corpus{rep}"));
    let mut nodes = 0;
    {
        let corpus = Corpus::open_or_create_dir(&dir, SHARDS, POLICY).expect("corpus dir");
        for name in names {
            let doc = {
                let _s = span("xmltree.parse", 0);
                xwq_xml::parse_bytes(ctx.xml(name)).expect("generated XML parses")
            };
            let index = {
                let _s = span("index.build", 0);
                TreeIndex::build_with(&doc, TopologyKind::Array)
            };
            nodes += doc.len();
            let _s = span("store.write", 0);
            corpus.add_durable(name, doc, index).expect("durable add");
        }
    }
    let corpus = {
        let _s = span("store.open", 0);
        Arc::new(Corpus::open_dir(&dir, SHARDS, POLICY).expect("corpus reopens"))
    };
    let session = Arc::new(ShardedSession::with_config(
        corpus,
        ShardedConfig {
            workers_per_shard: WORKERS_PER_SHARD,
            ..ShardedConfig::default()
        },
    ));
    let registry = Arc::new(Registry::new());
    session.enable_telemetry(&registry);
    let server = Server::start(
        Arc::clone(&session),
        registry,
        "127.0.0.1:0",
        serve_config(),
    )
    .expect("server starts");
    let bytes = artifact_bytes(&dir);
    (
        Stack {
            dir,
            session,
            server,
        },
        bytes,
        nodes,
    )
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        http_workers: HTTP_WORKERS,
        ..ServeConfig::default()
    }
}

fn artifact_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("corpus dir lists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".xwqi"))
        .map(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
        .sum()
}

/// The closed loop: each client runs its own schedule on its own
/// connection until `seconds` have passed.
fn closed_loop(
    sh: &Shared,
    addr: SocketAddr,
    seed: u64,
    round: &[usize],
    seconds: f64,
) -> ClientLog {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                s.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut log = ClientLog::default();
                    let mut reads = Reads::new(round, seed, t);
                    let (mut i, mut r) = (0, 0);
                    while Instant::now() < end {
                        let id = ((t as u64) << 32) | i as u64;
                        log.attempted += 1;
                        if t == 0 && i % OPS_PER_WRITE == OPS_PER_WRITE - 1 {
                            sh.write(id);
                        } else {
                            let (query, format) = reads.get(r);
                            sh.read(&mut conn, query, format, &mut log, id);
                            r += 1;
                        }
                        i += 1;
                    }
                    log
                })
            })
            .collect();
        let mut all = ClientLog::default();
        for h in handles {
            all.merge(h.join().expect("client thread"));
        }
        all
    })
}

/// A read in flight on a pipelined connection.
struct InFlight {
    /// Its place in the schedule.
    index: usize,
    query: usize,
    format: Format,
    due: Instant,
    sent: Instant,
}

/// The open loop: `ops` reads at [`OPEN_RATE`], sent round-robin on two
/// pipelined connections when due, whether or not earlier answers are in;
/// each read is timed from when it was due.
fn open_loop(sh: &Shared, addr: SocketAddr, seed: u64, round: &[usize], ops: usize) -> ClientLog {
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / OPEN_RATE);
    let mut log = ClientLog::default();
    let mut reads = Reads::new(round, seed, OPEN_SCHEDULE);
    let mut pipes: Vec<Pipe<InFlight>> = (0..CLIENTS)
        .map(|_| Pipe::connect(addr).expect("connects"))
        .collect();
    let mut next = 0;
    let poll = |pipes: &mut Vec<Pipe<InFlight>>, log: &mut ClientLog| -> bool {
        let mut moved = false;
        for p in pipes.iter_mut() {
            match p.poll() {
                Ok((done, m)) => {
                    moved |= m;
                    let now = Instant::now();
                    for (f, resp) in done {
                        log.read_ms.push(ms(now - f.due));
                        log.read_round.push(f.index / ROUND);
                        log.late_ms.push(ms(f.sent - f.due));
                        log.record(sh, f.query, f.format, Ok(resp));
                    }
                }
                Err(e) => {
                    // Every read still waiting on this connection fails.
                    let mut fresh = Pipe::connect(addr).expect("reconnects");
                    std::mem::swap(p, &mut fresh);
                    for _ in 0..fresh.in_flight() {
                        log.failed += 1;
                        log.errors.push(format!("connection: {e}"));
                    }
                    moved = true;
                }
            }
        }
        moved
    };
    while next < ops || pipes.iter().any(|p| p.in_flight() > 0) {
        let now = Instant::now();
        while next < ops && due(next) <= now {
            log.attempted += 1;
            let (query, format) = reads.get(next);
            let body = sh.request_body(query, format);
            let f = InFlight {
                index: next,
                query,
                format,
                due: due(next),
                sent: Instant::now(),
            };
            pipes[next % CLIENTS].send("/query", &body, f);
            next += 1;
        }
        if !poll(&mut pipes, &mut log) {
            let idle = if next < ops {
                due(next).saturating_duration_since(Instant::now())
            } else {
                Duration::MAX
            };
            std::thread::sleep(idle.min(Duration::from_micros(100)));
        }
    }
    log
}

pub fn run(ctx: &Ctx) -> Report {
    // The corpus: the documents reads fan out over, then the written ones.
    let names: Vec<String> = documents(crate::Workload::Serve, ctx.seed)
        .into_iter()
        .map(|d| d.name)
        .collect();
    let read_names = &names[..SERVE_FACTORS.len()];
    let docs_field = format!(
        "\"docs\":[{}]",
        read_names
            .iter()
            .map(|n| json::quote(n))
            .collect::<Vec<_>>()
            .join(",")
    );
    let pool = query_pool();
    let round = zipf_round(pool.len(), inputs::ZIPF_EXPONENT, ROUND);
    let xml_bytes: usize = names.iter().map(|n| ctx.xml(n).len()).sum();
    let seed = sub_seed(ctx.seed, "serve-ops");

    let mut setup_s = Vec::new();
    let mut live: Option<Stack> = None;
    let (mut bytes, mut nodes) = (0, 0);
    for rep in 0..SETUP_REPS {
        if let Some(old) = live.take() {
            old.server.shutdown();
            drop(old.session);
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        let _s = span("setup", 0);
        let t = Instant::now();
        let (stack, b, n) = set_up(ctx, &names, rep);
        setup_s.push(t.elapsed().as_secs_f64());
        (bytes, nodes) = (b, n);
        live = Some(stack);
    }
    let setup_spans = trace::take();
    let setup_peak = peak_rss_mib();
    let stack = live.expect("at least one set-up");
    let addr: SocketAddr = stack.server.local_addr();
    let shared = Shared {
        ctx,
        pool: &pool,
        read_names,
        docs_field,
        corpus: Arc::clone(stack.session.corpus()),
        writes: Mutex::new(Vec::new()),
        write_ms: Mutex::new(Vec::new()),
    };
    let admission_before = stack.session.admission_stats();

    let closed_secs = ctx.seconds * CLOSED_SHARE;
    let closed_start = Instant::now();
    let closed = closed_loop(&shared, addr, seed, &round, closed_secs);
    let closed_elapsed = closed_start.elapsed().as_secs_f64();
    let closed_reads = closed.read_ms.len();

    // Whole rounds, at least one.
    let open_rounds = ((ctx.seconds - closed_secs) * OPEN_RATE / ROUND as f64).round();
    let open_ops = open_rounds.max(1.0) as usize * ROUND;
    let open_start = Instant::now();
    let open = open_loop(&shared, addr, seed, &round, open_ops);
    let open_elapsed = open_start.elapsed().as_secs_f64();
    let peak = peak_rss_mib();
    let admission = stack.session.admission_stats();
    let loop_spans = trace::take();

    let attempted = closed.attempted + open.attempted;
    let failed = closed.failed + open.failed;
    for e in closed.errors.iter().chain(open.errors.iter()).take(5) {
        eprintln!("perfbench: failed read: {e}");
    }
    let open_ms = sorted(open.read_ms.clone());
    // Latency quantiles per round of the schedule, reported as the median
    // over the rounds, so that one stall of the machine moves them less.
    let mut by_round = vec![Vec::new(); open_ops / ROUND];
    for (&t, &r) in open.read_ms.iter().zip(&open.read_round) {
        by_round[r].push(t);
    }
    let by_round: Vec<Vec<f64>> = by_round.into_iter().map(sorted).collect();
    let round_p50: Vec<f64> = by_round.iter().map(|v| quantile(v, 0.5)).collect();
    let round_p90: Vec<f64> = by_round.iter().map(|v| quantile(v, 0.9)).collect();
    let round_p99: Vec<f64> = by_round.iter().map(|v| quantile(v, 0.99)).collect();
    let late_ms = sorted(open.late_ms.clone());
    let write_ms = shared.write_ms.lock().expect("write times").clone();
    let writes = std::mem::take(&mut *shared.writes.lock().expect("write log"));
    eprintln!(
        "perfbench: closed loop {closed_reads} reads in {closed_elapsed:.2} s; open loop {} reads \
         in {open_elapsed:.2} s at {OPEN_RATE}/s offered, latency p90 {:.3} ms max {:.3} ms, \
         per round p99 {round_p99:.2?} ms, sent late p50 {:.3} ms p99 {:.3} ms max {:.3} ms; \
         {} writes; peak RSS {setup_peak:.1} MiB after set-up",
        open_ms.len(),
        quantile(&open_ms, 0.9),
        open_ms.last().copied().unwrap_or(0.0),
        quantile(&late_ms, 0.5),
        quantile(&late_ms, 0.99),
        late_ms.last().copied().unwrap_or(0.0),
        writes.len()
    );

    // Checks: every response against the baseline on the read documents
    // (never replaced), then a reopen of the corpus directory against the
    // initial read documents and the last acknowledged written versions.
    let checks = Instant::now();
    let mut ok = true;
    let mut oracles: HashMap<usize, Oracle> = HashMap::new();
    let mut expected: HashMap<(usize, usize), Expected> = HashMap::new();
    for read in closed.reads.iter().chain(open.reads.iter()) {
        for part in &read.parts {
            let e = *expected.entry((part.doc, read.query)).or_insert_with(|| {
                let oracle = oracles
                    .entry(part.doc)
                    .or_insert_with(|| Oracle::new(ctx.xml(&names[part.doc])));
                Expected::of(oracle, &pool[read.query])
            });
            let matched = e.count == part.count
                && part.nodes.is_none_or(|h| h == e.nodes)
                && part.paths.is_none_or(|h| h == e.paths);
            check(&mut ok, matched && part.sorted, || {
                format!(
                    "{} on {}: response differs from the baseline",
                    pool[read.query], names[part.doc]
                )
            });
        }
    }
    stack.server.shutdown();
    drop(shared);
    drop(stack.session);
    {
        let reopened = Corpus::open_dir(&stack.dir, SHARDS, POLICY).expect("corpus reopens");
        for (i, name) in names.iter().enumerate() {
            let source = match i.checked_sub(read_names.len()) {
                None => name.clone(),
                Some(w) => {
                    let last = writes.iter().rev().find(|x| x.doc == w);
                    serve_version(ctx.seed, w, last.map_or(0, |x| x.version)).name
                }
            };
            let want = fingerprint(Oracle::new(ctx.xml(&source)).document());
            let got = reopened.get(name).map(|d| fingerprint(d.document()));
            check(&mut ok, got == Some(want), || {
                format!("{name}: reopened corpus does not hold {source}")
            });
        }
    }
    eprintln!(
        "perfbench: checks {:.2} s over {} expected answers",
        checks.elapsed().as_secs_f64(),
        expected.len()
    );
    drop(oracles);

    let e2e = end_to_end([
        median(&setup_s),
        median(&round_p50),
        median(&round_p90),
        closed_reads as f64 / closed_elapsed,
        median(&write_ms),
        bytes as f64 / xml_bytes as f64,
        peak,
    ]);
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
    v.set_setup_layers(&setup_spans);
    v.set("index.xwqi_bytes_per_node", bytes as f64 / nodes as f64);
    v.set(
        "shard.wal_commit_ms",
        trace::mean_ms(&loop_spans, "shard.replace"),
    );
    v.set(
        "shard.checkpoint_ms",
        trace::mean_ms(&loop_spans, "shard.checkpoint"),
    );
    let reads = (closed_reads + open_ms.len()).max(1) as f64;
    v.set(
        "shard.admission_waits",
        (admission.waited - admission_before.waited) as f64 * 1000.0 / reads,
    );
    probe_layers(ctx, read_names, &pool, &round, &mut v);
    let mut spans = setup_spans;
    spans.extend(loop_spans);
    spans.extend(trace::take());
    trace::print_table(&trace::summarize(&spans));
    Report {
        correct: ok,
        attempted,
        failed,
        metrics: v.into_metrics(),
    }
}

/// Queries of the per-call probes (the pool's first, by Zipf rank).
const PROBE_QUERIES: usize = 20;

/// The traced run's layer probes, on an in-memory corpus built from the
/// initial documents so that they do not depend on how many writes the
/// measured phase made.
fn probe_layers(
    ctx: &Ctx,
    names: &[String],
    pool: &[String],
    round: &[usize],
    v: &mut LayerValues,
) {
    let corpus = Arc::new(Corpus::new(SHARDS, POLICY));
    for name in names {
        let doc = xwq_xml::parse_bytes(ctx.xml(name)).expect("generated XML parses");
        let ix = TreeIndex::build_with(&doc, TopologyKind::Array);
        corpus.add_prebuilt(name, doc, ix).expect("document places");
    }
    let pooled = Arc::new(ShardedSession::with_config(
        Arc::clone(&corpus),
        ShardedConfig {
            workers_per_shard: WORKERS_PER_SHARD,
            ..ShardedConfig::default()
        },
    ));
    let replans = || -> u64 {
        names
            .iter()
            .map(|n| corpus.get(n).expect("doc").engine().plan_counters().replans)
            .sum()
    };

    // Exact counts: one round of fan-outs, in an order drawn from the
    // seed, on a fresh session.
    let mut reads = Reads::new(round, sub_seed(ctx.seed, "count-pass"), 0);
    let mut counts = Counts::default();
    let replans_before = replans();
    for i in 0..round.len() {
        let q = &pool[reads.get(i).0];
        let (outcomes, _) = {
            let _s = span("shard.fanout", i as u64);
            pooled
                .query_corpus_stats(q, Strategy::Auto)
                .expect("fan-out admits")
        };
        for o in outcomes {
            counts.add(&o.result.expect("document answers").stats);
        }
    }
    let cache = pooled.cache_stats();
    counts.cache_hits = cache.hits;
    counts.cache_misses = cache.misses;
    counts.replans = replans() - replans_before;
    counts.report(v);
    let fanout_spans = trace::take();
    v.set(
        "shard.fanout_ms",
        trace::mean_ms(&fanout_spans, "shard.fanout"),
    );

    // Fan-out on pinned workers against the serial reference mode.
    let serial = ShardedSession::with_config(
        Arc::clone(&corpus),
        ShardedConfig {
            workers_per_shard: 0,
            ..ShardedConfig::default()
        },
    );
    let probe = &pool[..PROBE_QUERIES];
    let round = |s: &ShardedSession| {
        let t = Instant::now();
        for q in probe {
            let _s = span("shard.fanout", 0);
            s.query_corpus_stats(q, Strategy::Auto)
                .expect("fan-out admits");
        }
        ms(t.elapsed())
    };
    round(&serial);
    round(&pooled);
    let (mut serial_ms, mut pooled_ms) = (Vec::new(), Vec::new());
    for i in 0..6 {
        if i % 2 == 0 {
            serial_ms.push(round(&serial));
            pooled_ms.push(round(&pooled));
        } else {
            pooled_ms.push(round(&pooled));
            serial_ms.push(round(&serial));
        }
    }
    v.set(
        "shard.fanout_speedup",
        median(&serial_ms) / median(&pooled_ms),
    );

    // HTTP over the pooled session: count-only, rendered and streamed
    // requests for the same queries, beside the in-process fan-out.
    let server = Server::start(
        Arc::clone(&pooled),
        Arc::new(Registry::new()),
        "127.0.0.1:0",
        serve_config(),
    )
    .expect("server starts");
    let mut conn = Conn::new(server.local_addr());
    let body = |q: &str, extra: &str| format!("{{\"query\":{}{extra}}}", json::quote(q));
    let mut timed_post = |b: &str| {
        let t = Instant::now();
        let (r, first_chunk) = {
            let _s = span("http.request", 0);
            conn.post("/query", b).expect("probe request")
        };
        assert_eq!(r.status, 200, "probe request answered");
        (ms(t.elapsed()), r, first_chunk.map(|at| ms(at - t)))
    };
    let (mut outside, mut render, mut first_row, mut resp_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for q in probe {
        timed_post(&body(q, ""));
        let (mut c, mut j, mut f) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..5 {
            let t = Instant::now();
            {
                let _s = span("shard.fanout", 0);
                pooled
                    .query_corpus_stats(q, Strategy::Auto)
                    .expect("fan-out admits");
            }
            f.push(ms(t.elapsed()));
            c.push(timed_post(&body(q, ",\"count\":true")).0);
            let (t_json, r, _) = timed_post(&body(q, ""));
            j.push(t_json);
            resp_bytes.push(r.body.len() as f64);
            if let (_, _, Some(first)) = timed_post(&body(q, ",\"stream\":true")) {
                first_row.push(first);
            }
        }
        outside.push(median(&c) - median(&f));
        render.push(median(&j) - median(&c));
    }
    drop(conn);
    server.shutdown();
    let mean = |x: &[f64]| x.iter().sum::<f64>() / x.len().max(1) as f64;
    v.set("serve.outside_fanout_ms", mean(&outside));
    v.set("serve.render_ms", mean(&render));
    v.set("serve.stream_first_row_ms", mean(&first_row));
    v.set("serve.response_bytes", mean(&resp_bytes));

    // Shard 0's store: telemetry A/B, engine timings, pool speed-up.
    let store = Arc::clone(corpus.shard_store(0));
    let docs: Vec<&str> = names
        .iter()
        .filter(|n| corpus.shard_of(n) == Some(0))
        .map(String::as_str)
        .collect();
    let queries: Vec<&str> = probe.iter().map(String::as_str).collect();
    let (on, off) = (
        Session::new(Arc::clone(&store)),
        Session::new(Arc::clone(&store)),
    );
    on.enable_telemetry(&Registry::new(), &[("shard", "0")]);
    let block = |s: &Session| {
        let t = Instant::now();
        for d in &docs {
            for q in &queries {
                s.query(d, q, Strategy::Auto).expect("query answers");
            }
        }
        ms(t.elapsed())
    };
    block(&on);
    block(&off);
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    for i in 0..20 {
        if i % 2 == 0 {
            on_ms.push(block(&on));
            off_ms.push(block(&off));
        } else {
            off_ms.push(block(&off));
            on_ms.push(block(&on));
        }
    }
    v.set(
        "obs.telemetry_overhead_pct",
        100.0 * (median(&on_ms) - median(&off_ms)) / median(&off_ms),
    );
    layers::engine_timings(&store, &docs, &queries, Strategy::Auto, 2, v);
    let requests: Vec<QueryRequest> = docs
        .iter()
        .flat_map(|d| queries.iter().map(move |q| QueryRequest::new(*d, *q)))
        .collect();
    v.set(
        "store.pool_speedup",
        layers::pool_speedup(&store, &requests, 10),
    );

    // Succinct operations on the largest document, whose serving never
    // uses them (the corpus is in the array topology).
    let largest = names.last().expect("documents");
    let doc = xwq_xml::parse_bytes(ctx.xml(largest)).expect("generated XML parses");
    let ix = TreeIndex::build_with(&doc, TopologyKind::Succinct);
    let tree = ix.topology().succinct_tree().expect("succinct topology");
    layers::succinct_ops(tree, sub_seed(ctx.seed, "succinct-probes"), v);
}
