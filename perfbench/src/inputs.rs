//! Inputs made from the seed: the documents of each workload (written as
//! XML files by a child process, so that generating them stays out of the
//! measured process's peak resident set), the deep document, and the
//! serve workload's query pool.

use crate::util::{sub_seed, Rng};
use crate::Workload;
use std::path::Path;
use xwq_xml::{Document, TreeBuilder, NONE};

/// XMark factor of the `xmark-planned` document.
pub const PLANNED_FACTOR: f64 = 5.0;
/// XMark factor of the `xmark-automaton` document.
pub const AUTOMATON_FACTOR: f64 = 1.0;
/// `parlist/listitem` pairs of the deep document (about 4.5k levels).
pub const DEEP_PAIRS: usize = 2240;
/// XMark factors of the `serve-corpus` documents that reads fan out over.
pub const SERVE_FACTORS: [f64; 6] = [0.05, 0.1, 0.2, 0.2, 0.2, 0.5];
/// Documents of the serve corpus that writes replace, in turn, and reads
/// leave out (see README.md: a read that overlaps a replace of one of its
/// documents can pair node ids and paths of two versions).
pub const WRITE_DOCS: usize = 2;
/// XMark factor of the written documents: one size class, so that write
/// latency is measured on one size, large enough that parsing and indexing
/// outweigh the fsyncs of `Corpus::replace` (README.md).
pub const WRITE_FACTOR: f64 = 0.2;
/// Alternate versions of each written document that replaces install.
pub const SERVE_VERSIONS: usize = 2;
/// Distinct queries in the serve pool.
pub const POOL_SIZE: usize = 320;
/// Seed of the pool's fixed order.
const POOL_SHUFFLE_SEED: u64 = 0x5eed_9001;
/// Zipf exponent of the serve query draw: inside the 0.64-0.83 that
/// Breslau et al. (INFOCOM 1999) fit to web request traces.
pub const ZIPF_EXPONENT: f64 = 0.8;

#[derive(Clone, Copy)]
enum Shape {
    Xmark(f64),
    Deep(usize),
}

/// One generated document: its name in the store or corpus, and the file
/// its XML goes to.
pub struct DocSpec {
    pub name: String,
    shape: Shape,
    seed: u64,
}

impl DocSpec {
    pub fn file(&self) -> String {
        format!("{}.xml", self.name)
    }

    fn build(&self) -> Document {
        match self.shape {
            Shape::Xmark(factor) => xwq_xmark::generate(xwq_xmark::GenOptions {
                factor,
                seed: self.seed,
            }),
            Shape::Deep(pairs) => deep_document(pairs, self.seed),
        }
    }
}

fn spec(seed: u64, name: String, shape: Shape) -> DocSpec {
    DocSpec {
        seed: sub_seed(seed, &name),
        name,
        shape,
    }
}

/// The documents a workload starts from.
pub fn documents(w: Workload, seed: u64) -> Vec<DocSpec> {
    match w {
        Workload::Planned => vec![spec(seed, "xmark".into(), Shape::Xmark(PLANNED_FACTOR))],
        Workload::Automaton => vec![
            spec(seed, "xmark".into(), Shape::Xmark(AUTOMATON_FACTOR)),
            spec(seed, "deep".into(), Shape::Deep(DEEP_PAIRS)),
        ],
        Workload::Serve => {
            let read = SERVE_FACTORS
                .iter()
                .enumerate()
                .map(|(i, &f)| spec(seed, format!("doc{i}"), Shape::Xmark(f)));
            let written = (0..WRITE_DOCS).map(|i| serve_version(seed, i, 0));
            read.chain(written).collect()
        }
    }
}

/// Version `v` of written serve document `i`: 0 is the one set-up adds,
/// 1.. the ones replaces install.
pub fn serve_version(seed: u64, i: usize, v: usize) -> DocSpec {
    let name = match v {
        0 => format!("wdoc{i}"),
        _ => format!("wdoc{i}.v{v}"),
    };
    spec(seed, name, Shape::Xmark(WRITE_FACTOR))
}

/// Every file the workload reads, initial documents and versions.
fn all_specs(w: Workload, seed: u64) -> Vec<DocSpec> {
    let mut specs = documents(w, seed);
    if w == Workload::Serve {
        for i in 0..WRITE_DOCS {
            for v in 1..=SERVE_VERSIONS {
                specs.push(serve_version(seed, i, v));
            }
        }
    }
    specs
}

/// The child process's work: write every input file into `dir` and print
/// each document's node count, XML bytes and maximum depth to stderr.
pub fn generate_into(w: Workload, seed: u64, dir: &Path) -> std::io::Result<()> {
    for s in all_specs(w, seed) {
        let doc = s.build();
        let xml = doc.to_xml();
        std::fs::write(dir.join(s.file()), xml.as_bytes())?;
        eprintln!(
            "perfbench: input {:<10} nodes {:>8}  xml_bytes {:>9}  max_depth {:>5}",
            s.name,
            doc.len(),
            xml.len(),
            max_depth(&doc)
        );
    }
    Ok(())
}

/// Longest root-to-node path, counting the root as depth 1.
pub fn max_depth(doc: &Document) -> u32 {
    // Preorder ids: a parent always precedes its children.
    let mut depth = vec![0u32; doc.len()];
    let mut max = 0;
    for v in doc.nodes() {
        let p = doc.parent(v);
        let d = if p == NONE { 1 } else { depth[p as usize] + 1 };
        depth[v as usize] = d;
        max = max.max(d);
    }
    max
}

const WORDS: [&str; 8] = [
    "gold", "river", "storm", "quiet", "ember", "falcon", "copper", "meadow",
];

/// A deep, narrow document over XMark labels: one item and one person for
/// the `/site/...` queries, then a closed auction whose description nests
/// `parlist/listitem` `pairs` times. Each level carries a `text` with
/// keyword / emph / bold markup chosen by the seed; the depth is fixed.
fn deep_document(pairs: usize, seed: u64) -> Document {
    let mut rng = Rng::new(seed);
    let mut b = TreeBuilder::new();
    let words = |rng: &mut Rng| {
        (0..1 + rng.below(3))
            .map(|_| WORDS[rng.below(WORDS.len())])
            .collect::<Vec<_>>()
            .join(" ")
    };
    b.open("site");
    b.open("regions");
    b.open("europe");
    b.open("item");
    b.attribute("id", "item0");
    b.open("name");
    b.text(&words(&mut rng));
    b.close();
    b.open("mailbox");
    b.open("mail");
    b.open("date");
    b.text("01/01/2000");
    b.close();
    b.open("text");
    b.open("keyword");
    b.text(&words(&mut rng));
    b.close();
    b.close();
    b.close();
    b.close();
    b.close();
    b.close();
    b.close();
    b.open("people");
    b.open("person");
    b.attribute("id", "person0");
    b.open("address");
    b.open("city");
    b.text(&words(&mut rng));
    b.close();
    b.close();
    b.open("phone");
    b.text("+1 555 0100");
    b.close();
    b.close();
    b.close();
    b.open("closed_auctions");
    b.open("closed_auction");
    b.open("annotation");
    b.open("description");
    for _ in 0..pairs {
        b.open("parlist");
        b.open("listitem");
        b.open("text");
        b.text(&words(&mut rng));
        let roll = rng.unit();
        if roll < 0.5 {
            let tag = if roll < 0.3 { "keyword" } else { "bold" };
            b.open(tag);
            b.text(&words(&mut rng));
            if rng.unit() < 0.4 {
                b.open("emph");
                b.text(&words(&mut rng));
                b.close();
            }
            b.close();
        } else if roll < 0.7 {
            b.open("emph");
            b.text(&words(&mut rng));
            b.close();
        }
        b.close();
    }
    for _ in 0..pairs {
        b.close();
        b.close();
    }
    b.close();
    b.close();
    b.close();
    b.close();
    b.close();
    b.finish()
}

const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];
const ITEM_PREDS: [&str; 8] = [
    "mailbox/mail/date",
    "payment",
    "shipping",
    "incategory",
    "description//keyword",
    "description//emph",
    "mailbox/mail/text/keyword",
    "not(shipping)",
];
const ITEM_TAILS: [&str; 5] = [
    "name",
    "location",
    "payment",
    "quantity",
    "mailbox/mail/from",
];
const PERSON_PREDS: [&str; 6] = [
    "address and phone",
    "homepage",
    "creditcard",
    "address/city and emailaddress",
    "phone or homepage",
    "not(homepage)",
];
const PERSON_TAILS: [&str; 4] = ["name", "emailaddress", "address/city", "phone"];
const TEXT_WORDS: [&str; 12] = [
    "mountain", "river", "auction", "quality", "vintage", "gold", "silver", "rapid", "quiet",
    "storm", "harbor", "signal",
];
const MARKUP: [&str; 3] = ["keyword", "emph", "bold"];
const AUCTION_TAILS: [&str; 3] = ["price", "buyer", "seller"];

/// The serve workload's query pool: distinct, selective queries (tens to
/// hundreds of results per document) in a fixed shuffled order, the same
/// for every seed. A seed-dependent order would put queries of very
/// different cost on the top Zipf ranks from seed to seed; the seed picks
/// the documents and the draw sequence instead.
pub fn query_pool() -> Vec<String> {
    let mut all = Vec::new();
    for r in REGIONS {
        for p in ITEM_PREDS {
            for t in ITEM_TAILS {
                all.push(format!("/site/regions/{r}/item[{p}]/{t}"));
            }
        }
    }
    for p in PERSON_PREDS {
        for t in PERSON_TAILS {
            all.push(format!("/site/people/person[{p}]/{t}"));
        }
    }
    for w in TEXT_WORDS {
        for m in MARKUP {
            all.push(format!("//item[.//{m}[contains(text(), '{w}')]]/name"));
            for t in AUCTION_TAILS {
                all.push(format!(
                    "//closed_auction[annotation//{m}[contains(text(), '{w}')]]/{t}"
                ));
            }
        }
    }
    let mut rng = Rng::new(POOL_SHUFFLE_SEED);
    rng.shuffle(&mut all);
    all.truncate(POOL_SIZE);
    all
}

/// One round of draws from a Zipf law of exponent `s` over `n` ranks:
/// each rank appears in proportion to its weight (largest remainders
/// fill the round to exactly `len`), in rank order. Every round holds the
/// same operations, so runs do not differ in how many costly queries they
/// drew.
pub fn zipf_round(n: usize, s: f64, len: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (shares[a].fract(), shares[b].fract());
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let missing = len - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(missing) {
        counts[k] += 1;
    }
    counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
        .collect()
}
