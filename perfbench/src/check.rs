//! Expected answers made apart from the code under measurement: the
//! baseline evaluator on an array index built separately from the same
//! XML, and the benchmark's own positional-path function.

use crate::util::{hash_nodes, Fnv};
use xwq_index::{TopologyKind, TreeIndex};
use xwq_xml::{Document, NONE};

pub struct Oracle {
    doc: Document,
    ix: TreeIndex,
    /// 1-based position of each node among its same-named siblings.
    pos: Vec<u32>,
}

impl Oracle {
    pub fn new(xml: &[u8]) -> Self {
        let doc = xwq_xml::parse_bytes(xml).expect("generated XML parses");
        let ix = TreeIndex::build_with(&doc, TopologyKind::Array);
        let mut pos = vec![1u32; doc.len()];
        let mut seen = vec![0u32; doc.alphabet().names().count()];
        for p in doc.nodes() {
            let mut touched = Vec::new();
            for c in doc.children(p) {
                let l = doc.label(c) as usize;
                if seen[l] == 0 {
                    touched.push(l);
                }
                seen[l] += 1;
                pos[c as usize] = seen[l];
            }
            for l in touched {
                seen[l] = 0;
            }
        }
        Oracle { doc, ix, pos }
    }

    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The baseline evaluator's answer.
    pub fn answer(&self, query: &str) -> Vec<u32> {
        xwq_baseline::evaluate_query(&self.ix, query).expect("pool queries parse")
    }

    /// `/site[1]/regions[1]/item[3]`: 1-based positions among same-named
    /// siblings, root first.
    pub fn path(&self, v: u32) -> String {
        let mut parts = Vec::new();
        let mut cur = v;
        while cur != NONE {
            parts.push(format!(
                "{}[{}]",
                self.doc.name(cur),
                self.pos[cur as usize]
            ));
            cur = self.doc.parent(cur);
        }
        parts.reverse();
        format!("/{}", parts.join("/"))
    }

    /// Fingerprint of the rendered paths of `nodes`, in order.
    pub fn paths_hash(&self, nodes: &[u32]) -> u64 {
        let mut h = Fnv::new();
        for &v in nodes {
            h.bytes(self.path(v).as_bytes());
            h.bytes(b"\n");
        }
        h.finish()
    }
}

/// Expected outcome of one query on one document version.
#[derive(Clone, Copy)]
pub struct Expected {
    pub count: usize,
    pub nodes: u64,
    pub paths: u64,
}

impl Expected {
    pub fn of(oracle: &Oracle, query: &str) -> Self {
        let nodes = oracle.answer(query);
        Expected {
            count: nodes.len(),
            nodes: hash_nodes(&nodes),
            paths: oracle.paths_hash(&nodes),
        }
    }
}

/// Ascending and duplicate-free.
pub fn sorted_unique(nodes: &[u32]) -> bool {
    nodes.windows(2).all(|w| w[0] < w[1])
}

/// Structure-and-content fingerprint of a document: every node's name,
/// parent and text, in preorder.
pub fn fingerprint(doc: &Document) -> u64 {
    let mut h = Fnv::new();
    h.u32(doc.len() as u32);
    for v in doc.nodes() {
        h.bytes(doc.name(v).as_bytes());
        h.u32(doc.parent(v));
        if let Some(t) = doc.text(v) {
            h.bytes(t.as_bytes());
        }
    }
    h.finish()
}
