//! Keyword matching against schema elements and data values (Section 2.2).
//!
//! Q matches each query keyword against relation names, attribute names and
//! pre-indexed data values using a keyword similarity metric — tf-idf by
//! default in the paper, with edit-distance / n-grams as alternatives. The
//! [`KeywordIndex`] here scores candidates with a combination of
//! idf-weighted token cosine similarity and character-trigram Dice
//! similarity, which behaves like the paper's default for the bioinformatics
//! vocabularies used in the evaluation.
//!
//! # Columnar layout
//!
//! The index stores its documents *columnar*: one shared text blob with
//! per-document end offsets, a canonical token dictionary with flat
//! per-document token-id runs, and one distinct-trigram count per document.
//! Text is normalised, tokenised and cut into packed trigram keys by
//! [`q_storage::text`]. Postings are flat arrays sliced by end offsets.
//!
//! A document's trigrams are kept once, in the trigram postings. A lookup
//! reads only a document's trigram *count* (its half of the Dice
//! denominator); the document's own run is extracted once when it is
//! appended and handed to the merge in a buffer local to that
//! [`KeywordIndex::build`] or [`KeywordIndex::add_relation`] call, so no
//! published index carries the (document, trigram) pairs twice. Two
//! properties follow from the layout:
//!
//! * a persistent snapshot can reconstruct a serving index from the raw
//!   columns with a handful of bulk copies ([`KeywordIndex::from_parts`])
//!   instead of millions of per-document string/hash-set allocations, and
//! * the whole index is deterministic by construction — postings are built
//!   in ascending document order, the dictionary is canonically sorted, and
//!   no per-document hash iteration order can leak into scores.
//!
//! A lookup is one term-at-a-time pass over the postings into per-document
//! accumulators, followed by one pass over the touched documents that keeps
//! the best `max_matches` in a bounded heap. The first pass walks every
//! query token's list but only the shortest of the keyword's trigram lists:
//! a document sharing no token reaches the floor only by sharing some least
//! number of trigrams, so it is on one of the walked lists (prefix
//! filtering, Chaudhuri, Ganti & Kaushik), and the other lists are probed
//! one document at a time. A document whose similarity cannot reach the
//! heap's current worst entry is skipped — on its accumulators alone, then
//! on its columns, before the probes and before its text is read — the
//! cut-off of threshold top-k retrieval (Fagin, Lotem & Naor; Turtle &
//! Flood's MaxScore), so only the survivors are ordered. A lookup
//! scoped to some relations walks only their documents: canonical order
//! keeps each relation's schema documents and its value documents in two
//! contiguous runs, and every posting list is ascending, so the part of a
//! list inside a run is found by binary search. `tests/keyword_oracle.rs`
//! checks both against a scan of every document.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::ops::Range;

use serde::{Deserialize, Serialize};

use q_storage::text::{distinct_trigrams, normalize, packed_trigrams, tokenize};
use q_storage::{Attribute, AttributeId, Catalog, Relation, RelationId, Value};

/// What a keyword matched.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchTarget {
    /// A relation name.
    Relation(RelationId),
    /// An attribute name.
    Attribute(AttributeId),
    /// A data value of an attribute.
    Value {
        /// Attribute the value belongs to.
        attribute: AttributeId,
        /// Normalised value text.
        value: String,
    },
}

/// One keyword match with its similarity score in `(0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeywordMatch {
    /// The matched schema element or value.
    pub target: MatchTarget,
    /// Similarity score; the query-graph mismatch cost is `1 - similarity`.
    pub similarity: f64,
}

/// Tunable matching knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatchConfig {
    /// Minimum similarity for a match to be reported.
    pub min_similarity: f64,
    /// Maximum number of matches returned per keyword.
    pub max_matches: usize,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            min_similarity: 0.35,
            max_matches: 16,
        }
    }
}

/// Packed-target discriminants of the columnar document store. A `Value`
/// target stores only its attribute id — its value text *is* the document
/// text (both construction sites index a value under its own normalised
/// text), so materialisation reads it back from the text blob.
const TARGET_RELATION: u8 = 0;
const TARGET_ATTRIBUTE: u8 = 1;
const TARGET_VALUE: u8 = 2;

/// One document's accumulators (16 bytes), live only while `stamp` is the
/// current lookup's generation.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    stamp: u32,
    /// Query trigrams the document contains (the Dice numerator).
    common: u32,
    /// idf-weighted token dot product, in query-token order.
    dot: f64,
}

/// Per-thread, generation-stamped accumulators of one keyword lookup:
/// starting the next lookup is O(1), and nothing index-sized is cleared or
/// allocated per call.
#[derive(Debug, Default)]
struct Accumulators {
    generation: u32,
    slots: Vec<Slot>,
    /// Documents the current lookup touched, in first-touch order.
    touched: Vec<u32>,
}

impl Accumulators {
    fn begin(&mut self, docs: usize) {
        self.slots
            .resize(self.slots.len().max(docs), Slot::default());
        self.touched.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.slots.fill(Slot::default());
            self.generation = 1;
        }
    }

    #[inline]
    fn touch(&mut self, doc: u32) -> &mut Slot {
        let slot = &mut self.slots[doc as usize];
        if slot.stamp != self.generation {
            *slot = Slot::default();
            slot.stamp = self.generation;
            self.touched.push(doc);
        }
        slot
    }
}

/// What [`KeywordIndex::finalize`] needs of the documents appended since
/// the last finalize beyond the index's own columns. It lives only inside
/// one [`KeywordIndex::build`] or [`KeywordIndex::add_relation`] call, so no
/// index or snapshot carries it.
#[derive(Debug, Default)]
struct Appended {
    /// Provisional ids of the token names new to the dictionary.
    fresh: HashMap<String, u32>,
    /// The appended documents' sorted distinct packed trigram runs, flat in
    /// append order; each run is as long as its document's
    /// `trigram_counts` entry.
    trigrams: Vec<u64>,
}

thread_local! {
    static ACCUMULATORS: RefCell<Accumulators> = RefCell::new(Accumulators::default());
}

/// Owned columnar contents of a [`KeywordIndex`]: the exact field set a
/// persistent snapshot stores. [`KeywordIndex::from_parts`] reconstructs a
/// serving index from these without re-running tokenisation, trigram
/// extraction or finalisation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeywordIndexParts {
    /// Per-document target discriminant (relation / attribute / value).
    pub target_kinds: Vec<u8>,
    /// Per-document target id (relation id or attribute id).
    pub target_ids: Vec<u32>,
    /// All normalised document texts, concatenated.
    pub text_blob: String,
    /// Per-document end offset into `text_blob`.
    pub text_ends: Vec<u32>,
    /// Flat per-document token-id runs (occurrence order, duplicates kept).
    pub token_ids: Vec<u32>,
    /// Per-document end offset into `token_ids`.
    pub token_ends: Vec<u32>,
    /// Per-document number of distinct packed trigrams (the document's
    /// half of the Dice denominator).
    pub trigram_counts: Vec<u32>,
    /// Canonical (sorted) token dictionary.
    pub token_names: Vec<String>,
    /// Flat token postings: ascending document indices per token id.
    pub token_postings: Vec<u32>,
    /// Per-token end offset into `token_postings`.
    pub token_posting_ends: Vec<u32>,
    /// Sorted distinct packed trigram keys.
    pub trigram_keys: Vec<u64>,
    /// Flat trigram postings: ascending document indices per key.
    pub trigram_postings: Vec<u32>,
    /// Per-key end offset into `trigram_postings`.
    pub trigram_posting_ends: Vec<u32>,
    /// Inverse document frequency per token id.
    pub idf: Vec<f64>,
    /// Per-document idf-weighted squared token norm.
    pub doc_norm_sq: Vec<f64>,
}

/// Borrowed view of the same columns — what a snapshot writer reads, and
/// what the convergence tests compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeywordIndexView<'a> {
    /// See [`KeywordIndexParts::target_kinds`].
    pub target_kinds: &'a [u8],
    /// See [`KeywordIndexParts::target_ids`].
    pub target_ids: &'a [u32],
    /// See [`KeywordIndexParts::text_blob`].
    pub text_blob: &'a str,
    /// See [`KeywordIndexParts::text_ends`].
    pub text_ends: &'a [u32],
    /// See [`KeywordIndexParts::token_ids`].
    pub token_ids: &'a [u32],
    /// See [`KeywordIndexParts::token_ends`].
    pub token_ends: &'a [u32],
    /// See [`KeywordIndexParts::trigram_counts`].
    pub trigram_counts: &'a [u32],
    /// See [`KeywordIndexParts::token_names`].
    pub token_names: &'a [String],
    /// See [`KeywordIndexParts::token_postings`].
    pub token_postings: &'a [u32],
    /// See [`KeywordIndexParts::token_posting_ends`].
    pub token_posting_ends: &'a [u32],
    /// See [`KeywordIndexParts::trigram_keys`].
    pub trigram_keys: &'a [u64],
    /// See [`KeywordIndexParts::trigram_postings`].
    pub trigram_postings: &'a [u32],
    /// See [`KeywordIndexParts::trigram_posting_ends`].
    pub trigram_posting_ends: &'a [u32],
    /// See [`KeywordIndexParts::idf`].
    pub idf: &'a [f64],
    /// See [`KeywordIndexParts::doc_norm_sq`].
    pub doc_norm_sq: &'a [f64],
}

/// tf-idf / trigram index over schema elements and data values.
///
/// An index is finalized at rest — [`KeywordIndex::build`],
/// [`KeywordIndex::add_relation`] and [`KeywordIndex::from_parts`] are its
/// only producers — and its fields are the persistent columns of
/// [`KeywordIndexParts`] plus one running total derived from them (the byte
/// estimate), so a clone (and with it every published snapshot) carries
/// nothing the snapshot file does not.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KeywordIndex {
    // Persistent columnar state — see [`KeywordIndexParts`] for field docs.
    target_kinds: Vec<u8>,
    target_ids: Vec<u32>,
    text_blob: String,
    text_ends: Vec<u32>,
    token_ids: Vec<u32>,
    token_ends: Vec<u32>,
    trigram_counts: Vec<u32>,
    token_names: Vec<String>,
    token_postings: Vec<u32>,
    token_posting_ends: Vec<u32>,
    trigram_keys: Vec<u64>,
    trigram_postings: Vec<u32>,
    trigram_posting_ends: Vec<u32>,
    idf: Vec<f64>,
    doc_norm_sq: Vec<f64>,
    // Sum of `doc_byte_estimate` over every document, kept as documents are
    // added so that reading it does not walk the corpus.
    byte_estimate: u64,
}

/// Half-open range `doc`'s run occupies in a flat column with end offsets.
#[inline]
fn run(ends: &[u32], idx: usize) -> (usize, usize) {
    let start = if idx == 0 { 0 } else { ends[idx - 1] as usize };
    (start, ends[idx] as usize)
}

impl KeywordIndex {
    /// Index every relation name, attribute name and distinct textual data
    /// value in the catalog.
    pub fn build(catalog: &Catalog) -> Self {
        let mut idx = KeywordIndex::default();
        let mut appended = Appended::default();
        for rel in catalog.relations() {
            idx.add_document(&mut appended, TARGET_RELATION, rel.id.0, &rel.name);
            for attr_id in &rel.attributes {
                if let Some(attr) = catalog.attribute(*attr_id) {
                    idx.add_document(&mut appended, TARGET_ATTRIBUTE, attr.id.0, &attr.name);
                }
            }
        }
        for rel in catalog.relations() {
            for attr_id in &rel.attributes {
                let attr = catalog.attribute(*attr_id).expect("attribute exists");
                idx.add_values(&mut appended, rel, attr);
            }
        }
        idx.finalize(catalog, &appended.trigrams);
        idx
    }

    /// Add the schema elements and values of one relation to an existing
    /// index (used when a new source is registered). A relation that is
    /// not in the catalog, or is already indexed, leaves the index as it is.
    pub fn add_relation(&mut self, catalog: &Catalog, relation: RelationId) {
        let Some(rel) = catalog.relation(relation) else {
            return;
        };
        let key = (0, rel.id.0, 0);
        let at = self.partition_point(catalog, 0..self.len(), |k| k <= key);
        if at > 0 && self.canonical_key_of(catalog, at - 1) == key {
            return;
        }
        let mut appended = Appended::default();
        self.add_document(&mut appended, TARGET_RELATION, rel.id.0, &rel.name);
        for attr_id in &rel.attributes {
            if let Some(attr) = catalog.attribute(*attr_id) {
                self.add_document(&mut appended, TARGET_ATTRIBUTE, attr.id.0, &attr.name);
                self.add_values(&mut appended, rel, attr);
            }
        }
        self.finalize(catalog, &appended.trigrams);
    }

    /// Index the distinct textual values of one attribute, in row order.
    fn add_values(&mut self, appended: &mut Appended, rel: &Relation, attr: &Attribute) {
        let mut seen = HashSet::new();
        for tuple in &rel.tuples {
            if let Some(value @ Value::Text(_)) = tuple.get(attr.position) {
                if let Some(norm) = value.normalized() {
                    if !seen.contains(&norm) {
                        self.add_document(appended, TARGET_VALUE, attr.id.0, &norm);
                        seen.insert(norm);
                    }
                }
            }
        }
    }

    /// Reconstruct a finalized serving index from persisted columns. The
    /// caller (the snapshot layer) is responsible for the columns being a
    /// faithful copy of a previously finalized index; internal consistency
    /// of the offsets is checked in debug builds.
    pub fn from_parts(parts: KeywordIndexParts) -> Self {
        let mut idx = KeywordIndex {
            target_kinds: parts.target_kinds,
            target_ids: parts.target_ids,
            text_blob: parts.text_blob,
            text_ends: parts.text_ends,
            token_ids: parts.token_ids,
            token_ends: parts.token_ends,
            trigram_counts: parts.trigram_counts,
            token_names: parts.token_names,
            token_postings: parts.token_postings,
            token_posting_ends: parts.token_posting_ends,
            trigram_keys: parts.trigram_keys,
            trigram_postings: parts.trigram_postings,
            trigram_posting_ends: parts.trigram_posting_ends,
            idf: parts.idf,
            doc_norm_sq: parts.doc_norm_sq,
            byte_estimate: 0,
        };
        debug_assert_eq!(idx.text_ends.len(), idx.len());
        debug_assert_eq!(idx.token_ends.len(), idx.len());
        debug_assert_eq!(idx.trigram_counts.len(), idx.len());
        debug_assert_eq!(
            idx.trigram_counts
                .iter()
                .map(|&c| c as usize)
                .sum::<usize>(),
            idx.trigram_postings.len()
        );
        debug_assert_eq!(idx.doc_norm_sq.len(), idx.len());
        debug_assert_eq!(idx.idf.len(), idx.token_names.len());
        debug_assert_eq!(idx.token_posting_ends.len(), idx.token_names.len());
        debug_assert_eq!(idx.trigram_posting_ends.len(), idx.trigram_keys.len());
        idx.byte_estimate = (0..idx.len()).map(|doc| idx.doc_byte_estimate(doc)).sum();
        idx
    }

    /// Borrowed view of the persistent columns (what a snapshot persists).
    pub fn view(&self) -> KeywordIndexView<'_> {
        KeywordIndexView {
            target_kinds: &self.target_kinds,
            target_ids: &self.target_ids,
            text_blob: &self.text_blob,
            text_ends: &self.text_ends,
            token_ids: &self.token_ids,
            token_ends: &self.token_ends,
            trigram_counts: &self.trigram_counts,
            token_names: &self.token_names,
            token_postings: &self.token_postings,
            token_posting_ends: &self.token_posting_ends,
            trigram_keys: &self.trigram_keys,
            trigram_postings: &self.trigram_postings,
            trigram_posting_ends: &self.trigram_posting_ends,
            idf: &self.idf,
            doc_norm_sq: &self.doc_norm_sq,
        }
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.target_kinds.len()
    }

    /// True if nothing has been indexed.
    pub fn is_empty(&self) -> bool {
        self.target_kinds.is_empty()
    }

    /// Normalised text of one document.
    fn doc_text(&self, idx: usize) -> &str {
        let (start, end) = run(&self.text_ends, idx);
        &self.text_blob[start..end]
    }

    /// Token-id occurrences of one document (duplicates kept).
    fn doc_token_ids(&self, idx: usize) -> &[u32] {
        let (start, end) = run(&self.token_ends, idx);
        &self.token_ids[start..end]
    }

    /// Posting list (ascending document indices) of one token id.
    fn token_posting_list(&self, token: u32) -> &[u32] {
        let (start, end) = run(&self.token_posting_ends, token as usize);
        &self.token_postings[start..end]
    }

    /// Posting list of the trigram key at `pos` in `trigram_keys`.
    fn trigram_posting_list(&self, pos: usize) -> &[u32] {
        let (start, end) = run(&self.trigram_posting_ends, pos);
        &self.trigram_postings[start..end]
    }

    /// Dictionary id of a token (binary search over the canonical sorted
    /// dictionary; only valid on a finalized index, which is the only kind
    /// the query paths ever see).
    fn token_id(&self, name: &str) -> Option<u32> {
        self.token_names
            .binary_search_by(|t| t.as_str().cmp(name))
            .ok()
            .map(|i| i as u32)
    }

    /// Materialise the [`MatchTarget`] of one document.
    fn target(&self, idx: usize) -> MatchTarget {
        let id = self.target_ids[idx];
        match self.target_kinds[idx] {
            TARGET_RELATION => MatchTarget::Relation(RelationId(id)),
            TARGET_ATTRIBUTE => MatchTarget::Attribute(AttributeId(id)),
            _ => MatchTarget::Value {
                attribute: AttributeId(id),
                value: self.doc_text(idx).to_string(),
            },
        }
    }

    /// Deterministic estimate of the postings footprint: the sum of the
    /// per-document estimate below over every document, kept as each
    /// document is added (or summed once by [`KeywordIndex::from_parts`]).
    pub fn postings_byte_estimate(&self) -> u64 {
        self.byte_estimate
    }

    /// Deterministic estimate of one document's postings footprint:
    /// normalised text, token strings + posting entries, trigram strings +
    /// posting entries, and the fixed per-document state. An estimate — not
    /// an allocator measurement — but stable across builds, which is what
    /// the accounting tests and `/metrics` gauges need.
    fn doc_byte_estimate(&self, idx: usize) -> u64 {
        let tokens: usize = self
            .doc_token_ids(idx)
            .iter()
            .map(|&t| self.token_names[t as usize].len() + 8)
            .sum();
        let trigrams = self.trigram_counts[idx] as usize * (3 + 8);
        (self.doc_text(idx).len() + tokens + trigrams + 24) as u64
    }

    /// Match one keyword (which may be a multi-word phrase) against the
    /// index, returning at most `max_matches` matches at or above
    /// `min_similarity`, ranked by (similarity desc, document asc).
    ///
    /// A document's similarity is `1.0` when its normalised text equals
    /// the keyword's, else `min(0.999, max(cos, dice, containment))`: the
    /// idf-weighted token cosine, the Dice coefficient of the padded
    /// character-trigram sets, and `0.9·short/long` (byte lengths) when
    /// either text contains the other (e.g. "pub" in "interpro_pub").
    ///
    /// **Candidate contract.** Only documents sharing at least one token or
    /// one padded trigram with the keyword are scored. Containment alone
    /// never makes a candidate, so a 2-character keyword strictly inside a
    /// 4–5 character text is not returned even though containment would
    /// rate it above the default floor: `"at"` never matches `"cats"`.
    ///
    /// Only the survivors of the cut get their [`MatchTarget`]
    /// materialised (a `String` for every value target).
    pub fn matches(&self, keyword: &str, config: &MatchConfig) -> Vec<KeywordMatch> {
        let all = 0..self.len() as u32;
        let runs = std::slice::from_ref(&all);
        self.scored(keyword, config.min_similarity, runs, config.max_matches)
            .into_iter()
            .map(|(idx, similarity)| KeywordMatch {
                target: self.target(idx),
                similarity,
            })
            .collect()
    }

    /// The best `k` `(document, similarity)` pairs among the documents in
    /// `runs` (ascending, disjoint document ranges) that reach `floor`,
    /// ranked by (similarity desc, document asc).
    ///
    /// **Prefix filter.** A document that shares no query token scores by
    /// Dice, containment or equality alone, so it reaches a similarity `θ`
    /// only if it shares at least [`Reach::cmin`]`(θ)` of the keyword's
    /// `|Q|` distinct padded trigrams. By pigeonhole, every such document at
    /// the floor is on one of any `|Q| − cmin(floor) + 1` trigram lists. So
    /// one pass walks, into the per-thread [`Accumulators`], the part inside
    /// `runs` of those lists — the shortest inside `runs`, shortest first
    /// (a trigram the index lacks is an empty list) — adding 1 to `common`,
    /// and then every query token's list in query-token order, adding
    /// `idf²` to `dot` (so every document sums the same terms in the same
    /// order as a walk over its own tokens, whatever `runs` is). The other
    /// `s` trigram lists are *probed*: searched for one document at a time.
    /// Walking the rare lists first fills the heap with strong candidates
    /// early, which raises the cut.
    ///
    /// **Bounds.** Each touched document, in first-touch order, starts
    /// with the `s` probed lists open, so it shares at most `common + s`
    /// query trigrams; the cut is the floor, or the worst held similarity
    /// once `k` are held. It is skipped before any per-document column is
    /// read when `sqrt(dot·mult)/|q|` is below the cut, where `mult` is the
    /// largest multiplicity of a query token (a repeated token adds to `dot`
    /// once per occurrence, so `doc_norm_sq ≥ dot/mult`), and `common + s`
    /// is below `cmin(cut)` (Dice is one of `cmin`'s routes, so it cannot
    /// reach the cut either). Otherwise its columns and byte length give an
    /// upper bound that grows with the shared count: `1.0` when equality is
    /// possible (equal lengths, every trigram shared), else
    /// `min(0.999, max(cos, dice, c))`, where `c` is what containment could
    /// give, `0.9·short/long`, or `0` when the shared trigrams rule
    /// containment out (the shorter text's unpadded trigrams would all be
    /// shared, and a document has at most four padded ones). The probed
    /// lists are searched, rarest first, only while both bounds reach the
    /// cut: a miss that brings either below it drops the document. A
    /// survivor has its exact `common` and its exact bound. Every bound is
    /// strict: a document whose bound is below the cut cannot enter, and an
    /// equal bound is scored, since a tie with a lower document id still
    /// enters. A scored candidate's text is read for equality, and searched
    /// for containment only when containment would beat both cosine and
    /// Dice and reach the floor.
    fn scored(
        &self,
        keyword: &str,
        floor: f64,
        runs: &[Range<u32>],
        k: usize,
    ) -> Vec<(usize, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let norm = normalize(keyword);
        let grams = packed_trigrams(&norm);
        let inner = distinct_trigrams(&norm).len();
        let reach = Reach::new(&norm, grams.len(), inner);
        let token_ids: Vec<Option<u32>> =
            tokenize(keyword).iter().map(|t| self.token_id(t)).collect();
        let idf = |id: Option<u32>| id.map_or(1.0, |i| self.idf[i as usize]);
        let norm_sq: f64 = token_ids.iter().map(|&id| idf(id) * idf(id)).sum();
        // The most times one query token occurs: it adds its `idf²` to a
        // document's `dot` that many times.
        let mult = {
            let mut ids = token_ids.clone();
            ids.sort_unstable();
            ids.chunk_by(|a, b| a == b)
                .map(<[_]>::len)
                .max()
                .unwrap_or(0)
        };
        // The query trigrams the index holds, as (length inside `runs`,
        // list position), shortest first; the `s` longest are probed.
        let mut lists: Vec<(usize, usize)> = grams
            .iter()
            .filter_map(|g| self.trigram_keys.binary_search(g).ok())
            .map(|pos| {
                let list = self.trigram_posting_list(pos);
                (runs.iter().map(|docs| within(list, docs).len()).sum(), pos)
            })
            .collect();
        lists.sort_unstable();
        let (walked, probed) = lists.split_at(lists.len().saturating_sub(reach.cmin(floor) - 1));
        ACCUMULATORS.with(|acc| {
            let acc = &mut *acc.borrow_mut();
            acc.begin(self.len());
            for &(_, pos) in walked {
                for docs in runs {
                    for &doc in within(self.trigram_posting_list(pos), docs) {
                        acc.touch(doc).common += 1;
                    }
                }
            }
            // An out-of-vocabulary query token occurs in no document.
            for &id in token_ids.iter().flatten() {
                let w = self.idf[id as usize];
                for docs in runs {
                    for &doc in within(self.token_posting_list(id), docs) {
                        acc.touch(doc).dot += w * w;
                    }
                }
            }
            let mut probes: Vec<Probe> = probed
                .iter()
                .map(|&(_, pos)| Probe {
                    list: self.trigram_posting_list(pos),
                    at: 0,
                })
                .collect();
            let mut top = BinaryHeap::with_capacity(k.min(acc.touched.len()));
            let mut cut = floor;
            let mut need = reach.cmin(cut);
            'docs: for doc in acc.touched.iter().map(|&d| d as usize) {
                let Slot { dot, common, .. } = acc.slots[doc];
                let mut common = common as usize;
                // `doc_norm_sq ≥ dot/mult`, so `cos ≤ sqrt(dot·mult)/|q|`.
                let cos_bound = if dot > 0.0 {
                    (dot * mult as f64).sqrt() / norm_sq.sqrt() * COS_SLACK
                } else {
                    0.0
                };
                let cos_short = cos_bound < cut;
                let mut open = probes.len();
                if cos_short && common + open < need {
                    continue;
                }
                let dn = self.doc_norm_sq[doc];
                let cos = (norm_sq > 0.0 && dn > 0.0).then(|| dot / (norm_sq.sqrt() * dn.sqrt()));
                // Both trigram sets hold at least the padding trigram.
                let doc_grams = self.trigram_counts[doc] as usize;
                let (start, end) = run(&self.text_ends, doc);
                let len = end - start;
                // (best of cosine and Dice, containment bound, upper bound)
                // for a document sharing `common` query trigrams; all three
                // grow with `common`.
                let bounds = |common: usize| {
                    let best = cos
                        .unwrap_or(0.0)
                        .max(dice(common, grams.len() + doc_grams));
                    // Containment needs every unpadded trigram of the
                    // shorter text in common: the keyword's `inner` ones, or
                    // all but the at most four padded ones of the
                    // document's. Equality needs every trigram.
                    let containable = (len >= norm.len() && common >= inner)
                        || (len <= norm.len() && common + 4 >= doc_grams);
                    let bound = if containable {
                        containment(norm.len().min(len), norm.len().max(len))
                    } else {
                        0.0
                    };
                    let upper = if len == norm.len() && common >= grams.len() {
                        1.0
                    } else {
                        best.max(bound).min(0.999)
                    };
                    (best, bound, upper)
                };
                if bounds(common + open).2 < cut {
                    continue;
                }
                for probe in &mut probes {
                    open -= 1;
                    if probe.holds(doc as u32) {
                        common += 1;
                    } else if (cos_short && common + open < need) || bounds(common + open).2 < cut {
                        continue 'docs;
                    }
                }
                // A hit leaves `common + open` as it was, so the bound still
                // reaches the cut.
                let (best, bound, _) = bounds(common);
                let text = &self.text_blob[start..end];
                let similarity = if text == norm {
                    1.0
                } else if bound > best
                    && bound.min(0.999) >= floor
                    && (text.contains(norm.as_str()) || norm.contains(text))
                {
                    bound.min(0.999)
                } else {
                    best.min(0.999)
                };
                if similarity < floor {
                    continue;
                }
                let candidate = Ranked { similarity, doc };
                if top.len() < k {
                    top.push(candidate);
                } else if let Some(mut worst) = top.peek_mut() {
                    if candidate < *worst {
                        *worst = candidate;
                    }
                }
                if top.len() == k {
                    let worst = top.peek().map_or(cut, |worst| worst.similarity);
                    if worst != cut {
                        (cut, need) = (worst, reach.cmin(worst));
                    }
                }
            }
            top.into_sorted_vec()
                .into_iter()
                .map(|r| (r.doc, r.similarity))
                .collect()
        })
    }

    /// Append one unfinalized document. A token of the finalized
    /// dictionary keeps its id; a new one gets the next provisional id past
    /// it, remembered in `appended.fresh` until [`KeywordIndex::finalize`]
    /// merges the new names in. The document's trigrams are extracted here,
    /// once: the index keeps their count, and `appended.trigrams` keeps the
    /// run itself for `finalize` to post.
    fn add_document(&mut self, appended: &mut Appended, kind: u8, id: u32, text: &str) {
        let norm = normalize(text);
        // The packed layout stores a value target as its attribute id only;
        // the value text is recovered from the document text, so the two
        // must agree.
        debug_assert!(
            kind != TARGET_VALUE || norm == text,
            "value target must be indexed under its own text"
        );
        self.target_kinds.push(kind);
        self.target_ids.push(id);
        self.text_blob.push_str(&norm);
        self.text_ends.push(self.text_blob.len() as u32);
        let finalized = self.idf.len();
        for tok in tokenize(&norm) {
            let id = match self.token_names[..finalized].binary_search(&tok) {
                Ok(id) => id as u32,
                Err(_) => {
                    let next = self.token_names.len() as u32;
                    *appended.fresh.entry(tok).or_insert_with_key(|tok| {
                        self.token_names.push(tok.clone());
                        next
                    })
                }
            };
            self.token_ids.push(id);
        }
        self.token_ends.push(self.token_ids.len() as u32);
        let grams = packed_trigrams(&norm);
        self.trigram_counts.push(grams.len() as u32);
        appended.trigrams.extend(grams);
        self.byte_estimate += self.doc_byte_estimate(self.len() - 1);
    }

    /// True when the keyword would match (at or above the configured
    /// similarity floor) any indexed document belonging to one of the given
    /// relations. The live-ingestion cache survival rule uses this to decide
    /// whether a newly incorporated source could add keyword matches — and
    /// with them new Steiner terminals — to a cached query. The rule is only
    /// sound because this scores the very candidates and similarities a
    /// fresh [`KeywordIndex::matches`] call would: both run the same pass,
    /// this one over the relations' canonical runs only, so it costs what
    /// the relations hold, not what the index holds.
    pub fn keyword_matches_in(
        &self,
        keyword: &str,
        catalog: &Catalog,
        relations: &[RelationId],
        config: &MatchConfig,
    ) -> bool {
        let mut runs: Vec<Range<u32>> = relations
            .iter()
            .flat_map(|&rel| [0, 1].map(|section| self.relation_run(catalog, section, rel)))
            .filter(|docs| !docs.is_empty())
            .collect();
        runs.sort_unstable_by_key(|docs| docs.start);
        runs.dedup();
        !self
            .scored(keyword, config.min_similarity, &runs, 1)
            .is_empty()
    }

    /// The documents of `relation` in one section of the canonical order
    /// (`0`: its name and attribute names, `1`: its values): a contiguous
    /// run, empty when the relation has none there or is not indexed.
    fn relation_run(&self, catalog: &Catalog, section: u8, relation: RelationId) -> Range<u32> {
        let prefix = (section, relation.0);
        let start = self.partition_point(catalog, 0..self.len(), |key| (key.0, key.1) < prefix);
        let end = self.partition_point(catalog, start..self.len(), |key| (key.0, key.1) <= prefix);
        start as u32..end as u32
    }

    /// Canonical document order: schema documents (relation name, then its
    /// attribute names in positional order) grouped by relation id, followed
    /// by value documents grouped the same way (an attribute's distinct
    /// values in row order). A batch [`KeywordIndex::build`] emits documents
    /// in exactly this order, and [`KeywordIndex::finalize`] merges appended
    /// documents into it, so an index grown by
    /// [`KeywordIndex::add_relation`] is byte-identical to the batch index —
    /// the golden-answer ingestion test relies on it. The catalog only
    /// grows, so a document's key never changes once it is indexed.
    fn canonical_key_of(&self, catalog: &Catalog, idx: usize) -> (u8, u32, u32) {
        let id = self.target_ids[idx];
        match self.target_kinds[idx] {
            TARGET_RELATION => (0, id, 0),
            TARGET_ATTRIBUTE => match catalog.attribute(AttributeId(id)) {
                Some(attr) => (0, attr.relation.0, attr.position as u32 + 1),
                None => (2, id, 0),
            },
            _ => match catalog.attribute(AttributeId(id)) {
                Some(attr) => (1, attr.relation.0, attr.position as u32 + 1),
                None => (2, id, u32::MAX),
            },
        }
    }

    /// The first document in the canonically ordered range `docs` whose key
    /// fails `below` (which must hold for a prefix of the range).
    fn partition_point(
        &self,
        catalog: &Catalog,
        docs: Range<usize>,
        below: impl Fn((u8, u32, u32)) -> bool,
    ) -> usize {
        let (mut lo, mut hi) = (docs.start, docs.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if below(self.canonical_key_of(catalog, mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Merge the documents appended since the last finalize, `[base, n)`,
    /// into the finalized prefix `[0, base)`; [`KeywordIndex::build`] is the
    /// same merge with `base = 0`. `trigrams` holds the delta's trigram
    /// runs in append order ([`Appended::trigrams`]). Only the delta's
    /// documents are sorted or tokenised: the prefix is copied in runs and
    /// its postings are merged, not rebuilt.
    fn finalize(&mut self, catalog: &Catalog, trigrams: &[u64]) {
        let (base, n) = (self.doc_norm_sq.len(), self.len());
        let base_tokens = self.idf.len();
        // Where each delta document's run starts in `trigrams`, read before
        // step 1 moves the counts.
        let mut trigram_starts = Vec::with_capacity(n - base + 1);
        trigram_starts.push(0);
        for &count in &self.trigram_counts[base..] {
            trigram_starts.push(trigram_starts[trigram_starts.len() - 1] + count as usize);
        }
        debug_assert_eq!(trigram_starts[n - base], trigrams.len());
        // 1. Canonical document order. The delta is stably sorted, and each
        //    delta document goes after every old document whose key is not
        //    greater: ties old-first, exactly the order a stable sort of
        //    [old…, delta…] gives. `at[k]` old documents precede the k-th.
        let mut delta: Vec<((u8, u32, u32), usize)> = (base..n)
            .map(|d| (self.canonical_key_of(catalog, d), d))
            .collect();
        delta.sort_by_key(|&(key, _)| key);
        let mut at: Vec<usize> = Vec::with_capacity(delta.len());
        for &(key, _) in &delta {
            let from = at.last().copied().unwrap_or(0);
            at.push(self.partition_point(catalog, from..base, |k| k <= key));
        }
        let new_of_delta: Vec<u32> = at.iter().zip(0..).map(|(&a, k)| (a + k) as u32).collect();
        let new_of_old: Vec<u32> = (0..base)
            .map(|old| (old + at.partition_point(|&a| a <= old)) as u32)
            .collect();
        if at.first().is_some_and(|&a| a < base) || !delta.is_sorted_by_key(|&(_, d)| d) {
            let (mut runs, mut from) = (Vec::with_capacity(2 * delta.len() + 1), 0);
            for (&(_, d), &a) in delta.iter().zip(&at) {
                runs.extend([from..a, d..d + 1]);
                from = a;
            }
            runs.push(from..base);
            self.target_kinds = gather(&self.target_kinds, &runs);
            self.target_ids = gather(&self.target_ids, &runs);
            self.trigram_counts = gather(&self.trigram_counts, &runs);
            let mut text = std::mem::take(&mut self.text_blob).into_bytes();
            reorder(&mut text, &mut self.text_ends, &runs);
            self.text_blob = String::from_utf8(text).expect("documents split at char boundaries");
            reorder(&mut self.token_ids, &mut self.token_ends, &runs);
        }
        // 2. Canonical token dictionary: the new names sorted and merged into
        //    the sorted old ones. The id remap is monotone on the old ids, and
        //    document token runs change only when a new name arrived.
        let mut fresh: Vec<(String, u32)> = self
            .token_names
            .drain(base_tokens..)
            .zip(base_tokens as u32..)
            .collect();
        fresh.sort_unstable();
        let mut remap = vec![0u32; base_tokens + fresh.len()];
        let names = std::mem::take(&mut self.token_names);
        let mut old = names.into_iter().zip(0..).peekable();
        let mut fresh = fresh.into_iter().peekable();
        while let Some((name, id)) = match (old.peek(), fresh.peek()) {
            (Some(o), Some(f)) if f < o => fresh.next(),
            (Some(_), _) => old.next(),
            _ => fresh.next(),
        } {
            remap[id as usize] = self.token_names.len() as u32;
            self.token_names.push(name);
        }
        if remap.len() > base_tokens {
            for id in &mut self.token_ids {
                *id = remap[*id as usize];
            }
        }
        // 3. Token postings: each old list, mapped to the new document ids,
        //    merged with the delta's list of the same token.
        let mut tokens = Vec::new();
        let delta_postings = count_postings(remap.len(), &new_of_delta, |k, out| {
            tokens.clear();
            tokens.extend_from_slice(self.doc_token_ids(new_of_delta[k] as usize));
            tokens.sort_unstable();
            tokens.dedup();
            out.extend_from_slice(&tokens);
        });
        let (token_posting_ends, token_postings) = merge_postings(
            (&self.token_posting_ends, &self.token_postings),
            &remap[..base_tokens],
            delta_postings,
            &new_of_old,
        );
        // 4. idf from the posting lengths, and the per-document idf-weighted
        //    squared norms (token occurrence order, duplicates included —
        //    identical accumulation order to a per-document token walk). Both
        //    are corpus-global, so this pass covers every document.
        let total_docs = n as f64;
        self.idf = (0..remap.len())
            .map(|token| {
                let (start, end) = run(&token_posting_ends, token);
                (1.0 + total_docs / (end - start) as f64).ln()
            })
            .collect();
        self.token_postings = token_postings;
        self.token_posting_ends = token_posting_ends;
        self.doc_norm_sq = (0..n)
            .map(|doc| {
                self.doc_token_ids(doc)
                    .iter()
                    .map(|&t| {
                        let w = self.idf[t as usize];
                        w * w
                    })
                    .sum()
            })
            .collect();
        // 5. Trigram postings: the old keys and the delta's, sorted and
        //    deduplicated, each key's lists merged like a token's.
        let mut keys: Vec<u64> = trigrams.iter().chain(&self.trigram_keys).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        let position = |g: &u64| keys.binary_search(g).expect("merged trigram key") as u32;
        let delta_postings = count_postings(keys.len(), &new_of_delta, |k, out| {
            let d = delta[k].1 - base;
            let grams = &trigrams[trigram_starts[d]..trigram_starts[d + 1]];
            out.extend(grams.iter().map(position));
        });
        let old_positions: Vec<u32> = self.trigram_keys.iter().map(position).collect();
        let (trigram_posting_ends, trigram_postings) = merge_postings(
            (&self.trigram_posting_ends, &self.trigram_postings),
            &old_positions,
            delta_postings,
            &new_of_old,
        );
        self.trigram_keys = keys;
        self.trigram_postings = trigram_postings;
        self.trigram_posting_ends = trigram_posting_ends;
    }
}

/// One scored candidate. `Ord` ranks the better candidate first — higher
/// similarity, then lower document id — so a max-heap's top is the worst
/// one held.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    similarity: f64,
    doc: usize,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .similarity
            .total_cmp(&self.similarity)
            .then(self.doc.cmp(&other.doc))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// Relative slack on the cosine bound of [`KeywordIndex::scored`]: `dot`
/// and `doc_norm_sq` add the same idf² terms in different orders, so a
/// computed cosine can pass its exact bound by a few ulps.
const COS_SLACK: f64 = 1.0 + 1e-9;

/// The Dice coefficient `2·common / total`, as every similarity and every
/// bound of a lookup computes it.
fn dice(common: usize, total: usize) -> f64 {
    2.0 * common as f64 / total as f64
}

/// The containment score `0.9·short / long` of two byte lengths.
fn containment(short: usize, long: usize) -> f64 {
    0.9 * short as f64 / long as f64
}

/// The least `x` in `lo..hi` with `holds(x)`, or `hi`; `holds` must be
/// false then true along the range.
fn least(mut lo: usize, mut hi: usize, holds: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// The keyword's side of the prefix filter: how many of its trigrams a
/// document that shares no query token must share to reach a similarity.
struct Reach {
    /// `|Q|`, the keyword's distinct padded trigrams.
    grams: usize,
    /// The keyword's distinct unpadded trigrams.
    inner: usize,
    /// The normalised keyword's byte length.
    len: usize,
    /// The most times one trigram occurs in an ASCII keyword; `None` when
    /// the keyword is not ASCII.
    maxdup: Option<usize>,
}

impl Reach {
    fn new(norm: &str, grams: usize, inner: usize) -> Self {
        let maxdup = norm.is_ascii().then(|| {
            let mut windows: Vec<&[u8]> = norm.as_bytes().windows(3).collect();
            windows.sort_unstable();
            windows
                .chunk_by(|a, b| a == b)
                .map(<[_]>::len)
                .max()
                .unwrap_or(1)
        });
        Reach {
            grams,
            inner,
            len: norm.len(),
            maxdup,
        }
    }

    /// `cmin(θ)`: the fewest shared trigrams `c ≥ 1` with which a document
    /// that shares no query token can still reach `θ` — the least over
    /// four routes (DESIGN.md, *Keyword matching*):
    ///
    /// * Dice `2c/(|Q|+|D|) ≤ 2c/(|Q|+c)`, with `|D| ≥ c`, in the same
    ///   float expression as the score;
    /// * the keyword inside a longer document shares all `inner` trigrams,
    ///   if `0.9·len/(len+1)` reaches `θ`;
    /// * a shorter document inside the keyword is a substring of at least
    ///   the least length `L` whose `0.9·L/len` reaches `θ`, and shares its
    ///   distinct trigrams: at least `⌈(L−2)/maxdup⌉` in ASCII, `1`
    ///   otherwise;
    /// * an equal document shares all `|Q|`.
    fn cmin(&self, theta: f64) -> usize {
        let q = self.grams;
        let mut c = q.min(least(1, q + 1, |c| dice(c, q + c) >= theta));
        if containment(self.len, self.len + 1) >= theta {
            c = c.min(self.inner);
        }
        let shortest = least(1, self.len, |l| containment(l, self.len) >= theta);
        if shortest < self.len {
            c = c.min(
                self.maxdup
                    .map_or(1, |dup| shortest.saturating_sub(2).div_ceil(dup)),
            );
        }
        c.max(1)
    }
}

/// A cursor that answers "is this document on the list?" for one ascending
/// posting list. Touched documents come in ascending runs (each walked
/// list's new documents are in list order), so each search gallops forward
/// from where the last one stopped and starts over only when the documents
/// step back.
struct Probe<'a> {
    list: &'a [u32],
    /// How many entries are below the last document searched for.
    at: usize,
}

impl Probe<'_> {
    fn holds(&mut self, doc: u32) -> bool {
        let list = self.list;
        if self.at > 0 && list[self.at - 1] >= doc {
            self.at = 0;
        }
        let mut step = 1;
        while self.at + step <= list.len() && list[self.at + step - 1] < doc {
            step *= 2;
        }
        let (lo, hi) = (self.at + step / 2, (self.at + step).min(list.len()));
        self.at = lo + list[lo..hi].partition_point(|&d| d < doc);
        list.get(self.at) == Some(&doc)
    }
}

/// The part of an ascending posting list inside the document range `docs`.
fn within<'a>(list: &'a [u32], docs: &Range<u32>) -> &'a [u32] {
    // A run over the whole list (every full-index lookup) needs no search.
    if list.first().is_none_or(|&d| d >= docs.start) && list.last().is_none_or(|&d| d < docs.end) {
        return list;
    }
    let start = list.partition_point(|&d| d < docs.start);
    let len = list[start..].partition_point(|&d| d < docs.end);
    &list[start..start + len]
}

/// The documents of `runs` (ranges of current document indices), in order.
fn gather<T: Copy>(column: &[T], runs: &[Range<usize>]) -> Vec<T> {
    runs.iter()
        .flat_map(|docs| &column[docs.clone()])
        .copied()
        .collect()
}

/// Rebuild one flat column with end offsets so its documents come in the
/// order of `runs`.
fn reorder<T: Copy>(flat: &mut Vec<T>, ends: &mut Vec<u32>, runs: &[Range<usize>]) {
    let mut out = Vec::with_capacity(flat.len());
    let mut out_ends = Vec::with_capacity(ends.len());
    for docs in runs.iter().filter(|docs| !docs.is_empty()) {
        let start = run(ends, docs.start).0;
        let rebase = |&e: &u32| (e as usize - start + out.len()) as u32;
        out_ends.extend(ends[docs.clone()].iter().map(rebase));
        out.extend_from_slice(&flat[start..ends[docs.end - 1] as usize]);
    }
    (*flat, *ends) = (out, out_ends);
}

/// Postings of `docs` (ascending document ids) by counting sort:
/// `terms_of(k, out)` writes the distinct term ids (below `terms`) of
/// `docs[k]`, once per document. Returns per-term end offsets and the flat
/// ascending lists.
fn count_postings(
    terms: usize,
    docs: &[u32],
    mut terms_of: impl FnMut(usize, &mut Vec<u32>),
) -> (Vec<u32>, Vec<u32>) {
    let mut flat = Vec::new();
    let mut ends = Vec::with_capacity(docs.len());
    let mut cursor = vec![0u32; terms];
    for k in 0..docs.len() {
        let start = flat.len();
        terms_of(k, &mut flat);
        flat[start..].iter().for_each(|&t| cursor[t as usize] += 1);
        ends.push(flat.len() as u32);
    }
    let mut total = 0;
    for slot in &mut cursor {
        (*slot, total) = (total, total + *slot);
    }
    let mut postings = vec![0u32; total as usize];
    for (k, &doc) in docs.iter().enumerate() {
        let (start, end) = run(&ends, k);
        for &t in &flat[start..end] {
            postings[cursor[t as usize] as usize] = doc;
            cursor[t as usize] += 1;
        }
    }
    // Every cursor now sits at its term's end offset.
    (cursor, postings)
}

/// Merge the finalized prefix's posting column `(ends, postings)` with the
/// delta's, term by term: old term `i` is merged term `old_positions[i]`
/// (monotone), its documents mapped through `new_of_old` (monotone too), so
/// each merged list is one linear merge of two disjoint ascending lists.
/// Returns per-term end offsets and the flat lists.
fn merge_postings(
    (ends, postings): (&[u32], &[u32]),
    old_positions: &[u32],
    (delta_ends, delta_docs): (Vec<u32>, Vec<u32>),
    new_of_old: &[u32],
) -> (Vec<u32>, Vec<u32>) {
    let mut merged_ends = Vec::with_capacity(delta_ends.len());
    let mut merged = Vec::with_capacity(postings.len() + delta_docs.len());
    let mut next_old = 0;
    for term in 0..delta_ends.len() {
        let old: &[u32] = if old_positions.get(next_old) == Some(&(term as u32)) {
            next_old += 1;
            let (start, end) = run(ends, next_old - 1);
            &postings[start..end]
        } else {
            &[]
        };
        let mut old = old.iter().map(|&d| new_of_old[d as usize]).peekable();
        let (start, end) = run(&delta_ends, term);
        for &d in &delta_docs[start..end] {
            while let Some(o) = old.next_if(|&o| o < d) {
                merged.push(o);
            }
            merged.push(d);
        }
        merged.extend(old);
        merged_ends.push(merged.len() as u32);
    }
    (merged_ends, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use q_storage::{RelationSpec, SourceSpec};

    /// `index` saved to its columns and loaded back, as a snapshot does.
    fn reloaded(index: &KeywordIndex) -> KeywordIndex {
        let view = index.view();
        KeywordIndex::from_parts(KeywordIndexParts {
            target_kinds: view.target_kinds.to_vec(),
            target_ids: view.target_ids.to_vec(),
            text_blob: view.text_blob.to_string(),
            text_ends: view.text_ends.to_vec(),
            token_ids: view.token_ids.to_vec(),
            token_ends: view.token_ends.to_vec(),
            trigram_counts: view.trigram_counts.to_vec(),
            token_names: view.token_names.to_vec(),
            token_postings: view.token_postings.to_vec(),
            token_posting_ends: view.token_posting_ends.to_vec(),
            trigram_keys: view.trigram_keys.to_vec(),
            trigram_postings: view.trigram_postings.to_vec(),
            trigram_posting_ends: view.trigram_posting_ends.to_vec(),
            idf: view.idf.to_vec(),
            doc_norm_sq: view.doc_norm_sq.to_vec(),
        })
    }

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        SourceSpec::new("go")
            .relation(
                RelationSpec::new("go_term", &["acc", "name", "term_type"])
                    .row(["GO:0005134", "plasma membrane", "component"])
                    .row(["GO:0007652", "kinase activity", "function"]),
            )
            .load_into(&mut cat)
            .unwrap();
        SourceSpec::new("interpro")
            .relation(
                RelationSpec::new("interpro_pub", &["pub_id", "title"])
                    .row(["PUB1", "Structure of the plasma membrane"]),
            )
            .load_into(&mut cat)
            .unwrap();
        cat
    }

    #[test]
    fn exact_attribute_name_scores_one() {
        let cat = catalog();
        let idx = KeywordIndex::build(&cat);
        let matches = idx.matches("title", &MatchConfig::default());
        let title = cat.resolve_qualified("interpro_pub.title").unwrap();
        let top = &matches[0];
        assert_eq!(top.target, MatchTarget::Attribute(title));
        assert!((top.similarity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn value_matches_are_found_with_high_similarity() {
        let cat = catalog();
        let idx = KeywordIndex::build(&cat);
        let matches = idx.matches("plasma membrane", &MatchConfig::default());
        let name = cat.resolve_qualified("go_term.name").unwrap();
        assert!(matches.iter().any(|m| matches!(
            &m.target,
            MatchTarget::Value { attribute, value } if *attribute == name && value == "plasma membrane"
        )));
        // The title containing the phrase also matches, but not exactly.
        let title_attr = cat.resolve_qualified("interpro_pub.title").unwrap();
        let title_match = matches.iter().find(|m| {
            matches!(&m.target, MatchTarget::Value { attribute, .. } if *attribute == title_attr)
        });
        assert!(title_match.is_some());
        assert!(title_match.unwrap().similarity < 1.0);
    }

    #[test]
    fn partial_keyword_matches_via_tokens() {
        let cat = catalog();
        let idx = KeywordIndex::build(&cat);
        let matches = idx.matches("term", &MatchConfig::default());
        let rel = cat.relation_by_name("go_term").unwrap().id;
        assert!(matches
            .iter()
            .any(|m| m.target == MatchTarget::Relation(rel)));
    }

    #[test]
    fn min_similarity_filters_weak_matches() {
        let cat = catalog();
        let idx = KeywordIndex::build(&cat);
        let strict = MatchConfig {
            min_similarity: 0.99,
            max_matches: 10,
        };
        let matches = idx.matches("membrane", &strict);
        assert!(matches.is_empty());
    }

    #[test]
    fn max_matches_truncates() {
        let cat = catalog();
        let idx = KeywordIndex::build(&cat);
        let cfg = MatchConfig {
            min_similarity: 0.01,
            max_matches: 2,
        };
        assert!(idx.matches("a", &cfg).len() <= 2);
    }

    #[test]
    fn unmatched_keyword_returns_empty() {
        let cat = catalog();
        let idx = KeywordIndex::build(&cat);
        assert!(idx.matches("zzzqqqxxx", &MatchConfig::default()).is_empty());
        assert!(idx.matches("", &MatchConfig::default()).is_empty());
    }

    #[test]
    fn add_relation_extends_index() {
        let mut cat = catalog();
        let mut idx = KeywordIndex::build(&cat);
        let before = idx.len();
        let src = cat.add_source("new").unwrap();
        let rel = cat
            .add_relation(src, "journal", &["journal_id", "journal_name"])
            .unwrap();
        cat.insert_rows(rel, vec![vec![Value::from("J1"), Value::from("Nature")]])
            .unwrap();
        idx.add_relation(&cat, rel);
        assert!(idx.len() > before);
        let matches = idx.matches("journal", &MatchConfig::default());
        assert!(matches
            .iter()
            .any(|m| m.target == MatchTarget::Relation(rel)));
    }

    #[test]
    fn incremental_add_relation_converges_to_the_batch_index() {
        // Grow an index one relation at a time and compare against the
        // batch build over the final catalog: canonical document order and
        // the canonical token dictionary make every persistent column
        // identical, so match lists (and downstream tie-breaks) cannot
        // depend on which path built the index.
        let mut cat = Catalog::new();
        let incremental = {
            let mut idx = KeywordIndex::default();
            let s1 = cat.add_source("go").unwrap();
            let r1 = cat.add_relation(s1, "go_term", &["acc", "name"]).unwrap();
            cat.insert_rows(r1, vec![vec![Value::from("GO:1"), Value::from("membrane")]])
                .unwrap();
            idx.add_relation(&cat, r1);
            let s2 = cat.add_source("interpro").unwrap();
            let r2 = cat
                .add_relation(s2, "entry", &["entry_ac", "name"])
                .unwrap();
            cat.insert_rows(
                r2,
                vec![vec![Value::from("IPR01"), Value::from("Kringle domain")]],
            )
            .unwrap();
            idx.add_relation(&cat, r2);
            idx
        };
        let batch = KeywordIndex::build(&cat);
        assert_eq!(incremental.len(), batch.len());
        assert_eq!(incremental.view(), batch.view());
        let cfg = MatchConfig::default();
        for kw in ["name", "membrane", "entry", "kringle"] {
            assert_eq!(incremental.matches(kw, &cfg), batch.matches(kw, &cfg));
        }
    }

    #[test]
    fn from_parts_round_trip_preserves_columns_and_matching() {
        let cat = catalog();
        let idx = KeywordIndex::build(&cat);
        let loaded = reloaded(&idx);
        assert_eq!(loaded.view(), idx.view());
        let cfg = MatchConfig {
            min_similarity: 0.1,
            max_matches: 16,
        };
        for kw in ["title", "plasma membrane", "term", "pub", "kinase", ""] {
            assert_eq!(loaded.matches(kw, &cfg), idx.matches(kw, &cfg));
        }
    }

    #[test]
    fn loaded_index_accepts_further_relations() {
        // A snapshot-loaded index must keep converging: it holds nothing
        // but the persisted columns, so appending to it is appending to the
        // index it was saved from.
        let mut cat = catalog();
        let built = KeywordIndex::build(&cat);
        let mut loaded = reloaded(&built);
        let mut grown = built.clone();
        let src = cat.add_source("new").unwrap();
        let rel = cat
            .add_relation(src, "journal", &["journal_id", "journal_name"])
            .unwrap();
        cat.insert_rows(rel, vec![vec![Value::from("J1"), Value::from("Nature")]])
            .unwrap();
        loaded.add_relation(&cat, rel);
        grown.add_relation(&cat, rel);
        assert_eq!(loaded.view(), grown.view());
        assert_eq!(loaded.view(), KeywordIndex::build(&cat).view());
    }

    #[test]
    fn adding_an_indexed_relation_again_changes_nothing() {
        let mut cat = catalog();
        let src = cat.add_source("new").unwrap();
        let rel = cat.add_relation(src, "journal", &["name"]).unwrap();
        cat.insert_rows(rel, vec![vec![Value::from("Nature")]])
            .unwrap();
        let built = KeywordIndex::build(&cat);
        let mut grown = KeywordIndex::build(&catalog());
        grown.add_relation(&cat, rel);
        let mut loaded = reloaded(&grown);
        for idx in [&mut grown, &mut loaded] {
            for r in cat.relations() {
                idx.add_relation(&cat, r.id);
            }
            assert_eq!(idx.view(), built.view());
        }
    }

    #[test]
    fn adding_a_relation_missing_from_the_catalog_changes_nothing() {
        let cat = catalog();
        let built = KeywordIndex::build(&cat);
        let mut idx = built.clone();
        idx.add_relation(&cat, RelationId(cat.relations().len() as u32));
        assert_eq!(idx.view(), built.view());
        let mut empty = KeywordIndex::default();
        empty.add_relation(&Catalog::new(), RelationId(0));
        assert!(empty.is_empty());
    }

    #[test]
    fn distinct_values_of_an_attribute_are_indexed_once_in_row_order() {
        let mut cat = Catalog::new();
        let src = cat.add_source("s").unwrap();
        let rel = cat.add_relation(src, "r", &["v", "w"]).unwrap();
        let rows = ["Beta", " beta ", "alpha", "BETA", "gamma", "alpha"]
            .map(|v| vec![Value::from(v), Value::from("same")]);
        cat.insert_rows(rel, rows).unwrap();
        let (v, w) = (
            cat.resolve_qualified("r.v").unwrap(),
            cat.resolve_qualified("r.w").unwrap(),
        );
        let mut grown = KeywordIndex::default();
        grown.add_relation(&cat, rel);
        for idx in [KeywordIndex::build(&cat), grown] {
            let values: Vec<MatchTarget> = (0..idx.len())
                .map(|doc| idx.target(doc))
                .filter(|t| matches!(t, MatchTarget::Value { .. }))
                .collect();
            let value = |attribute, value: &str| MatchTarget::Value {
                attribute,
                value: value.to_string(),
            };
            assert_eq!(
                values,
                [
                    value(v, "beta"),
                    value(v, "alpha"),
                    value(v, "gamma"),
                    value(w, "same")
                ]
            );
        }
    }

    #[test]
    fn an_index_holds_nothing_but_its_persisted_columns() {
        // Appending recomputes what it needs from the columns, so nothing
        // else rides along in a clone or a published snapshot: after a load
        // and two appends the index prints exactly like a load of its own
        // columns.
        let mut cat = catalog();
        let mut idx = reloaded(&KeywordIndex::build(&cat));
        for name in ["journal", "author"] {
            let src = cat.add_source(name).unwrap();
            let rel = cat.add_relation(src, name, &["id", "name"]).unwrap();
            cat.insert_rows(rel, vec![vec![Value::from("X1"), Value::from(name)]])
                .unwrap();
            idx.add_relation(&cat, rel);
        }
        assert_eq!(format!("{idx:?}"), format!("{:?}", reloaded(&idx)));
    }

    #[test]
    fn every_trigram_count_is_its_documents_distinct_trigrams() {
        // The count column is all a lookup reads of a document's trigrams,
        // so after each producer it must equal a fresh extraction.
        let assert_counts = |idx: &KeywordIndex, producer: &str| {
            assert_eq!(idx.trigram_counts.len(), idx.len(), "{producer}");
            for doc in 0..idx.len() {
                assert_eq!(
                    idx.trigram_counts[doc] as usize,
                    packed_trigrams(idx.doc_text(doc)).len(),
                    "{producer}: document {doc} ({:?})",
                    idx.doc_text(doc)
                );
            }
            // The kept byte estimate is the walk it replaces.
            let walked: u64 = (0..idx.len()).map(|doc| idx.doc_byte_estimate(doc)).sum();
            assert_eq!(idx.postings_byte_estimate(), walked, "{producer}");
        };
        let mut cat = catalog();
        let built = KeywordIndex::build(&cat);
        assert_counts(&built, "build");
        let mut grown = built.clone();
        let src = cat.add_source("new").unwrap();
        let rel = cat
            .add_relation(src, "journal", &["journal_id", "journal_name"])
            .unwrap();
        let rows = ["Nature", "δοκιμή", "Plasma membrane", ""]
            .map(|v| vec![Value::from("J1"), Value::from(v)]);
        cat.insert_rows(rel, rows).unwrap();
        grown.add_relation(&cat, rel);
        assert_counts(&grown, "add_relation");
        assert_counts(&reloaded(&grown), "from_parts");
    }

    #[test]
    fn keyword_matches_in_scopes_matches_to_the_given_relations() {
        let cat = catalog();
        let idx = KeywordIndex::build(&cat);
        let cfg = MatchConfig::default();
        let go_term = cat.relation_by_name("go_term").unwrap().id;
        let pub_rel = cat.relation_by_name("interpro_pub").unwrap().id;
        // "plasma membrane" matches a go_term value and an interpro_pub
        // title, but nothing when scoped to no relations.
        assert!(idx.keyword_matches_in("plasma membrane", &cat, &[go_term], &cfg));
        assert!(idx.keyword_matches_in("plasma membrane", &cat, &[pub_rel], &cfg));
        assert!(!idx.keyword_matches_in("plasma membrane", &cat, &[], &cfg));
        // "title" is an interpro_pub attribute only.
        assert!(idx.keyword_matches_in("title", &cat, &[pub_rel], &cfg));
        assert!(!idx.keyword_matches_in("title", &cat, &[go_term], &cfg));
        // Garbage matches nowhere.
        assert!(!idx.keyword_matches_in("zzzqqqxxx", &cat, &[go_term, pub_rel], &cfg));
        assert!(!idx.keyword_matches_in("", &cat, &[go_term], &cfg));
    }

    /// A catalog of one relation `r` whose attribute `v` holds `values`, in
    /// row order, and its index.
    fn values_index(values: &[&str]) -> (Catalog, KeywordIndex) {
        let mut cat = Catalog::new();
        let src = cat.add_source("s").unwrap();
        let rel = cat.add_relation(src, "r", &["v"]).unwrap();
        cat.insert_rows(rel, values.iter().map(|&v| vec![Value::from(v)]))
            .unwrap();
        let idx = KeywordIndex::build(&cat);
        (cat, idx)
    }

    fn value_texts(matches: &[KeywordMatch]) -> Vec<(String, f64)> {
        matches
            .iter()
            .map(|m| match &m.target {
                MatchTarget::Value { value, .. } => (value.clone(), m.similarity),
                other => panic!("expected a value, got {other:?}"),
            })
            .collect()
    }

    fn top(min_similarity: f64, max_matches: usize) -> MatchConfig {
        MatchConfig {
            min_similarity,
            max_matches,
        }
    }

    #[test]
    fn a_tie_at_the_kth_slot_goes_to_the_lower_document() {
        // Both values score 0.9·3/4 by containment alone. "abcz" starts
        // with the keyword's first padded trigram, so it is touched first
        // and fills the single slot; "zabc" comes later with a bound equal
        // to the held similarity, and its lower document id takes the slot.
        let (_, idx) = values_index(&["zabc", "abcz"]);
        let tie = 0.9 * 3.0 / 4.0;
        let all = value_texts(&idx.matches("abc", &top(0.35, usize::MAX)));
        assert_eq!(all, [("zabc".to_string(), tie), ("abcz".to_string(), tie)]);
        let one = value_texts(&idx.matches("abc", &top(0.35, 1)));
        assert_eq!(one, [("zabc".to_string(), tie)]);
    }

    #[test]
    fn an_exact_text_enters_after_a_full_heap_at_0_999() {
        // Sixteen values with the keyword's tokens and a longer separator
        // each score 0.999, and all precede the exact text in document and
        // touch order; the exact text's bound is 1.0, so it still enters,
        // first.
        let seps: Vec<String> = (2..18).map(|n| "-".repeat(n)).collect();
        let mut values: Vec<String> = seps.iter().map(|sep| format!("alpha{sep}beta")).collect();
        values.push("alpha beta".to_string());
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        let (_, idx) = values_index(&refs);
        let got = value_texts(&idx.matches("alpha beta", &MatchConfig::default()));
        assert_eq!(got.len(), 16);
        assert_eq!(got[0], ("alpha beta".to_string(), 1.0));
        let expect: Vec<(String, f64)> = values[..15].iter().map(|v| (v.clone(), 0.999)).collect();
        assert_eq!(got[1..], expect[..]);
    }

    #[test]
    fn a_candidate_that_qualifies_by_containment_alone_enters() {
        // "membranes" and "membrane" share no token, and their Dice is
        // 16/21 ≈ 0.762, below the floor; containment lifts either inside
        // the other to 0.9·8/9 = 0.8. The bound must count containment both
        // ways, or the floor itself would skip the document.
        let (_, idx) = values_index(&["plasma membrane", "membranes"]);
        let (_, inside) = values_index(&["plasma", "membrane"]);
        for k in [1, 16, usize::MAX] {
            let got = value_texts(&idx.matches("membrane", &top(0.78, k)));
            assert_eq!(got, [("membranes".to_string(), 0.9 * 8.0 / 9.0)], "k = {k}");
            let got = value_texts(&inside.matches("membranes", &top(0.78, k)));
            assert_eq!(got, [("membrane".to_string(), 0.9 * 8.0 / 9.0)], "k = {k}");
        }
    }

    #[test]
    fn max_matches_of_zero_one_and_unbounded() {
        let cat = catalog();
        let idx = KeywordIndex::build(&cat);
        let floor = 0.05;
        for kw in ["plasma membrane", "term", "pub", "a"] {
            assert!(idx.matches(kw, &top(floor, 0)).is_empty(), "{kw}");
            let all = idx.matches(kw, &top(floor, usize::MAX));
            assert_eq!(
                idx.matches(kw, &top(floor, 1))[..],
                all[..1.min(all.len())],
                "{kw}"
            );
            // Every floor survivor, in order: each document scored alone
            // (a one-document run) survives exactly when it is listed, with
            // the similarity listed, and the list runs by (similarity desc,
            // document asc).
            let every = 0..idx.len() as u32;
            let docs = idx.scored(kw, floor, std::slice::from_ref(&every), usize::MAX);
            let listed: Vec<KeywordMatch> = docs
                .iter()
                .map(|&(doc, similarity)| KeywordMatch {
                    target: idx.target(doc),
                    similarity,
                })
                .collect();
            assert_eq!(listed, all, "{kw}");
            assert!(docs
                .windows(2)
                .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
            for doc in 0..idx.len() {
                let one = doc as u32..doc as u32 + 1;
                let alone = idx.scored(kw, floor, std::slice::from_ref(&one), 1);
                let listed = docs.iter().find(|&&(d, _)| d == doc);
                assert_eq!(alone.first(), listed, "{kw}: document {doc}");
            }
        }
    }

    #[test]
    fn keyword_matches_in_walks_only_the_given_relations_runs() {
        let mut cat = Catalog::new();
        let src = cat.add_source("s").unwrap();
        let names = ["alpha", "beta", "gamma", "journal"];
        let rels: Vec<RelationId> = names
            .iter()
            .map(|&name| cat.add_relation(src, name, &["id", "label"]).unwrap())
            .collect();
        // The last relation has no value documents at all.
        for (&rel, value) in rels.iter().zip(["kinase", "membrane", "nucleus"]) {
            cat.insert_rows(rel, vec![vec![Value::from("x1"), Value::from(value)]])
                .unwrap();
        }
        let idx = KeywordIndex::build(&cat);
        // In the catalog, never appended to the index.
        let unindexed = cat.add_relation(src, "kinase", &["label"]).unwrap();
        let cfg = MatchConfig::default();
        let in_rels = |kw: &str, rels: &[RelationId]| idx.keyword_matches_in(kw, &cat, rels, &cfg);
        let (alpha, beta, gamma, journal) = (rels[0], rels[1], rels[2], rels[3]);
        // A relation with no value documents: its schema run only.
        assert!(in_rels("journal", &[journal]));
        assert!(in_rels("label", &[journal]));
        assert!(!in_rels("kinase", &[journal]));
        // Two non-adjacent relations: both of their runs, nothing between.
        assert!(in_rels("kinase", &[alpha, gamma]));
        assert!(in_rels("nucleus", &[gamma, alpha]));
        assert!(!in_rels("membrane", &[alpha, gamma]));
        assert!(!in_rels("beta", &[alpha, gamma]));
        assert!(in_rels("membrane", &[alpha, gamma, beta, beta]));
        // An id that is not indexed: not in the catalog, or in the catalog
        // but never appended.
        for rel in [RelationId(99), unindexed] {
            for kw in ["kinase", "label", "x1", "alpha"] {
                assert!(!in_rels(kw, &[rel]), "{kw} in {rel:?}");
            }
        }
        assert!(in_rels("kinase", &[RelationId(99), alpha]));
    }

    #[test]
    fn a_repeated_query_token_keeps_its_multiplicity_in_the_cosine_bound() {
        // "kinase" is in nearly every document, so its idf `w` is small, and
        // the keyword repeats it beside a word the index lacks (idf 1). The
        // value "kinase" has `dot = 2w²` and cosine `2w²/(|q|·w) > 1`,
        // capped at 0.999; its Dice and containment are far below the floor
        // and it shares too few trigrams for `cmin`, so it qualifies by
        // cosine alone. `doc_norm_sq = w² = dot/2`: a bound of
        // `sqrt(dot)/|q|` would skip it.
        let values = [
            "kinase",
            "kinase alpha",
            "kinase beta",
            "kinase gamma",
            "kinase delta",
            "kinase epsilon",
            "kinase zeta",
            "kinase eta",
        ];
        let (_, idx) = values_index(&values);
        let floor = 0.8;
        let w = idx.idf[idx.token_id("kinase").unwrap() as usize];
        let norm = (2.0 * w * w + 1.0).sqrt();
        assert!((2.0 * w * w).sqrt() / norm < floor);
        for k in [1, 16, usize::MAX] {
            let got = value_texts(&idx.matches("kinase kinase quixotry", &top(floor, k)));
            assert_eq!(got, [("kinase".to_string(), 0.999)], "k = {k}");
        }
    }

    #[test]
    fn a_repeated_character_document_inside_the_keyword_is_walked() {
        // "aaaaaa" in "xaaaaaaay" scores 0.9·6/9 by containment but shares
        // one trigram, "aaa", which occurs five times in the keyword: a
        // substring of the keyword is only bounded below by its windows over
        // that multiplicity. "aaa" is the keyword's longest list, so a
        // bound that took every window as distinct would leave it unwalked.
        let (_, idx) = values_index(&["baaab", "aaaaaa", "caaac", "daaad"]);
        for k in [1, 16, usize::MAX] {
            let got = value_texts(&idx.matches("xaaaaaaay", &top(0.5, k)));
            assert_eq!(got, [("aaaaaa".to_string(), 0.9 * 6.0 / 9.0)], "k = {k}");
        }
    }

    #[test]
    fn a_non_ascii_document_inside_the_keyword_is_walked() {
        // "γδεζ" is 8 of the keyword's 16 bytes, 0.45 by containment, and
        // shares two trigrams, both on lists longer than any other. Counting
        // byte windows as trigrams would demand more shared trigrams than
        // that; non-ASCII text demands one.
        let (_, idx) = values_index(&["ωγδεζω", "γδεζ", "ψγδεζψ", "χγδεζχ"]);
        for k in [1, 16, usize::MAX] {
            let got = value_texts(&idx.matches("αβγδεζηθ", &top(0.4, k)));
            assert_eq!(got, [("γδεζ".to_string(), 0.9 * 8.0 / 16.0)], "k = {k}");
        }
    }

    #[test]
    fn a_document_at_exactly_the_dice_floor_is_walked() {
        // The keyword has 21 distinct padded trigrams and "ab" has 4, all
        // shared: its Dice is 2·4/(21+4), and the floor is that very float,
        // so `cmin` must be 4, not 5. The keyword's other trigrams are on no
        // list, so with `cmin` 5 no list would be walked at all.
        let (_, idx) = values_index(&["ab c", "c ab", "ab", "ab d", "d ab"]);
        let floor = dice(4, 21 + 4);
        for k in [1, 16, usize::MAX] {
            let got = value_texts(&idx.matches("abqrstuvw wvutsrqab", &top(floor, k)));
            assert_eq!(got, [("ab".to_string(), floor)], "k = {k}");
        }
    }

    #[test]
    fn keyword_matches_in_agrees_when_the_shortest_list_is_outside_the_runs() {
        // The rarest trigrams of "membrane" in the index, "ne " and "e  ",
        // have no posting inside `alpha`'s runs; the scoped lookup must
        // still agree with the full lookup filtered to the relations, at
        // every floor.
        let mut cat = Catalog::new();
        let src = cat.add_source("s").unwrap();
        let alpha = cat.add_relation(src, "alpha", &["label"]).unwrap();
        let beta = cat.add_relation(src, "beta", &["label"]).unwrap();
        let rows = |values: &[&str]| {
            values
                .iter()
                .map(|&v| vec![Value::from(v)])
                .collect::<Vec<_>>()
        };
        cat.insert_rows(alpha, rows(&["membranes", "membrane-x", "branes", "mem"]))
            .unwrap();
        cat.insert_rows(beta, rows(&["ne", "membrane"])).unwrap();
        let idx = KeywordIndex::build(&cat);
        let relation_of = |target: &MatchTarget| match target {
            MatchTarget::Relation(rel) => *rel,
            MatchTarget::Attribute(attr)
            | MatchTarget::Value {
                attribute: attr, ..
            } => cat.attribute(*attr).unwrap().relation,
        };
        let keyword = "membrane";
        let lists: Vec<&[u32]> = packed_trigrams(keyword)
            .iter()
            .filter_map(|g| idx.trigram_keys.binary_search(g).ok())
            .map(|pos| idx.trigram_posting_list(pos))
            .collect();
        let shortest = lists.iter().min_by_key(|list| list.len()).unwrap();
        let alpha_runs = [0, 1].map(|section| idx.relation_run(&cat, section, alpha));
        assert!(alpha_runs
            .iter()
            .all(|docs| within(shortest, docs).is_empty()));
        for floor in [0.2, 0.35, 0.5, 0.78, 0.8, 0.85, 1.0] {
            let all = idx.matches(keyword, &top(floor, usize::MAX));
            for rels in [&[alpha][..], &[beta], &[alpha, beta]] {
                let expect = all.iter().any(|m| rels.contains(&relation_of(&m.target)));
                let cfg = top(floor, 16);
                assert_eq!(
                    idx.keyword_matches_in(keyword, &cat, rels, &cfg),
                    expect,
                    "floor {floor} in {rels:?}"
                );
            }
        }
        assert!(idx.keyword_matches_in(keyword, &cat, &[alpha], &top(0.8, 1)));
        assert!(!idx.keyword_matches_in(keyword, &cat, &[alpha], &top(0.85, 1)));
    }

    #[test]
    fn abbreviation_matches_full_word_via_containment() {
        let cat = catalog();
        let idx = KeywordIndex::build(&cat);
        // "publication" should still find the `interpro_pub` relation through
        // the `pub` token containment heuristic.
        let cfg = MatchConfig {
            min_similarity: 0.2,
            max_matches: 20,
        };
        let matches = idx.matches("pub", &cfg);
        let rel = cat.relation_by_name("interpro_pub").unwrap().id;
        assert!(matches
            .iter()
            .any(|m| m.target == MatchTarget::Relation(rel)));
    }

    #[test]
    fn containment_alone_never_makes_a_candidate() {
        // "at" shares no token and no padded trigram with "cats", so the
        // value is never scored, although containment would rate it
        // 0.9·2/4 = 0.45, above the 0.35 floor. Pinned, not endorsed:
        // closing the gap would change answers.
        let mut cat = Catalog::new();
        let src = cat.add_source("s").unwrap();
        let rel = cat.add_relation(src, "r", &["v"]).unwrap();
        cat.insert_rows(rel, vec![vec![Value::from("cats")]])
            .unwrap();
        let idx = KeywordIndex::build(&cat);
        assert!(idx.matches("at", &MatchConfig::default()).is_empty());
        // A keyword sharing a trigram is scored, and containment lifts it.
        let cat_matches = idx.matches("cat", &MatchConfig::default());
        assert_eq!(cat_matches.len(), 1);
        assert_eq!(cat_matches[0].similarity, 0.9 * 3.0 / 4.0);
    }
}
