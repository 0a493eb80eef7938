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
//! per-document token-id runs, and per-document runs of packed `u64`
//! character trigrams (three scalar values ≤ `0x10FFFF` < 2²¹, packed into
//! 21-bit lanes — injective, so trigram set intersection over the packed
//! keys equals intersection over the strings). Postings are flat arrays
//! sliced by end offsets. Two properties follow:
//!
//! * a persistent snapshot can reconstruct a serving index from the raw
//!   columns with a handful of bulk copies ([`KeywordIndex::from_parts`])
//!   instead of millions of per-document string/hash-set allocations, and
//! * the whole index is deterministic by construction — postings are built
//!   in ascending document order, the dictionary is canonically sorted, and
//!   no per-document hash iteration order can leak into scores.
//!
//! A lookup is one term-at-a-time pass over the postings into per-document
//! accumulators, so no candidate is sorted or rescanned;
//! `tests/keyword_oracle.rs` checks it against a scan of every document.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

use serde::{Deserialize, Serialize};

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
    /// Flat per-document sorted distinct packed trigram runs.
    pub doc_trigrams: Vec<u64>,
    /// Per-document end offset into `doc_trigrams`.
    pub trigram_ends: Vec<u32>,
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
    /// See [`KeywordIndexParts::doc_trigrams`].
    pub doc_trigrams: &'a [u64],
    /// See [`KeywordIndexParts::trigram_ends`].
    pub trigram_ends: &'a [u32],
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
/// only producers — and its fields are exactly the persistent columns of
/// [`KeywordIndexParts`], so a clone (and with it every published snapshot)
/// carries nothing the snapshot file does not.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KeywordIndex {
    // Persistent columnar state — see [`KeywordIndexParts`] for field docs.
    target_kinds: Vec<u8>,
    target_ids: Vec<u32>,
    text_blob: String,
    text_ends: Vec<u32>,
    token_ids: Vec<u32>,
    token_ends: Vec<u32>,
    doc_trigrams: Vec<u64>,
    trigram_ends: Vec<u32>,
    token_names: Vec<String>,
    token_postings: Vec<u32>,
    token_posting_ends: Vec<u32>,
    trigram_keys: Vec<u64>,
    trigram_postings: Vec<u32>,
    trigram_posting_ends: Vec<u32>,
    idf: Vec<f64>,
    doc_norm_sq: Vec<f64>,
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
        let mut fresh = HashMap::new();
        for rel in catalog.relations() {
            idx.add_document(&mut fresh, TARGET_RELATION, rel.id.0, &rel.name);
            for attr_id in &rel.attributes {
                if let Some(attr) = catalog.attribute(*attr_id) {
                    idx.add_document(&mut fresh, TARGET_ATTRIBUTE, attr.id.0, &attr.name);
                }
            }
        }
        for rel in catalog.relations() {
            for attr_id in &rel.attributes {
                let attr = catalog.attribute(*attr_id).expect("attribute exists");
                idx.add_values(&mut fresh, rel, attr);
            }
        }
        idx.finalize(catalog);
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
        let at = self.upper_bound(catalog, 0..self.len(), key);
        if at > 0 && self.canonical_key_of(catalog, at - 1) == key {
            return;
        }
        let mut fresh = HashMap::new();
        self.add_document(&mut fresh, TARGET_RELATION, rel.id.0, &rel.name);
        for attr_id in &rel.attributes {
            if let Some(attr) = catalog.attribute(*attr_id) {
                self.add_document(&mut fresh, TARGET_ATTRIBUTE, attr.id.0, &attr.name);
                self.add_values(&mut fresh, rel, attr);
            }
        }
        self.finalize(catalog);
    }

    /// Index the distinct textual values of one attribute, in row order.
    fn add_values(&mut self, fresh: &mut HashMap<String, u32>, rel: &Relation, attr: &Attribute) {
        let mut seen = HashSet::new();
        for tuple in &rel.tuples {
            if let Some(value @ Value::Text(_)) = tuple.get(attr.position) {
                if let Some(norm) = value.normalized() {
                    if !seen.contains(&norm) {
                        self.add_document(fresh, TARGET_VALUE, attr.id.0, &norm);
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
        let idx = KeywordIndex {
            target_kinds: parts.target_kinds,
            target_ids: parts.target_ids,
            text_blob: parts.text_blob,
            text_ends: parts.text_ends,
            token_ids: parts.token_ids,
            token_ends: parts.token_ends,
            doc_trigrams: parts.doc_trigrams,
            trigram_ends: parts.trigram_ends,
            token_names: parts.token_names,
            token_postings: parts.token_postings,
            token_posting_ends: parts.token_posting_ends,
            trigram_keys: parts.trigram_keys,
            trigram_postings: parts.trigram_postings,
            trigram_posting_ends: parts.trigram_posting_ends,
            idf: parts.idf,
            doc_norm_sq: parts.doc_norm_sq,
        };
        debug_assert_eq!(idx.text_ends.len(), idx.len());
        debug_assert_eq!(idx.token_ends.len(), idx.len());
        debug_assert_eq!(idx.trigram_ends.len(), idx.len());
        debug_assert_eq!(idx.doc_norm_sq.len(), idx.len());
        debug_assert_eq!(idx.idf.len(), idx.token_names.len());
        debug_assert_eq!(idx.token_posting_ends.len(), idx.token_names.len());
        debug_assert_eq!(idx.trigram_posting_ends.len(), idx.trigram_keys.len());
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
            doc_trigrams: &self.doc_trigrams,
            trigram_ends: &self.trigram_ends,
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

    /// Sorted distinct packed trigrams of one document.
    fn doc_trigram_keys(&self, idx: usize) -> &[u64] {
        let (start, end) = run(&self.trigram_ends, idx);
        &self.doc_trigrams[start..end]
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

    /// Relation owning one document's target, resolved against the catalog.
    pub(crate) fn target_relation(&self, idx: usize, catalog: &Catalog) -> Option<RelationId> {
        let id = self.target_ids[idx];
        match self.target_kinds[idx] {
            TARGET_RELATION => Some(RelationId(id)),
            _ => catalog.attribute(AttributeId(id)).map(|attr| attr.relation),
        }
    }

    /// Deterministic estimate of the postings footprint: the sum of the
    /// per-document estimate below over every document. Linear in the
    /// corpus, so a snapshot computes it once and keeps it.
    pub fn postings_byte_estimate(&self) -> u64 {
        (0..self.len()).map(|idx| self.doc_byte_estimate(idx)).sum()
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
        let trigrams = self.doc_trigram_keys(idx).len() * (3 + 8);
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
        let mut scored = self.scored(keyword, config.min_similarity, |_| true);
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(config.max_matches);
        scored
            .into_iter()
            .map(|(idx, similarity)| KeywordMatch {
                target: self.target(idx),
                similarity,
            })
            .collect()
    }

    /// The unordered `(document, similarity)` pairs of every candidate
    /// `admit` accepts that reaches `floor`. One pass over the postings
    /// fills the per-thread [`Accumulators`]: each query token's list, in
    /// query-token order, adds `idf²` to `dot` (so every document sums the
    /// same terms in the same order as a walk over its own tokens); each
    /// query trigram's list adds 1 to `common`. A candidate's text is read
    /// only when equality is possible (equal byte lengths) or when
    /// containment — `0` or exactly `0.9·short/long` — would beat both
    /// cosine and Dice and reach the floor.
    fn scored(
        &self,
        keyword: &str,
        floor: f64,
        admit: impl Fn(usize) -> bool,
    ) -> Vec<(usize, f64)> {
        let norm = normalize(keyword);
        let grams = packed_trigrams(&norm);
        let token_ids: Vec<Option<u32>> =
            tokenize(keyword).iter().map(|t| self.token_id(t)).collect();
        let idf = |id: Option<u32>| id.map_or(1.0, |i| self.idf[i as usize]);
        let norm_sq: f64 = token_ids.iter().map(|&id| idf(id) * idf(id)).sum();
        ACCUMULATORS.with(|acc| {
            let acc = &mut *acc.borrow_mut();
            acc.begin(self.len());
            // An out-of-vocabulary query token occurs in no document.
            for &id in token_ids.iter().flatten() {
                let w = self.idf[id as usize];
                for &doc in self.token_posting_list(id) {
                    acc.touch(doc).dot += w * w;
                }
            }
            for pos in grams
                .iter()
                .filter_map(|g| self.trigram_keys.binary_search(g).ok())
            {
                for &doc in self.trigram_posting_list(pos) {
                    acc.touch(doc).common += 1;
                }
            }
            let mut out = Vec::new();
            for doc in acc
                .touched
                .iter()
                .map(|&d| d as usize)
                .filter(|&d| admit(d))
            {
                let Slot { dot, common, .. } = acc.slots[doc];
                let dn = self.doc_norm_sq[doc];
                let cos = (norm_sq > 0.0 && dn > 0.0).then(|| dot / (norm_sq.sqrt() * dn.sqrt()));
                // Both trigram sets hold at least the padding trigram.
                let (g_start, g_end) = run(&self.trigram_ends, doc);
                let dice = 2.0 * common as f64 / (grams.len() + g_end - g_start) as f64;
                let best = cos.unwrap_or(0.0).max(dice);
                let text = self.doc_text(doc);
                let (short, long) = (norm.len().min(text.len()), norm.len().max(text.len()));
                let bound = 0.9 * short as f64 / long as f64;
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
                if similarity >= floor {
                    out.push((doc, similarity));
                }
            }
            out
        })
    }

    /// Append one unfinalized document. A token of the finalized
    /// dictionary keeps its id; a new one gets the next provisional id past
    /// it, remembered in `fresh` until [`KeywordIndex::finalize`] merges the
    /// new names in.
    fn add_document(&mut self, fresh: &mut HashMap<String, u32>, kind: u8, id: u32, text: &str) {
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
                    *fresh.entry(tok).or_insert_with_key(|tok| {
                        self.token_names.push(tok.clone());
                        next
                    })
                }
            };
            self.token_ids.push(id);
        }
        self.token_ends.push(self.token_ids.len() as u32);
        self.doc_trigrams.extend(packed_trigrams(&norm));
        self.trigram_ends.push(self.doc_trigrams.len() as u32);
    }

    /// True when the keyword would match (at or above the configured
    /// similarity floor) any indexed document belonging to one of the given
    /// relations. The live-ingestion cache survival rule uses this to decide
    /// whether a newly incorporated source could add keyword matches — and
    /// with them new Steiner terminals — to a cached query. The rule is only
    /// sound because this scores the very candidates and similarities a
    /// fresh [`KeywordIndex::matches`] call would: both run the same pass.
    pub fn keyword_matches_in(
        &self,
        keyword: &str,
        catalog: &Catalog,
        relations: &[RelationId],
        config: &MatchConfig,
    ) -> bool {
        let in_relations = |doc| {
            self.target_relation(doc, catalog)
                .is_some_and(|rel| relations.contains(&rel))
        };
        !self
            .scored(keyword, config.min_similarity, in_relations)
            .is_empty()
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
    /// is greater than `key`.
    fn upper_bound(&self, catalog: &Catalog, docs: Range<usize>, key: (u8, u32, u32)) -> usize {
        let (mut lo, mut hi) = (docs.start, docs.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.canonical_key_of(catalog, mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Merge the documents appended since the last finalize, `[base, n)`,
    /// into the finalized prefix `[0, base)`; [`KeywordIndex::build`] is the
    /// same merge with `base = 0`. Only the delta's documents are sorted or
    /// tokenised: the prefix is copied in runs and its postings are merged,
    /// not rebuilt.
    fn finalize(&mut self, catalog: &Catalog) {
        let (base, n) = (self.doc_norm_sq.len(), self.len());
        let base_tokens = self.idf.len();
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
            at.push(self.upper_bound(catalog, from..base, key));
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
            let mut text = std::mem::take(&mut self.text_blob).into_bytes();
            reorder(&mut text, &mut self.text_ends, &runs);
            self.text_blob = String::from_utf8(text).expect("documents split at char boundaries");
            reorder(&mut self.token_ids, &mut self.token_ends, &runs);
            reorder(&mut self.doc_trigrams, &mut self.trigram_ends, &runs);
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
        let delta_postings = count_postings(remap.len(), &new_of_delta, |doc, out| {
            tokens.clear();
            tokens.extend_from_slice(self.doc_token_ids(doc));
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
        let mut keys: Vec<u64> = new_of_delta
            .iter()
            .flat_map(|&doc| self.doc_trigram_keys(doc as usize))
            .chain(&self.trigram_keys)
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let position = |g: &u64| keys.binary_search(g).expect("merged trigram key") as u32;
        let delta_postings = count_postings(keys.len(), &new_of_delta, |doc, out| {
            out.extend(self.doc_trigram_keys(doc).iter().map(position));
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

/// Postings of `docs` (ascending document ids) by counting sort: `terms_of`
/// writes the distinct term ids (below `terms`) of one document, once per
/// document. Returns per-term end offsets and the flat ascending lists.
fn count_postings(
    terms: usize,
    docs: &[u32],
    mut terms_of: impl FnMut(usize, &mut Vec<u32>),
) -> (Vec<u32>, Vec<u32>) {
    let mut flat = Vec::new();
    let mut ends = Vec::with_capacity(docs.len());
    let mut cursor = vec![0u32; terms];
    for &doc in docs {
        let start = flat.len();
        terms_of(doc as usize, &mut flat);
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

fn normalize(text: &str) -> String {
    text.trim().to_lowercase()
}

/// Split into alphanumeric tokens; underscores and punctuation separate
/// tokens so that `entry_ac` matches the keyword "entry".
fn tokenize(text: &str) -> Vec<String> {
    normalize(text)
        .split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Sorted distinct packed character trigrams of the normalised text (with
/// word-boundary padding). Each of the three chars is a Unicode scalar
/// value (≤ `0x10FFFF` < 2²¹) packed into its own 21-bit lane, so packing
/// is injective and set operations over the keys equal set operations over
/// the original trigram strings.
fn packed_trigrams(text: &str) -> Vec<u64> {
    let padded = format!("  {}  ", normalize(text));
    let chars: Vec<char> = padded.chars().collect();
    if chars.len() < 3 {
        return Vec::new();
    }
    let mut grams: Vec<u64> = chars
        .windows(3)
        .map(|w| ((w[0] as u64) << 42) | ((w[1] as u64) << 21) | (w[2] as u64))
        .collect();
    grams.sort_unstable();
    grams.dedup();
    grams
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
            doc_trigrams: view.doc_trigrams.to_vec(),
            trigram_ends: view.trigram_ends.to_vec(),
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
    fn packed_trigrams_are_injective_over_scalars() {
        // Distinct trigram strings must pack to distinct keys.
        let a = packed_trigrams("abc");
        let b = packed_trigrams("abd");
        assert_ne!(a, b);
        // Empty text still yields the padding-only trigram, like the
        // string-set representation did.
        assert_eq!(packed_trigrams("").len(), 1);
        // Non-ASCII scalars stay in their 21-bit lanes.
        let uni = packed_trigrams("δοκιμή");
        assert!(!uni.is_empty());
        assert!(uni.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
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
