//! Per-section payload encodings.
//!
//! Each section of a snapshot file is an independent byte string with its own
//! checksum; this module defines how every section's payload is laid out and
//! how it decodes back into the in-memory structures. Encoders walk the
//! borrowed accessors of the live structures; decoders validate every
//! invariant the `from_parts` constructors rely on (index bounds, monotone
//! offset arrays, matching column lengths) before reassembling, so a payload
//! that passes its checksum but violates an invariant still surfaces as a
//! typed [`SnapError::Corrupt`] rather than a panic or a partially-loaded
//! graph.
//!
//! The CSR section is the packed offset and target arrays behind two
//! length prefixes, so its on-disk length is exactly [`Csr::byte_size`]
//! plus 16 bytes — the adjacency half of the `/metrics` `q_snapshot_bytes`
//! gauge.

use q_graph::keyword::{KeywordIndex, KeywordIndexParts, KeywordIndexView};
use q_graph::{
    AssociationProvenance, Csr, Edge, EdgeId, EdgeKind, FeatureId, FeatureSpace, FeatureVector,
    Node, NodeId, SearchGraph, SearchGraphParts, WeightVector,
};
use q_storage::{
    Attribute, AttributeId, Catalog, ForeignKey, Relation, RelationId, Source, SourceId, Tuple,
    Value,
};

use crate::bytes::ByteWriter;
use crate::error::SnapError;
use crate::stream::SectionStream;
use std::io::Read;

// ----------------------------------------------------------------------
// Catalog section
// ----------------------------------------------------------------------

/// Encode the whole catalog: sources, relations (with their stored tuples),
/// attributes and foreign keys, each in id order.
///
/// Tuple values are stored **columnar per relation** — a tag byte per value,
/// the numeric bit patterns, and all text concatenated into one blob with
/// end offsets — so the hot boot path decodes a relation's data with four
/// bulk reads and one UTF-8 validation instead of three small reads per
/// value. Tuples carry no per-tuple arity: it is the relation's arity.
pub fn encode_catalog(cat: &Catalog) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(cat.sources().len() as u64);
    for s in cat.sources() {
        w.u32(s.id.0);
        w.str(&s.name);
        w.u64(s.relations.len() as u64);
        for r in &s.relations {
            w.u32(r.0);
        }
    }
    w.u64(cat.relations().len() as u64);
    for rel in cat.relations() {
        w.u32(rel.id.0);
        w.u32(rel.source.0);
        w.str(&rel.name);
        w.u64(rel.attributes.len() as u64);
        for a in &rel.attributes {
            w.u32(a.0);
        }
        w.u64(rel.tuples.len() as u64);
        let mut tags = Vec::with_capacity(rel.tuples.len() * rel.attributes.len());
        let mut nums: Vec<u64> = Vec::new();
        let mut text_ends: Vec<u32> = Vec::new();
        let mut blob: Vec<u8> = Vec::new();
        for t in &rel.tuples {
            debug_assert_eq!(t.arity(), rel.attributes.len());
            for v in t.values() {
                match v {
                    Value::Null => tags.push(0),
                    Value::Int(i) => {
                        tags.push(1);
                        nums.push(*i as u64);
                    }
                    Value::Float(x) => {
                        tags.push(2);
                        nums.push(x.to_bits());
                    }
                    Value::Text(s) => {
                        tags.push(3);
                        blob.extend_from_slice(s.as_bytes());
                        text_ends
                            .push(u32::try_from(blob.len()).expect("relation text under 4 GiB"));
                    }
                }
            }
        }
        w.vec_u8(&tags);
        w.vec_u64(&nums);
        w.vec_u32(&text_ends);
        w.vec_u8(&blob);
    }
    w.u64(cat.attributes().len() as u64);
    for a in cat.attributes() {
        w.u32(a.id.0);
        w.u32(a.relation.0);
        w.str(&a.name);
        w.u64(a.position as u64);
    }
    w.u64(cat.foreign_keys().len() as u64);
    for fk in cat.foreign_keys() {
        w.u32(fk.from.0);
        w.u32(fk.to.0);
    }
    w.into_bytes()
}

/// Decode one relation's columnar tuple block back into owned tuples.
fn decode_tuples(
    r: &mut SectionStream<'_, impl Read>,
    arity: usize,
) -> Result<Vec<Tuple>, SnapError> {
    let n_tuples = r.record_count(arity)?;
    let tags = r.vec_u8()?;
    let nums = r.vec_u64()?;
    let text_ends = r.vec_u32()?;
    let blob_bytes = r.vec_u8()?;
    if Some(tags.len()) != n_tuples.checked_mul(arity) {
        return Err(SnapError::Corrupt {
            context: "tuple tags do not tile the relation",
        });
    }
    let blob = String::from_utf8(blob_bytes).map_err(|_| SnapError::Corrupt {
        context: "tuple text blob is not utf-8",
    })?;
    // Everything else validates inside the single materialization pass:
    // unknown tags surface from the match, column over/underruns from the
    // iterators, and non-monotone or char-splitting text offsets from
    // `str::get` returning None.
    let mut tuples = Vec::with_capacity(n_tuples);
    if arity == 0 {
        tuples.resize_with(n_tuples, Tuple::default);
        return Ok(tuples);
    }
    let corrupt = |context| SnapError::Corrupt { context };
    let mut nums_it = nums.iter();
    let mut ends_it = text_ends.iter();
    let mut start = 0usize;
    for chunk in tags.chunks_exact(arity) {
        let mut values = Vec::with_capacity(arity);
        for &tag in chunk {
            values.push(match tag {
                0 => Value::Null,
                1 => Value::Int(
                    *nums_it
                        .next()
                        .ok_or_else(|| corrupt("tuple value columns disagree with tags"))?
                        as i64,
                ),
                2 => Value::Float(f64::from_bits(
                    *nums_it
                        .next()
                        .ok_or_else(|| corrupt("tuple value columns disagree with tags"))?,
                )),
                3 => {
                    let end = *ends_it
                        .next()
                        .ok_or_else(|| corrupt("tuple value columns disagree with tags"))?
                        as usize;
                    let text = blob
                        .get(start..end)
                        .ok_or_else(|| corrupt("tuple text offsets do not tile the blob"))?;
                    start = end;
                    Value::Text(text.to_string())
                }
                _ => return Err(corrupt("unknown value tag")),
            });
        }
        tuples.push(Tuple::new(values));
    }
    if nums_it.next().is_some() || ends_it.next().is_some() || start != blob.len() {
        return Err(corrupt("tuple value columns disagree with tags"));
    }
    Ok(tuples)
}

/// Decode a catalog section from the snapshot stream.
pub fn decode_catalog(r: &mut SectionStream<'_, impl Read>) -> Result<Catalog, SnapError> {
    let n_sources = r.record_count(5)?;
    let mut sources = Vec::with_capacity(n_sources);
    for i in 0..n_sources {
        let id = r.u32()?;
        if id as usize != i {
            return Err(SnapError::Corrupt {
                context: "source ids out of order",
            });
        }
        let name = r.str()?;
        let relations = r.vec_u32()?.into_iter().map(RelationId).collect::<Vec<_>>();
        sources.push(Source {
            id: SourceId(id),
            name,
            relations,
        });
    }
    let n_relations = r.record_count(9)?;
    let mut relations = Vec::with_capacity(n_relations);
    for i in 0..n_relations {
        let id = r.u32()?;
        if id as usize != i {
            return Err(SnapError::Corrupt {
                context: "relation ids out of order",
            });
        }
        let source = SourceId(r.u32()?);
        if source.index() >= n_sources {
            return Err(SnapError::Corrupt {
                context: "relation references unknown source",
            });
        }
        let name = r.str()?;
        let attributes = r
            .vec_u32()?
            .into_iter()
            .map(AttributeId)
            .collect::<Vec<_>>();
        let tuples = decode_tuples(r, attributes.len())?;
        relations.push(Relation {
            id: RelationId(id),
            source,
            name,
            attributes,
            tuples,
        });
    }
    let n_attributes = r.record_count(13)?;
    let mut attributes = Vec::with_capacity(n_attributes);
    for i in 0..n_attributes {
        let id = r.u32()?;
        if id as usize != i {
            return Err(SnapError::Corrupt {
                context: "attribute ids out of order",
            });
        }
        let relation = RelationId(r.u32()?);
        if relation.index() >= n_relations {
            return Err(SnapError::Corrupt {
                context: "attribute references unknown relation",
            });
        }
        let name = r.str()?;
        let position = r.u64()? as usize;
        attributes.push(Attribute {
            id: AttributeId(id),
            relation,
            name,
            position,
        });
    }
    // Relations' attribute lists must point inside the attribute table.
    for rel in &relations {
        if rel.attributes.iter().any(|a| a.index() >= n_attributes) {
            return Err(SnapError::Corrupt {
                context: "relation references unknown attribute",
            });
        }
    }
    for src in &sources {
        if src.relations.iter().any(|r| r.index() >= n_relations) {
            return Err(SnapError::Corrupt {
                context: "source references unknown relation",
            });
        }
    }
    let n_fks = r.record_count(8)?;
    let mut foreign_keys = Vec::with_capacity(n_fks);
    for _ in 0..n_fks {
        let from = AttributeId(r.u32()?);
        let to = AttributeId(r.u32()?);
        if from.index() >= n_attributes || to.index() >= n_attributes {
            return Err(SnapError::Corrupt {
                context: "foreign key references unknown attribute",
            });
        }
        foreign_keys.push(ForeignKey::new(from, to));
    }
    r.expect_end()?;
    Ok(Catalog::from_parts(
        sources,
        relations,
        attributes,
        foreign_keys,
    ))
}

// ----------------------------------------------------------------------
// Search graph section (nodes, edges, cost model — CSR lives in its own
// section)
// ----------------------------------------------------------------------

fn encode_node(w: &mut ByteWriter, node: &Node) {
    match node {
        Node::Relation(r) => {
            w.u8(0);
            w.u32(r.0);
        }
        Node::Attribute(a) => {
            w.u8(1);
            w.u32(a.0);
        }
        Node::Value { attribute, value } => {
            w.u8(2);
            w.u32(attribute.0);
            w.str(value);
        }
        Node::Keyword(k) => {
            w.u8(3);
            w.str(k);
        }
    }
}

fn decode_node(r: &mut SectionStream<'_, impl Read>) -> Result<Node, SnapError> {
    Ok(match r.u8()? {
        0 => Node::Relation(RelationId(r.u32()?)),
        1 => Node::Attribute(AttributeId(r.u32()?)),
        2 => Node::Value {
            attribute: AttributeId(r.u32()?),
            value: r.str()?,
        },
        3 => Node::Keyword(r.str()?),
        _ => {
            return Err(SnapError::Corrupt {
                context: "unknown node tag",
            })
        }
    })
}

fn edge_kind_tag(kind: EdgeKind) -> u8 {
    match kind {
        EdgeKind::AttributeRelation => 0,
        EdgeKind::ForeignKey => 1,
        EdgeKind::Association => 2,
        EdgeKind::KeywordMatch => 3,
        EdgeKind::ValueAttribute => 4,
        EdgeKind::KeywordValue => 5,
    }
}

fn edge_kind_from_tag(tag: u8) -> Result<EdgeKind, SnapError> {
    Ok(match tag {
        0 => EdgeKind::AttributeRelation,
        1 => EdgeKind::ForeignKey,
        2 => EdgeKind::Association,
        3 => EdgeKind::KeywordMatch,
        4 => EdgeKind::ValueAttribute,
        5 => EdgeKind::KeywordValue,
        _ => {
            return Err(SnapError::Corrupt {
                context: "unknown edge kind tag",
            })
        }
    })
}

/// Encode the search graph minus its CSR: nodes, edges with feature vectors,
/// the feature space, the learned weights and epoch, and association
/// provenance.
pub fn encode_graph(graph: &SearchGraph) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(graph.node_count() as u64);
    for (_, node) in graph.nodes() {
        encode_node(&mut w, node);
    }
    w.u64(graph.edge_count() as u64);
    for (i, edge) in graph.edges().iter().enumerate() {
        // Edge ids are dense and equal to their position, so they are not
        // persisted.
        debug_assert_eq!(edge.id.index(), i);
        w.u32(edge.a.0);
        w.u32(edge.b.0);
        w.u8(edge_kind_tag(edge.kind));
        let entries: Vec<(FeatureId, f64)> = edge.features.iter().collect();
        w.u32(entries.len() as u32);
        for (f, v) in entries {
            w.u32(f.0);
            w.f64(v);
        }
    }
    let space = graph.feature_space();
    w.u64(space.names().len() as u64);
    for name in space.names() {
        w.str(name);
    }
    w.vec_f64(space.default_weight_slice());
    w.vec_f64(graph.weights().as_slice());
    w.u64(graph.weight_epoch());
    let provenance = graph.provenance_sorted();
    w.u64(provenance.len() as u64);
    for (edge, entries) in provenance {
        w.u32(edge.0);
        w.u32(entries.len() as u32);
        for p in entries {
            w.str(&p.matcher);
            w.f64(p.confidence);
        }
    }
    w.into_bytes()
}

/// Decode a graph section: every part of the search graph but its CSR,
/// which has a section of its own and joins through [`join_graph`].
pub fn decode_graph(r: &mut SectionStream<'_, impl Read>) -> Result<SearchGraphParts, SnapError> {
    let n_nodes = r.record_count(5)?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        nodes.push(decode_node(r)?);
    }
    let n_edges = r.record_count(9)?;
    let mut edges = Vec::with_capacity(n_edges);
    for i in 0..n_edges {
        let a = NodeId(r.u32()?);
        let b = NodeId(r.u32()?);
        // Reconstruction indexes nodes by endpoint, so dangling endpoints
        // must be rejected here.
        if a.index() >= n_nodes || b.index() >= n_nodes {
            return Err(SnapError::Corrupt {
                context: "edge endpoint out of range",
            });
        }
        let kind = edge_kind_from_tag(r.u8()?)?;
        let n_entries = r.u32()? as usize;
        if n_entries
            .checked_mul(12)
            .is_none_or(|sz| sz > r.remaining())
        {
            return Err(SnapError::Truncated { context: "graph" });
        }
        let mut pairs = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            pairs.push((FeatureId(r.u32()?), r.f64()?));
        }
        edges.push(Edge {
            id: EdgeId(i as u32),
            a,
            b,
            kind,
            features: FeatureVector::from_pairs(pairs),
        });
    }
    let n_features = r.record_count(4)?;
    let mut names = Vec::with_capacity(n_features);
    for _ in 0..n_features {
        names.push(r.str()?);
    }
    let default_weights = r.vec_f64()?;
    if default_weights.len() != n_features {
        return Err(SnapError::Corrupt {
            context: "feature names and default weights disagree",
        });
    }
    let weights = r.vec_f64()?;
    let weight_epoch = r.u64()?;
    let n_prov = r.record_count(8)?;
    let mut provenance = Vec::with_capacity(n_prov);
    for _ in 0..n_prov {
        let edge = EdgeId(r.u32()?);
        if edge.index() >= n_edges {
            return Err(SnapError::Corrupt {
                context: "provenance references unknown edge",
            });
        }
        let n_entries = r.u32()? as usize;
        if n_entries
            .checked_mul(12)
            .is_none_or(|sz| sz > r.remaining())
        {
            return Err(SnapError::Truncated { context: "graph" });
        }
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            entries.push(AssociationProvenance {
                matcher: r.str()?,
                confidence: r.f64()?,
            });
        }
        provenance.push((edge, entries));
    }
    r.expect_end()?;
    Ok(SearchGraphParts {
        nodes,
        edges,
        csr: Csr::default(),
        features: FeatureSpace::from_parts(names, default_weights),
        weights: WeightVector::from_raw(weights),
        weight_epoch,
        provenance,
    })
}

/// Join a decoded graph section with the CSR of its own section. The CSR
/// decoder already checked that the offsets are a monotone prefix sum over
/// the targets; here they must also span exactly the graph's nodes, so
/// every `neighbors` slice is in bounds.
pub fn join_graph(mut parts: SearchGraphParts, csr: Csr) -> Result<SearchGraph, SnapError> {
    let offsets = csr.offsets();
    let spans_nodes = (offsets.is_empty() && parts.nodes.is_empty())
        || (offsets.len() == parts.nodes.len() + 1 && offsets.first() == Some(&0));
    if !spans_nodes {
        return Err(SnapError::Corrupt {
            context: "graph csr",
        });
    }
    if csr.entry_count() > 2 * parts.edges.len() {
        return Err(SnapError::Corrupt {
            context: "graph csr holds more entries than edges allow",
        });
    }
    parts.csr = csr;
    Ok(SearchGraph::from_parts(parts))
}

// ----------------------------------------------------------------------
// CSR sections
// ----------------------------------------------------------------------

/// Encode the global CSR section: the offsets and targets lengths as two
/// `u64` prefixes, then `offsets` as little-endian `u32`s and `targets` as
/// `(u32 edge, u32 node)` pairs. The payload is therefore exactly
/// [`Csr::byte_size`] + 16 bytes, which is what lets the on-disk section
/// size reconcile byte-for-byte with the in-memory `q_snapshot_bytes`
/// accounting.
pub fn encode_graph_csr(csr: &Csr) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(csr.byte_size() + 16);
    w.u64(csr.offsets().len() as u64);
    w.u64(csr.targets().len() as u64);
    for o in csr.offsets() {
        w.u32(*o);
    }
    for (e, n) in csr.targets() {
        w.u32(e.0);
        w.u32(n.0);
    }
    debug_assert_eq!(w.len(), csr.byte_size() + 16);
    w.into_bytes()
}

/// Decode the global CSR section. Both arrays are read in bulk, straight
/// off the stream.
pub fn decode_graph_csr(r: &mut SectionStream<'_, impl Read>) -> Result<Csr, SnapError> {
    const CONTEXT: &str = "graph csr";
    let offsets_len = r.u64()?;
    let targets_len = r.u64()?;
    let expected = offsets_len
        .checked_mul(4)
        .and_then(|o| targets_len.checked_mul(8).and_then(|t| o.checked_add(t)));
    if expected != Some(r.remaining() as u64) {
        return Err(SnapError::Corrupt { context: CONTEXT });
    }
    let offsets = r.u32s(offsets_len)?;
    let targets: Vec<(EdgeId, NodeId)> = r
        .u32s(2 * targets_len)?
        .chunks_exact(2)
        .map(|pair| (EdgeId(pair[0]), NodeId(pair[1])))
        .collect();
    if offsets.last().copied().unwrap_or(0) as usize != targets.len()
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(SnapError::Corrupt { context: CONTEXT });
    }
    Ok(Csr::from_parts(offsets, targets))
}

// ----------------------------------------------------------------------
// Keyword index section
// ----------------------------------------------------------------------

/// Encode the keyword index's columnar state.
pub fn encode_keyword(view: &KeywordIndexView<'_>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.vec_u8(view.target_kinds);
    w.vec_u32(view.target_ids);
    w.vec_u8(view.text_blob.as_bytes());
    w.vec_u32(view.text_ends);
    w.vec_u32(view.token_ids);
    w.vec_u32(view.token_ends);
    w.vec_u32(view.trigram_counts);
    // Token names are stored as one blob plus end offsets (not 90k+
    // length-prefixed strings): one bulk read and one UTF-8 validation on
    // the boot path.
    let mut name_blob: Vec<u8> = Vec::new();
    let mut name_ends: Vec<u32> = Vec::with_capacity(view.token_names.len());
    for name in view.token_names {
        name_blob.extend_from_slice(name.as_bytes());
        name_ends.push(u32::try_from(name_blob.len()).expect("token names under 4 GiB"));
    }
    w.vec_u8(&name_blob);
    w.vec_u32(&name_ends);
    w.vec_u32(view.token_postings);
    w.vec_u32(view.token_posting_ends);
    w.vec_u64(view.trigram_keys);
    w.vec_u32(view.trigram_postings);
    w.vec_u32(view.trigram_posting_ends);
    w.vec_f64(view.idf);
    w.vec_f64(view.doc_norm_sq);
    w.into_bytes()
}

/// End-offset arrays must be monotone and land exactly on the flat array's
/// length, or run-slicing would panic.
fn validate_ends(ends: &[u32], flat_len: usize, context: &'static str) -> Result<(), SnapError> {
    let monotone = ends.windows(2).all(|w| w[0] <= w[1]);
    if monotone && ends.last().copied().unwrap_or(0) as usize == flat_len {
        Ok(())
    } else {
        Err(SnapError::Corrupt { context })
    }
}

/// Decode a keyword section back into a servable index.
///
/// Takes the snapshot stream directly: the big flat arrays (trigrams,
/// postings) are read straight into their final allocations so each byte is
/// touched exactly once on the boot path.
pub fn decode_keyword(r: &mut SectionStream<'_, impl Read>) -> Result<KeywordIndex, SnapError> {
    let target_kinds = r.vec_u8()?;
    let target_ids = r.vec_u32()?;
    let text_blob = String::from_utf8(r.vec_u8()?).map_err(|_| SnapError::Corrupt {
        context: "keyword text blob is not utf-8",
    })?;
    let text_ends = r.vec_u32()?;
    let token_ids = r.vec_u32()?;
    let token_ends = r.vec_u32()?;
    let trigram_counts = r.vec_u32()?;
    let name_blob = String::from_utf8(r.vec_u8()?).map_err(|_| SnapError::Corrupt {
        context: "keyword token names are not utf-8",
    })?;
    let name_ends = r.vec_u32()?;
    let n_tokens = name_ends.len();
    let mut token_names = Vec::with_capacity(n_tokens);
    let mut name_start = 0usize;
    for &end in &name_ends {
        let name = name_blob
            .get(name_start..end as usize)
            .ok_or(SnapError::Corrupt {
                context: "keyword token name offsets do not tile the blob",
            })?;
        name_start = end as usize;
        token_names.push(name.to_string());
    }
    if name_start != name_blob.len() {
        return Err(SnapError::Corrupt {
            context: "keyword token name offsets do not tile the blob",
        });
    }
    let token_postings = r.vec_u32()?;
    let token_posting_ends = r.vec_u32()?;
    let trigram_keys = r.vec_u64()?;
    let trigram_postings = r.vec_u32()?;
    let trigram_posting_ends = r.vec_u32()?;
    let idf = r.vec_f64()?;
    let doc_norm_sq = r.vec_f64()?;
    r.expect_end()?;

    let docs = target_kinds.len();
    if target_ids.len() != docs
        || text_ends.len() != docs
        || token_ends.len() != docs
        || trigram_counts.len() != docs
        || doc_norm_sq.len() != docs
    {
        return Err(SnapError::Corrupt {
            context: "keyword document columns disagree on length",
        });
    }
    if idf.len() != n_tokens || token_posting_ends.len() != n_tokens {
        return Err(SnapError::Corrupt {
            context: "keyword token columns disagree on length",
        });
    }
    if trigram_posting_ends.len() != trigram_keys.len() {
        return Err(SnapError::Corrupt {
            context: "keyword trigram columns disagree on length",
        });
    }
    validate_ends(&text_ends, text_blob.len(), "keyword text offsets")?;
    validate_ends(&token_ends, token_ids.len(), "keyword token offsets")?;
    validate_ends(
        &token_posting_ends,
        token_postings.len(),
        "keyword token posting offsets",
    )?;
    validate_ends(
        &trigram_posting_ends,
        trigram_postings.len(),
        "keyword trigram posting offsets",
    )?;
    // Every (document, trigram) pair is one trigram posting, so the
    // per-document counts must add up to the postings.
    if trigram_counts.iter().map(|&c| c as u64).sum::<u64>() != trigram_postings.len() as u64 {
        return Err(SnapError::Corrupt {
            context: "keyword trigram counts disagree with the trigram postings",
        });
    }
    // Text runs are sliced as &str, so every boundary must fall on a char
    // boundary.
    if text_ends
        .iter()
        .any(|&e| !text_blob.is_char_boundary(e as usize))
    {
        return Err(SnapError::Corrupt {
            context: "keyword text offset splits a utf-8 character",
        });
    }
    if token_ids.iter().any(|&t| t as usize >= n_tokens) {
        return Err(SnapError::Corrupt {
            context: "keyword token id out of range",
        });
    }
    if token_postings
        .iter()
        .chain(trigram_postings.iter())
        .any(|&d| d as usize >= docs)
    {
        return Err(SnapError::Corrupt {
            context: "keyword posting references unknown document",
        });
    }
    Ok(KeywordIndex::from_parts(KeywordIndexParts {
        target_kinds,
        target_ids,
        text_blob,
        text_ends,
        token_ids,
        token_ends,
        trigram_counts,
        token_names,
        token_postings,
        token_posting_ends,
        trigram_keys,
        trigram_postings,
        trigram_posting_ends,
        idf,
        doc_norm_sq,
    }))
}

#[cfg(test)]
mod tests {
    // The closures handed to `streamed` look redundant but are not — see its
    // doc comment.
    #![allow(clippy::redundant_closure)]

    use super::*;
    use q_storage::{RelationSpec, SourceSpec};
    use std::io::Cursor;

    /// Drive a stream decoder over an in-memory payload, the way
    /// `read_snapshot` drives it over a file. Callers wrap the decoder fn in
    /// a closure (not "redundant": the fn items only implement `FnOnce` for
    /// one concrete stream lifetime, not the higher-ranked bound this
    /// signature needs).
    fn streamed<T>(
        bytes: &[u8],
        context: &'static str,
        decode: impl FnOnce(&mut SectionStream<'_, Cursor<&[u8]>>) -> Result<T, SnapError>,
    ) -> Result<T, SnapError> {
        let mut cursor = Cursor::new(bytes);
        let mut stream = SectionStream::new(&mut cursor, bytes.len(), context);
        decode(&mut stream)
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
                RelationSpec::new("interpro2go", &["entry_ac", "go_id"])
                    .row(["IPR000001", "GO:0005134"]),
            )
            .foreign_key("interpro2go.go_id", "go_term.acc")
            .load_into(&mut cat)
            .unwrap();
        cat
    }

    #[test]
    fn catalog_round_trips() {
        let cat = catalog();
        let bytes = encode_catalog(&cat);
        let back = streamed(&bytes, "catalog", |s| decode_catalog(s)).unwrap();
        assert_eq!(back.sources(), cat.sources());
        assert_eq!(back.relations(), cat.relations());
        assert_eq!(back.attributes(), cat.attributes());
        assert_eq!(back.foreign_keys(), cat.foreign_keys());
        assert_eq!(
            back.source_by_name("interpro").unwrap().id,
            cat.source_by_name("interpro").unwrap().id,
        );
    }

    #[test]
    fn columnar_tuples_round_trip_every_value_kind() {
        // The spec builders only produce Text values, so hand-assemble a
        // catalog exercising all four tags, multi-byte UTF-8, the empty
        // string, and a zero-arity relation (whose tuple count survives with
        // no value columns at all).
        let mixed = Relation {
            id: RelationId(0),
            source: SourceId(0),
            name: "mixed".into(),
            attributes: vec![AttributeId(0), AttributeId(1), AttributeId(2)],
            tuples: vec![
                Tuple::new(vec![
                    Value::Int(-7),
                    Value::Text("plasma Δμ membrane".into()),
                    Value::Float(0.25),
                ]),
                Tuple::new(vec![
                    Value::Null,
                    Value::Text(String::new()),
                    Value::Int(i64::MIN),
                ]),
                Tuple::new(vec![
                    Value::Float(f64::NEG_INFINITY),
                    Value::Text("κιν".into()),
                    Value::Null,
                ]),
            ],
        };
        let empty_arity = Relation {
            id: RelationId(1),
            source: SourceId(0),
            name: "unit".into(),
            attributes: vec![],
            tuples: vec![Tuple::default(); 3],
        };
        let cat = Catalog::from_parts(
            vec![Source {
                id: SourceId(0),
                name: "synthetic".into(),
                relations: vec![RelationId(0), RelationId(1)],
            }],
            vec![mixed, empty_arity],
            (0..3)
                .map(|i| Attribute {
                    id: AttributeId(i),
                    relation: RelationId(0),
                    name: format!("a{i}"),
                    position: i as usize,
                })
                .collect(),
            vec![],
        );
        let bytes = encode_catalog(&cat);
        let back = streamed(&bytes, "catalog", |s| decode_catalog(s)).unwrap();
        assert_eq!(back.relations(), cat.relations());
        assert_eq!(back.sources(), cat.sources());
    }

    #[test]
    fn graph_round_trips_including_costs_and_provenance() {
        let cat = catalog();
        let mut graph = SearchGraph::from_catalog(&cat);
        let a = cat.resolve_qualified("go_term.acc").unwrap();
        let b = cat.resolve_qualified("interpro2go.go_id").unwrap();
        graph.add_association(a, b, "mad", 0.83);
        let parts = streamed(&encode_graph(&graph), "graph", |s| decode_graph(s)).unwrap();
        let csr_bytes = encode_graph_csr(graph.csr());
        let csr = streamed(&csr_bytes, "graph csr", |s| decode_graph_csr(s)).unwrap();
        let back = join_graph(parts, csr).unwrap();
        assert_eq!(back.node_count(), graph.node_count());
        assert_eq!(back.edge_count(), graph.edge_count());
        assert_eq!(back.weight_epoch(), graph.weight_epoch());
        assert_eq!(back.weights(), graph.weights());
        assert_eq!(back.edges(), graph.edges());
        assert_eq!(back.csr().offsets(), graph.csr().offsets());
        assert_eq!(back.csr().targets(), graph.csr().targets());
        assert_eq!(back.provenance_sorted(), graph.provenance_sorted());
    }

    #[test]
    fn keyword_round_trips_to_an_identical_view() {
        let cat = catalog();
        let index = KeywordIndex::build(&cat);
        let bytes = encode_keyword(&index.view());
        let back = streamed(&bytes, "keyword index", |s| decode_keyword(s)).unwrap();
        assert_eq!(back.view(), index.view());
    }

    #[test]
    fn trigram_counts_that_miss_the_postings_are_corrupt() {
        let cat = catalog();
        let index = KeywordIndex::build(&cat);
        let view = index.view();
        for delta in [1i64, -1] {
            let mut counts = view.trigram_counts.to_vec();
            counts[0] = (counts[0] as i64 + delta) as u32;
            let bytes = encode_keyword(&KeywordIndexView {
                trigram_counts: &counts,
                ..view
            });
            assert!(matches!(
                streamed(&bytes, "keyword index", |s| decode_keyword(s)),
                Err(SnapError::Corrupt { context })
                    if context == "keyword trigram counts disagree with the trigram postings"
            ));
        }
        // A count column of the wrong length is caught before the sum.
        let short = &view.trigram_counts[1..];
        let bytes = encode_keyword(&KeywordIndexView {
            trigram_counts: short,
            ..view
        });
        assert!(matches!(
            streamed(&bytes, "keyword index", |s| decode_keyword(s)),
            Err(SnapError::Corrupt { context })
                if context == "keyword document columns disagree on length"
        ));
    }

    #[test]
    fn graph_csr_payload_is_byte_size_plus_two_prefixes() {
        let cat = catalog();
        let graph = SearchGraph::from_catalog(&cat);
        let bytes = encode_graph_csr(graph.csr());
        assert_eq!(bytes.len(), graph.csr().byte_size() + 16);
        let back = streamed(&bytes, "graph csr", |s| decode_graph_csr(s)).unwrap();
        assert_eq!(back.offsets(), graph.csr().offsets());
        assert_eq!(back.targets(), graph.csr().targets());
    }

    #[test]
    fn dangling_edge_endpoint_is_corrupt() {
        let cat = catalog();
        let graph = SearchGraph::from_catalog(&cat);
        let mut bytes = encode_graph(&graph);
        // Overwrite the first edge's `a` endpoint (right after the node
        // table) with an out-of-range id.
        let edge_a_pos = streamed(&bytes, "scan", |s| {
            let n_nodes = s.u64()?;
            for _ in 0..n_nodes {
                decode_node(s)?;
            }
            s.u64()?; // edge count
            Ok(bytes.len() - s.remaining())
        })
        .unwrap();
        bytes[edge_a_pos..edge_a_pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            streamed(&bytes, "graph", |s| decode_graph(s)),
            Err(SnapError::Corrupt {
                context: "edge endpoint out of range"
            })
        ));
    }
}
