//! String-similarity primitives shared by the metadata matcher.
//!
//! These are the standard sub-matchers a COMA++-style composite matcher
//! combines: token overlap, character trigrams, normalised edit distance and
//! affix/substring containment.

use std::collections::HashSet;

/// Lower-case and keep only alphanumeric characters and separators.
pub fn normalize(name: &str) -> String {
    name.trim().to_lowercase()
}

/// Split an identifier into tokens on `_`, `-`, whitespace and digit/letter
/// boundaries (`entry_ac` -> `["entry", "ac"]`, `go_id` -> `["go", "id"]`).
pub fn tokenize(name: &str) -> Vec<String> {
    normalize(name)
        .split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Jaccard similarity between the token sets of two identifiers.
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    let ta: HashSet<String> = tokenize(a).into_iter().collect();
    let tb: HashSet<String> = tokenize(b).into_iter().collect();
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let inter = ta.intersection(&tb).count() as f64;
    let union = ta.union(&tb).count() as f64;
    inter / union
}

/// Character trigram set of a normalised identifier (with padding).
pub fn trigrams(name: &str) -> HashSet<String> {
    let padded = format!("  {}  ", normalize(name));
    let chars: Vec<char> = padded.chars().collect();
    let mut grams = HashSet::new();
    for w in chars.windows(3) {
        grams.insert(w.iter().collect());
    }
    grams
}

/// Dice coefficient over character trigrams.
pub fn trigram_dice(a: &str, b: &str) -> f64 {
    let ga = trigrams(a);
    let gb = trigrams(b);
    if ga.is_empty() || gb.is_empty() {
        return 0.0;
    }
    let common = ga.intersection(&gb).count() as f64;
    2.0 * common / (ga.len() + gb.len()) as f64
}

/// Levenshtein edit distance.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Edit similarity: `1 - distance / max_len`, on the normalised strings.
pub fn edit_similarity(a: &str, b: &str) -> f64 {
    let na = normalize(a);
    let nb = normalize(b);
    let max_len = na.chars().count().max(nb.chars().count());
    if max_len == 0 {
        return 0.0;
    }
    1.0 - edit_distance(&na, &nb) as f64 / max_len as f64
}

/// Substring / prefix containment similarity (`pub` vs `publication`).
pub fn containment(a: &str, b: &str) -> f64 {
    let na = normalize(a);
    let nb = normalize(b);
    if na.is_empty() || nb.is_empty() {
        return 0.0;
    }
    if na == nb {
        return 1.0;
    }
    if na.contains(&nb) || nb.contains(&na) {
        let shorter = na.len().min(nb.len()) as f64;
        let longer = na.len().max(nb.len()) as f64;
        shorter / longer
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_splits_identifiers() {
        assert_eq!(tokenize("entry_ac"), vec!["entry", "ac"]);
        assert_eq!(tokenize("GO ID"), vec!["go", "id"]);
        assert_eq!(tokenize("__"), Vec::<String>::new());
    }

    #[test]
    fn token_jaccard_identical_and_disjoint() {
        assert!((token_jaccard("entry_ac", "entry_ac") - 1.0).abs() < 1e-12);
        assert!((token_jaccard("entry_ac", "ac_entry") - 1.0).abs() < 1e-12);
        assert_eq!(token_jaccard("go_id", "title"), 0.0);
        assert!(token_jaccard("entry_ac", "entry_id") > 0.0);
    }

    #[test]
    fn edit_distance_classic_cases() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
    }

    #[test]
    fn edit_similarity_is_bounded() {
        assert!((edit_similarity("acc", "acc") - 1.0).abs() < 1e-12);
        let s = edit_similarity("acc", "accession");
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn trigram_dice_detects_shared_substrings() {
        assert!(trigram_dice("go_id", "goid") > 0.3);
        assert!(trigram_dice("go_id", "title") < 0.2);
        assert!((trigram_dice("name", "name") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn containment_prefers_full_overlap() {
        assert!((containment("pub", "publication") - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(containment("pub", "title"), 0.0);
        assert_eq!(containment("pub", "pub"), 1.0);
    }
}
