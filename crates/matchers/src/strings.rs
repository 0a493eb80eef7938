//! The string sub-matchers a COMA++-style composite matcher combines: token
//! overlap, character trigrams, normalised edit distance and containment.
//! A name is profiled once through [`q_storage::text`], and a pair is scored
//! from two profiles by merging sorted runs, with no per-pair sets.

use q_storage::text;

/// One name as the sub-matchers read it: the normalised name, its chars,
/// its sorted distinct tokens and its sorted distinct packed trigrams.
pub(crate) struct NameProfile {
    norm: String,
    chars: Vec<char>,
    tokens: Vec<String>,
    trigrams: Vec<u64>,
}

impl NameProfile {
    /// Profile one name.
    pub(crate) fn new(name: &str) -> Self {
        let norm = text::normalize(name);
        let mut tokens = text::tokenize(name);
        tokens.sort_unstable();
        tokens.dedup();
        NameProfile {
            chars: norm.chars().collect(),
            tokens,
            trigrams: text::packed_trigrams(name),
            norm,
        }
    }

    /// Jaccard similarity of the two token sets.
    pub(crate) fn token_jaccard(&self, other: &Self) -> f64 {
        if self.tokens.is_empty() || other.tokens.is_empty() {
            return 0.0;
        }
        let inter = shared(&self.tokens, &other.tokens);
        inter as f64 / (self.tokens.len() + other.tokens.len() - inter) as f64
    }

    /// Dice coefficient of the two trigram sets (each holds at least the
    /// padding trigram).
    pub(crate) fn trigram_dice(&self, other: &Self) -> f64 {
        let common = shared(&self.trigrams, &other.trigrams);
        2.0 * common as f64 / (self.trigrams.len() + other.trigrams.len()) as f64
    }

    /// Edit similarity: `1 - distance / max_len`, with the Levenshtein
    /// distance of the normalised chars.
    pub(crate) fn edit_similarity(&self, other: &Self) -> f64 {
        let (a, b) = (&self.chars, &other.chars);
        let max_len = a.len().max(b.len());
        if max_len == 0 {
            return 0.0;
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
        1.0 - prev[b.len()] as f64 / max_len as f64
    }

    /// Substring / prefix containment similarity (`pub` vs `publication`).
    pub(crate) fn containment(&self, other: &Self) -> f64 {
        let (a, b) = (&self.norm, &other.norm);
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        if a == b {
            return 1.0;
        }
        if a.contains(b.as_str()) || b.contains(a.as_str()) {
            a.len().min(b.len()) as f64 / a.len().max(b.len()) as f64
        } else {
            0.0
        }
    }
}

/// Size of the intersection of two sorted, distinct runs.
fn shared<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        n += usize::from(x == y);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles(a: &str, b: &str) -> (NameProfile, NameProfile) {
        (NameProfile::new(a), NameProfile::new(b))
    }

    fn token_jaccard(a: &str, b: &str) -> f64 {
        let (a, b) = profiles(a, b);
        a.token_jaccard(&b)
    }

    #[test]
    fn token_jaccard_identical_and_disjoint() {
        assert!((token_jaccard("entry_ac", "entry_ac") - 1.0).abs() < 1e-12);
        assert!((token_jaccard("entry_ac", "ac_entry") - 1.0).abs() < 1e-12);
        assert_eq!(token_jaccard("go_id", "title"), 0.0);
        assert!(token_jaccard("entry_ac", "entry_id") > 0.0);
        // Repeated tokens count once.
        assert_eq!(token_jaccard("id_id", "id"), 1.0);
    }

    fn edit_similarity(a: &str, b: &str) -> f64 {
        let (a, b) = profiles(a, b);
        a.edit_similarity(&b)
    }

    #[test]
    fn edit_similarity_is_one_minus_the_levenshtein_ratio() {
        assert_eq!(edit_similarity("kitten", "sitting"), 1.0 - 3.0 / 7.0);
        assert_eq!(edit_similarity("", "abc"), 0.0);
        assert_eq!(edit_similarity("abc", ""), 0.0);
        assert_eq!(edit_similarity("abc", "abc"), 1.0);
    }

    #[test]
    fn edit_similarity_is_bounded() {
        assert!((edit_similarity("acc", "acc") - 1.0).abs() < 1e-12);
        let s = edit_similarity("acc", "accession");
        assert!(s > 0.0 && s < 1.0);
        assert_eq!(edit_similarity("  ", ""), 0.0);
    }

    #[test]
    fn trigram_dice_detects_shared_substrings() {
        let dice = |a: &str, b: &str| {
            let (a, b) = profiles(a, b);
            a.trigram_dice(&b)
        };
        assert!(dice("go_id", "goid") > 0.3);
        assert!(dice("go_id", "title") < 0.2);
        assert!((dice("name", "name") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn containment_prefers_full_overlap() {
        let containment = |a: &str, b: &str| {
            let (a, b) = profiles(a, b);
            a.containment(&b)
        };
        assert!((containment("pub", "publication") - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(containment("pub", "title"), 0.0);
        assert_eq!(containment("pub", "pub"), 1.0);
        assert_eq!(containment("", ""), 0.0);
    }

    #[test]
    fn shared_counts_the_intersection_of_sorted_runs() {
        assert_eq!(shared(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), 2);
        assert_eq!(shared::<u64>(&[], &[1]), 0);
        assert_eq!(shared(&[1, 2], &[1, 2]), 2);
    }
}
