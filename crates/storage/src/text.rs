//! The one text model: how names, values and keywords become comparable
//! text. The keyword index, the metadata matcher, value normalisation and
//! the query cache's keys all call these functions, so a keyword, an
//! indexed document and a matched name are normalised by one rule.

/// Trim and lower-case.
pub fn normalize(text: &str) -> String {
    text.trim().to_lowercase()
}

/// Split into alphanumeric tokens; underscores and punctuation separate
/// tokens so that `entry_ac` matches the keyword "entry".
pub fn tokenize(text: &str) -> Vec<String> {
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
pub fn packed_trigrams(text: &str) -> Vec<u64> {
    distinct_trigrams(&format!("  {}  ", normalize(text)))
}

/// Sorted distinct packed character trigrams of `text` as it is (no
/// normalisation, no padding).
pub fn distinct_trigrams(text: &str) -> Vec<u64> {
    let chars: Vec<char> = text.chars().collect();
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

    #[test]
    fn tokenize_splits_identifiers() {
        assert_eq!(tokenize("entry_ac"), vec!["entry", "ac"]);
        assert_eq!(tokenize("GO ID"), vec!["go", "id"]);
        assert_eq!(tokenize("__"), Vec::<String>::new());
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
}
