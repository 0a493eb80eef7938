//! Deterministic word pools and identifier generators shared by the dataset
//! generators.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Biological-ish term fragments used to build names, titles and
/// descriptions. Combining fragments keeps the vocabulary realistic while
/// still producing the value overlaps the experiments rely on.
const TERM_WORDS: &[&str] = &[
    "plasma",
    "membrane",
    "kinase",
    "binding",
    "receptor",
    "transport",
    "nuclear",
    "signal",
    "transduction",
    "photosystem",
    "interleukin",
    "cytokine",
    "apoptosis",
    "mitochondrial",
    "ribosome",
    "transcription",
    "regulation",
    "glucose",
    "insulin",
    "secretion",
    "beta",
    "cell",
    "islet",
    "pancreatic",
    "oxidative",
    "stress",
    "protein",
    "domain",
    "helix",
    "zinc",
    "finger",
    "homeobox",
    "growth",
    "factor",
    "pathway",
    "metabolic",
    "lipid",
    "catalytic",
    "activity",
    "extracellular",
    "matrix",
    "adhesion",
    "channel",
    "calcium",
];

/// Journal-like names.
const JOURNAL_WORDS: &[&str] = &[
    "nature",
    "science",
    "cell",
    "bioinformatics",
    "nucleic",
    "acids",
    "research",
    "journal",
    "molecular",
    "biology",
    "proteomics",
    "genomics",
    "diabetes",
    "endocrinology",
];

/// Author-ish surnames for publication metadata.
const SURNAMES: &[&str] = &[
    "smith",
    "chen",
    "garcia",
    "mueller",
    "tanaka",
    "kumar",
    "rossi",
    "novak",
    "silva",
    "johansson",
    "kim",
    "dubois",
    "ivanov",
    "haddad",
    "okafor",
    "nguyen",
];

/// Evidence / category codes.
const CODES: &[&str] = &[
    "IDA", "IEA", "IMP", "IGI", "IPI", "ISS", "TAS", "NAS", "EXP", "HDA",
];

/// A zero-padded identifier such as `GO:0001234` or `IPR000042`.
pub fn padded_id(prefix: &str, number: usize, width: usize) -> String {
    format!("{prefix}{number:0width$}")
}

/// A phrase of `words` fragments drawn from a pool.
fn phrase(rng: &mut StdRng, pool: &[&str], words: usize) -> String {
    let mut parts = Vec::with_capacity(words);
    for _ in 0..words {
        parts.push(*pool.choose(rng).expect("non-empty pool"));
    }
    parts.join(" ")
}

/// A phrase of 2–4 term words (typical GO term / domain name length).
pub fn term_name(rng: &mut StdRng) -> String {
    let words = rng.gen_range(2..=4);
    phrase(rng, TERM_WORDS, words)
}

/// A publication-style title.
pub fn title(rng: &mut StdRng) -> String {
    let words = rng.gen_range(4..=8);
    phrase(rng, TERM_WORDS, words)
}

/// A journal name.
pub fn journal_name(rng: &mut StdRng) -> String {
    let words = rng.gen_range(2..=3);
    phrase(rng, JOURNAL_WORDS, words)
}

/// An author name.
pub fn author(rng: &mut StdRng) -> String {
    (*SURNAMES.choose(rng).expect("non-empty")).to_string()
}

/// An evidence code.
pub fn code(rng: &mut StdRng) -> String {
    (*CODES.choose(rng).expect("non-empty")).to_string()
}

/// A date string in `YYYY-MM-DD` form.
pub fn date(rng: &mut StdRng) -> String {
    format!(
        "{:04}-{:02}-{:02}",
        rng.gen_range(1998..=2009),
        rng.gen_range(1..=12),
        rng.gen_range(1..=28)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn padded_ids_have_fixed_width() {
        assert_eq!(padded_id("GO:", 42, 7), "GO:0000042");
        assert_eq!(padded_id("IPR", 7, 6), "IPR000007");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(term_name(&mut a), term_name(&mut b));
        assert_eq!(title(&mut a), title(&mut b));
        assert_eq!(date(&mut a), date(&mut b));
    }

    #[test]
    fn phrases_use_pool_words_only() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = term_name(&mut rng);
        for w in p.split(' ') {
            assert!(TERM_WORDS.contains(&w), "unexpected word {w}");
        }
    }
}
