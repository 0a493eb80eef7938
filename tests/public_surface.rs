//! Every product `pub fn` has a caller outside its own file.
//!
//! A use is `.NAME`, `::NAME`, `NAME(` or `NAME::<` on a line of another
//! file that is not a comment, not a `pub use` and not itself a `fn NAME`
//! definition. Callers are searched in `crates/*/{src,tests}`, `src`,
//! `tests`, `examples` and `benchmark/src`; the functions of `benchmark/src`
//! are callers only, never checked. Matching is by name, so a name defined
//! twice is used when either is.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifiers on `line` in call position: preceded by `.` or `::`, or
/// followed (after spaces) by `(` or `::<`.
fn called_names(line: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let mut rest = line;
    let mut offset = 0;
    while let Some(start) = rest.find(|c: char| is_ident(c)) {
        let begin = offset + start;
        let len = rest[start..]
            .find(|c: char| !is_ident(c))
            .unwrap_or(rest.len() - start);
        let name = &line[begin..begin + len];
        let before = &line[..begin];
        let after = line[begin + len..].trim_start();
        let qualified = before.ends_with('.') || before.ends_with("::");
        if qualified || after.starts_with('(') || after.starts_with("::<") {
            names.push(name);
        }
        offset = begin + len;
        rest = &line[offset..];
    }
    names
}

/// The names a line defines after `fn`, and the one it defines after `pub fn`.
fn defined_names(line: &str) -> (Vec<&str>, Option<&str>) {
    let words: Vec<&str> = line
        .split(|c: char| !is_ident(c))
        .filter(|w| !w.is_empty())
        .collect();
    let mut defined = Vec::new();
    let mut public = None;
    for (i, pair) in words.windows(2).enumerate() {
        if pair[0] == "fn" {
            defined.push(pair[1]);
            if i > 0 && words[i - 1] == "pub" {
                public = Some(pair[1]);
            }
        }
    }
    (defined, public)
}

#[test]
fn every_product_pub_fn_has_a_caller_in_another_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.unwrap().path())
        .collect();
    crates.sort();
    for krate in crates {
        rust_files(&krate.join("src"), &mut files);
        rust_files(&krate.join("tests"), &mut files);
    }
    for dir in ["src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 50, "the scan found the sources");

    // name -> the files that call it; (file, name) of every product pub fn.
    let mut callers: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    let mut public: Vec<(usize, String)> = Vec::new();
    let sources: Vec<String> = files
        .iter()
        .map(|f| fs::read_to_string(f).expect("source reads"))
        .collect();
    let benchmark = root.join("benchmark");
    for (file, source) in sources.iter().enumerate() {
        for line in source.lines() {
            let code = line.trim_start();
            if code.starts_with("//") || code.starts_with("pub use") {
                continue;
            }
            let (defined, pub_fn) = defined_names(code);
            if let Some(name) = pub_fn {
                if !files[file].starts_with(&benchmark) {
                    public.push((file, name.to_string()));
                }
            }
            for name in called_names(code) {
                if !defined.contains(&name) {
                    callers.entry(name).or_default().insert(file);
                }
            }
        }
    }

    let uncalled: Vec<String> = public
        .iter()
        .filter(|(file, name)| {
            callers
                .get(name.as_str())
                .is_none_or(|in_files| in_files.iter().all(|f| f == file))
        })
        .map(|(file, name)| {
            let path = files[*file].strip_prefix(root).unwrap();
            format!("{} {name}", path.display())
        })
        .collect();
    assert!(
        uncalled.is_empty(),
        "pub fns with no caller outside their own file (delete them, make them \
         private, or call them):\n{}",
        uncalled.join("\n")
    );
}
