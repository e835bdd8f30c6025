//! Docs-drift check: every name the prose documents put in backticks must
//! still exist in the tree.
//!
//! Three kinds of backticked name in DESIGN.md, README.md and EXPERIMENTS.md
//! are resolved against the sources (`crates/ src/ tests/ examples/
//! benchmark/src ci/ .github/`):
//!
//! * a `*.rs` path must name a source file (a suffix of its path, so
//!   `flush.rs` and `crates/runtime/src/flush.rs` both resolve);
//! * the last segment of an `a::b` path must occur as an identifier;
//! * a snake_case identifier containing `_` must occur as an identifier or
//!   a path component (one ending in `_`, the stem of a glob like
//!   `term.resolved_*`, as a prefix of one).
//!
//! Fenced code blocks are skipped: they hold commands and output, not
//! names. A failure lists every dangling name with the document it is in.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];
const SOURCE_DIRS: [&str; 7] = [
    "crates",
    "src",
    "tests",
    "examples",
    "benchmark/src",
    "ci",
    ".github",
];

/// Every file under `dir`, build outputs excluded.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if entry.file_name() != "target" {
                walk(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

/// Maximal runs of identifier characters.
fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

fn is_snake_with_underscore(w: &str) -> bool {
    w.contains('_')
        && w.chars().any(|c| c.is_ascii_lowercase())
        && w.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// The inline code spans of a markdown document, outside fenced blocks.
fn code_spans(doc: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2));
        }
    }
    spans
}

/// The names a code span documents, each with the kind it must resolve as.
fn names(span: &str) -> Vec<Name> {
    let mut out = Vec::new();
    for word in span.split_whitespace() {
        if let Some(end) = word.find(".rs") {
            let path = word[..end + 3].trim_start_matches(|c: char| "([{'\"".contains(c));
            out.push(Name::File(path.to_string()));
        }
    }
    // `a::b` paths: the identifier after each run of `::`-joined segments.
    let bytes = span.as_bytes();
    let mut i = 0;
    while let Some(at) = span[i..].find("::") {
        let after = i + at + 2;
        let last: String = span[after..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let chained = span[after + last.len()..].starts_with("::");
        let before_ok = i + at > 0 && {
            let c = bytes[i + at - 1];
            c.is_ascii_alphanumeric() || c == b'_' || c == b'>'
        };
        if before_ok && !last.is_empty() && !chained {
            out.push(Name::Ident(last));
        }
        i = after;
    }
    for w in idents(span) {
        if is_snake_with_underscore(w) {
            out.push(Name::Ident(w.to_string()));
        }
    }
    out
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Name {
    File(String),
    Ident(String),
}

#[test]
fn backticked_names_in_the_docs_exist_in_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        walk(&root.join(dir), &mut files);
    }
    let rel: Vec<String> = files
        .iter()
        .map(|f| f.strip_prefix(root).unwrap().to_string_lossy().into_owned())
        .collect();
    let mut known: BTreeSet<String> = BTreeSet::new();
    for (file, path) in files.iter().zip(&rel) {
        known.extend(idents(path).map(str::to_string));
        if let Ok(text) = std::fs::read_to_string(file) {
            known.extend(idents(&text).map(str::to_string));
        }
    }
    let resolves = |name: &Name| match name {
        Name::File(p) => rel.iter().any(|r| r == p || r.ends_with(&format!("/{p}"))),
        // A trailing `_` is a glob's stem (`term.resolved_*`).
        Name::Ident(w) if w.ends_with('_') => known
            .range(w.clone()..)
            .next()
            .is_some_and(|k| k.starts_with(w.as_str())),
        Name::Ident(w) => known.contains(w),
    };

    let mut dangling = BTreeSet::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("read doc");
        for span in code_spans(&text) {
            for name in names(span) {
                if !resolves(&name) {
                    dangling.insert((doc, name));
                }
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "backticked names that no longer exist in the tree:\n{}",
        dangling
            .iter()
            .map(|(doc, name)| format!("  {doc}: {name:?}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn names_are_read_from_code_spans_only() {
    let doc = "see `a_b` and `Foo::bar_baz` in `x/y.rs:12`\n```\n`not_read`\n```\n";
    let spans = code_spans(doc);
    assert_eq!(spans, vec!["a_b", "Foo::bar_baz", "x/y.rs:12"]);
    let got: Vec<Name> = spans.iter().flat_map(|s| names(s)).collect();
    assert_eq!(
        got,
        vec![
            Name::Ident("a_b".into()),
            Name::Ident("bar_baz".into()),
            Name::Ident("bar_baz".into()),
            Name::File("x/y.rs".into()),
        ]
    );
}
