//! The design documents name code, and a name that no longer resolves is a
//! wrong map. Every backticked Rust path in DESIGN.md and README.md
//! (`a::b`, `a::b::c`, …) must end in an identifier that occurs in the
//! workspace's `.rs` sources, and every backticked `.rs` file must be one
//! of them (a bare `me.rs` or `obs/src/lib.rs` names the file it ends).

use std::collections::HashSet;
use std::fs;
use std::path::Path;

const DOCS: [&str; 2] = ["DESIGN.md", "README.md"];

/// Every `.rs` file under `dir`, as a `/`-separated path relative to the
/// repository root; build output and hidden directories are skipped.
fn rust_sources(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("a readable directory") {
        let path = entry.expect("a directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_sources(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).expect("under the root");
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The backticked spans of `doc`, each with its line number.
fn spans(doc: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        for span in line.split('`').skip(1).step_by(2) {
            out.push((i + 1, span.to_string()));
        }
    }
    out
}

#[test]
fn backticked_paths_and_files_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(root, root, &mut files);
    let mut idents = HashSet::new();
    for file in &files {
        let text = fs::read_to_string(root.join(file)).expect("a readable source");
        let words = text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
        idents.extend(words.filter(|w| is_ident(w)).map(str::to_string));
    }

    let (mut paths, mut rs_files, mut unresolved) = (0, 0, Vec::new());
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("a readable document");
        for (line, span) in spans(&text) {
            let segments: Vec<&str> = span.split("::").collect();
            if segments.len() >= 2 && segments.iter().all(|s| is_ident(s)) {
                paths += 1;
                if !idents.contains(*segments.last().expect("two segments")) {
                    unresolved.push(format!("{doc}:{line}: `{span}`"));
                }
            } else if span.ends_with(".rs") && !span.contains(char::is_whitespace) {
                rs_files += 1;
                let suffix = format!("/{span}");
                if !files.iter().any(|f| *f == span || f.ends_with(&suffix)) {
                    unresolved.push(format!("{doc}:{line}: `{span}` (no such file)"));
                }
            }
        }
    }
    assert!(
        paths > 100 && rs_files > 10,
        "{paths} paths, {rs_files} files"
    );
    assert!(
        unresolved.is_empty(),
        "names the sources do not hold:\n{}",
        unresolved.join("\n")
    );
}
