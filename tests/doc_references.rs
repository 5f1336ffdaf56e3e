//! Every root-level Markdown file that the README or the code names
//! must exist: a comment that sends a reader to a missing document
//! sends them nowhere.

use std::fs;
use std::path::{Path, PathBuf};

/// Appends every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|entry| entry.expect("readable directory").path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The bare Markdown file names in `text`: a run of letters, digits,
/// `_` and `-` followed by the `.md` extension, with no path or dot
/// before it and no name character after it. A name behind a `/` is
/// not at the root, so it is skipped.
fn markdown_names(text: &str) -> Vec<&str> {
    let is_name = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'-';
    let bytes = text.as_bytes();
    let mut names = Vec::new();
    let mut from = 0;
    while let Some(found) = text[from..].find(".md") {
        let dot = from + found;
        from = dot + 3;
        if bytes.get(from).is_some_and(|&b| is_name(b)) {
            continue;
        }
        let start = bytes[..dot]
            .iter()
            .rposition(|&b| !is_name(b))
            .map_or(0, |p| p + 1);
        let behind_path = start > 0 && matches!(bytes[start - 1], b'/' | b'\\' | b'.');
        if start < dot && !behind_path {
            names.push(&text[start..from]);
        }
    }
    names
}

#[test]
fn markdown_names_are_bare_root_file_names() {
    // Built with `format!`, so this file names no such document itself.
    let (doc, notes) = (format!("{}.md", "DOC"), format!("{}.md", "NOTES"));
    let text = format!(
        "see {doc}, lcsbench/{notes} and {doc}x; ({notes}) {}",
        ".md"
    );
    assert_eq!(markdown_names(&text), [doc.as_str(), notes.as_str()]);
}

#[test]
fn every_named_root_markdown_file_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("README.md")];
    for dir in ["src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    for krate in fs::read_dir(root.join("crates")).expect("crates directory") {
        rust_files(&krate.expect("crate entry").path().join("src"), &mut files);
    }
    assert!(files.len() > 50, "found only {} files", files.len());
    let mut missing = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source");
        for name in markdown_names(&text) {
            if !root.join(name).is_file() {
                let at = file.strip_prefix(root).expect("under the root");
                missing.push(format!("{} names {name}", at.display()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "Markdown files named but missing from the repository root:\n{}",
        missing.join("\n")
    );
}
