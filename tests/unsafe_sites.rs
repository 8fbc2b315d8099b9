//! The workspace's unsafe surface, pinned: every crate root denies
//! `unsafe_code`, and exactly one item lifts that — `hope::index::prefetch`
//! in `crates/core/src/index.rs`, whose one `unsafe` block issues a
//! prefetch hint (DESIGN.md, "Prefetch: a node's independent lines in one
//! round trip").
//!
//! Scope: every `.rs` file under `crates/*/src` and `src/`, read relative
//! to `CARGO_MANIFEST_DIR` as `tests/api_surface.rs` reads the crate
//! roots. Line comments (doc comments included) are dropped before a line
//! is read, so prose that names the lint counts for nothing. The counting
//! global allocators under `tests/` and `benchmark/` implement
//! `GlobalAlloc`, which takes `unsafe`; they are test and measuring code,
//! outside this scope.

use std::path::{Path, PathBuf};

/// The one file allowed to lift `deny(unsafe_code)`, and the item it lifts
/// it for.
const EXCEPTION_FILE: &str = "crates/core/src/index.rs";
const EXCEPTION_ITEM: &str = "pub fn prefetch<T>(";

/// Every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `(path relative to the workspace root, source)` of every file in scope.
fn sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("src")];
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ readable")
        .map(|e| e.expect("directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crates.sort();
    dirs.extend(crates);
    let mut files = Vec::new();
    for dir in &dirs {
        rust_files(dir, &mut files);
    }
    files
        .into_iter()
        .map(|path| {
            let source = std::fs::read_to_string(&path).expect("source readable");
            let rel = path.strip_prefix(root).expect("under the root").to_string_lossy();
            (rel.replace('\\', "/"), source)
        })
        .collect()
}

/// The code of one line: everything before its first `//`.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap_or("")
}

/// Whether `file` is a crate root: a library's `lib.rs` or a binary under
/// `src/bin/`.
fn is_crate_root(file: &str) -> bool {
    file.ends_with("/src/lib.rs") || file == "src/lib.rs" || file.contains("/src/bin/")
}

#[test]
fn every_crate_root_denies_unsafe_code() {
    let sources = sources();
    let roots: Vec<&(String, String)> = sources.iter().filter(|(f, _)| is_crate_root(f)).collect();
    assert!(roots.iter().any(|(f, _)| f == "crates/core/src/lib.rs"), "the scan found no crates");
    assert!(roots.iter().any(|(f, _)| f == "src/lib.rs"), "the scan missed the root package");
    for (file, source) in roots {
        assert!(
            source.lines().any(|l| code(l).trim() == "#![deny(unsafe_code)]"),
            "{file} is a crate root without #![deny(unsafe_code)]"
        );
    }
}

/// `(file, line index)` of every line whose code satisfies `pred`.
fn lines_where(sources: &[(String, String)], pred: impl Fn(&str) -> bool) -> Vec<(String, usize)> {
    let mut hits = Vec::new();
    for (file, source) in sources {
        for (i, line) in source.lines().enumerate() {
            if pred(code(line)) {
                hits.push((file.clone(), i));
            }
        }
    }
    hits
}

#[test]
fn the_prefetch_helper_is_the_one_unsafe_site() {
    let sources = sources();
    // Any lint level on `unsafe_code` other than the roots' deny: an
    // allow, an expect or a warn.
    let lifts = lines_where(&sources, |code| {
        code.contains("unsafe_code)") && code.trim() != "#![deny(unsafe_code)]"
    });
    let [(file, at)] = lifts.as_slice() else {
        panic!("expected exactly one lifted deny(unsafe_code), found {lifts:?}")
    };
    assert_eq!(file, EXCEPTION_FILE);
    let source = &sources.iter().find(|(f, _)| f == file).expect("read above").1;
    let lines: Vec<&str> = source.lines().collect();
    assert_eq!(lines[*at].trim(), "#[allow(unsafe_code)]", "{file}:{}", at + 1);
    // The allow is an attribute of the helper: the item it sits on.
    let item = lines[at + 1..]
        .iter()
        .map(|l| code(l).trim())
        .find(|l| !l.is_empty() && !l.starts_with("#["))
        .expect("an item after the attribute");
    assert!(item.starts_with(EXCEPTION_ITEM), "{file}:{}: allow(unsafe_code) on {item:?}", at + 1);

    // `unsafe` is written nowhere else, and once there.
    let uses = lines_where(&sources, |code| {
        code.split(|c: char| !(c.is_alphanumeric() || c == '_')).any(|word| word == "unsafe")
    });
    let [(file, _)] = uses.as_slice() else {
        panic!("expected exactly one `unsafe` in the workspace's crates, found {uses:?}")
    };
    assert_eq!(file, EXCEPTION_FILE);
}
