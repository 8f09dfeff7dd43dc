//! The line ratchet: every crate's non-test lines stay at or under the
//! ceiling committed for it in `tests/line_ceilings.txt`.
//!
//! A crate's non-test lines are, for each `.rs` file under its `src/`,
//! the lines before the file's first `#[cfg(test)]`. A file that is a
//! test-only module — its `mod name;` declared on the line after a
//! `#[cfg(test)]` — is not counted. A change that needs more lines
//! raises the crate's ceiling in the same commit and says why in
//! CHANGES.md; one that needs fewer may lower it. A crate with no
//! ceiling, or a ceiling naming no crate, fails too.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const CFG_TEST: &str = "#[cfg(test)]";

/// Every `.rs` file under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The name in a `mod name;` line, with any visibility.
fn declared_module(line: &str) -> Option<&str> {
    let decl = line.trim().strip_suffix(';')?;
    let name = decl.rsplit_once("mod ")?.1;
    let visibility = decl[..decl.len() - name.len() - 4].trim();
    let known = visibility.is_empty() || visibility.starts_with("pub");
    (known && name.chars().all(|c| c.is_alphanumeric() || c == '_')).then_some(name)
}

/// The files of the modules declared right after a `#[cfg(test)]` in
/// `file`: `name.rs` or `name/mod.rs` beside a `lib.rs` or `mod.rs`,
/// under the file's own directory otherwise.
fn test_only_modules(file: &Path, text: &str) -> Vec<PathBuf> {
    let dir = file.parent().expect("a file has a directory");
    let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let dir = if matches!(stem, "lib" | "main" | "mod") {
        dir.to_path_buf()
    } else {
        dir.join(stem)
    };
    let lines: Vec<&str> = text.lines().collect();
    lines
        .windows(2)
        .filter(|pair| pair[0].trim() == CFG_TEST)
        .filter_map(|pair| declared_module(pair[1]))
        .flat_map(|name| {
            [
                dir.join(format!("{name}.rs")),
                dir.join(name).join("mod.rs"),
            ]
        })
        .collect()
}

/// Each crate's non-test lines, keyed by its directory under `crates/`.
fn counts(root: &Path) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = entry.expect("dir entry").path();
        let src = krate.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        let texts: Vec<(PathBuf, String)> = files
            .into_iter()
            .map(|file| {
                let text = fs::read_to_string(&file).expect("readable source");
                (file, text)
            })
            .collect();
        let test_only: Vec<PathBuf> = texts
            .iter()
            .flat_map(|(file, text)| test_only_modules(file, text))
            .collect();
        let lines = texts
            .iter()
            .filter(|(file, _)| !test_only.contains(file))
            .map(|(_, text)| text.lines().take_while(|l| l.trim() != CFG_TEST).count())
            .sum();
        let name = krate.file_name().expect("crate dir").to_string_lossy();
        counts.insert(name.into_owned(), lines);
    }
    counts
}

/// The committed ceilings: `crate lines` per line, `#` comments.
fn ceilings(path: &Path) -> BTreeMap<String, usize> {
    fs::read_to_string(path)
        .expect("tests/line_ceilings.txt")
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .filter(|line| !line.is_empty())
        .map(|line| {
            let (krate, lines) = line
                .split_once(char::is_whitespace)
                .unwrap_or_else(|| panic!("`crate lines` expected, got {line:?}"));
            let lines = lines.trim().parse().expect("a line count");
            (krate.to_owned(), lines)
        })
        .collect()
}

#[test]
fn a_test_only_module_is_recognized_by_its_declaration() {
    assert_eq!(
        declared_module("mod answer_contract;"),
        Some("answer_contract")
    );
    assert_eq!(declared_module("    pub(crate) mod probe;"), Some("probe"));
    assert_eq!(declared_module("mod tests {"), None);
    assert_eq!(declared_module("use crate::mod_x;"), None);
    let lib = Path::new("crates/x/src/lib.rs");
    let text = "pub mod a;\n#[cfg(test)]\nmod contract;\n#[cfg(test)]\nmod tests {\n}\n";
    assert_eq!(
        test_only_modules(lib, text),
        [
            Path::new("crates/x/src/contract.rs").to_path_buf(),
            Path::new("crates/x/src/contract/mod.rs").to_path_buf(),
        ]
    );
    let nested = Path::new("crates/x/src/haar.rs");
    assert_eq!(
        test_only_modules(nested, "#[cfg(test)]\nmod probe;\n")[0],
        Path::new("crates/x/src/haar/probe.rs")
    );
}

#[test]
fn every_crate_stays_under_its_line_ceiling() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let counts = counts(root);
    let ceilings = ceilings(&root.join("tests/line_ceilings.txt"));
    let mut faults = Vec::new();
    for (krate, &lines) in &counts {
        match ceilings.get(krate) {
            None => faults.push(format!("{krate}: {lines} non-test lines and no ceiling")),
            Some(&ceiling) if lines > ceiling => faults.push(format!(
                "{krate}: {lines} non-test lines, over its ceiling of {ceiling}"
            )),
            Some(_) => {}
        }
    }
    for krate in ceilings.keys().filter(|k| !counts.contains_key(*k)) {
        faults.push(format!(
            "{krate}: a ceiling for a crate that does not exist"
        ));
    }
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}
