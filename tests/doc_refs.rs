//! The prose cites only what exists.
//!
//! DESIGN.md, README.md and EXPERIMENTS.md are scanned: every backticked
//! `….rs` names exactly one git-tracked file, a cited symbol
//! (`path.rs::name`) is declared in that file, no citation gives a line
//! number (`path.rs:N` drifts with every edit above it), and every
//! `--flag` on a `conprobe` command line appears in
//! `conprobe::cli::USAGE`. Every section citation — `DESIGN §N`, and
//! `EXPERIMENTS` followed by a quoted heading — names an existing heading,
//! in those three documents, in the `.rs` files under `crates/`, `src/`,
//! `tests/` and `examples/`, and in the CI workflow.
//!
//! ROADMAP.md and CHANGES.md cite history, so they are not scanned.
//! `benchmarks/README.md` joins the scan with the next change to the
//! benchmark package (ROADMAP item 24), which rewrites its stale prose.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const DOCS: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The files git tracks, relative to the repository root.
fn tracked() -> Vec<String> {
    let out = Command::new("git")
        .arg("ls-files")
        .current_dir(root())
        .output()
        .expect("the doc check runs `git ls-files`");
    assert!(out.status.success(), "git ls-files: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout)
        .expect("tracked paths are UTF-8")
        .lines()
        .map(String::from)
        .collect()
}

/// A backticked span or a code-block line (continuations joined), with the
/// line it starts on.
struct Unit {
    line: usize,
    text: String,
}

fn units(doc: &str) -> Vec<Unit> {
    let mut out = Vec::new();
    let mut in_block = false;
    let mut code: Option<Unit> = None;
    let mut span: Option<Unit> = None;
    for (i, line) in doc.lines().enumerate() {
        let n = i + 1;
        if line.trim_start().starts_with("```") {
            in_block = !in_block;
            out.extend(code.take());
            span = None;
            continue;
        }
        if in_block {
            let (body, more) = match line.trim_end().strip_suffix('\\') {
                Some(body) => (body, true),
                None => (line, false),
            };
            let unit = code.get_or_insert(Unit { line: n, text: String::new() });
            unit.text.push_str(body);
            unit.text.push(' ');
            if !more {
                out.extend(code.take());
            }
            continue;
        }
        // A span may wrap onto the next line of its paragraph, never past it.
        if line.trim().is_empty() {
            span = None;
            continue;
        }
        let mut pieces = line.split('`');
        if let Some(unit) = span.as_mut() {
            unit.text.push(' ');
            unit.text.push_str(pieces.next().unwrap_or(""));
        } else {
            pieces.next();
        }
        for piece in pieces {
            match span.take() {
                Some(unit) => out.push(unit),
                None => span = Some(Unit { line: n, text: String::new() }),
            }
            if let Some(unit) = span.as_mut() {
                unit.text.push_str(piece);
            }
        }
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn is_path_char(c: char) -> bool {
    is_ident(c) || matches!(c, '.' | '/' | '-')
}

/// One `….rs` mention: the path, the `::`-separated symbol after it, and
/// whether a `:N` line number follows instead.
struct RsRef {
    path: String,
    symbol: Vec<String>,
    line_number: bool,
}

fn rs_refs(text: &str) -> Vec<RsRef> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices(".rs") {
        let end = at + ".rs".len();
        let rest = &text[end..];
        if rest.chars().next().is_some_and(is_ident) {
            continue;
        }
        let start = text[..at]
            .char_indices()
            .rev()
            .take_while(|&(_, c)| is_path_char(c))
            .last()
            .map_or(at, |(i, _)| i);
        let path = text[start..end].trim_start_matches("./");
        if path == ".rs" || text[..start].ends_with('*') {
            continue;
        }
        let mut symbol = Vec::new();
        let mut tail = rest;
        while let Some(after) = tail.strip_prefix("::") {
            let name: String = after.chars().take_while(|&c| is_ident(c)).collect();
            if name.is_empty() {
                break;
            }
            tail = &after[name.len()..];
            symbol.push(name);
        }
        let line_number =
            rest.strip_prefix(':').is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()));
        out.push(RsRef { path: path.to_string(), symbol, line_number });
    }
    out
}

/// Whether `src` declares `name` as an item or a `macro_rules!` macro.
fn declares(src: &str, name: &str) -> bool {
    const KINDS: [&str; 9] = [
        "fn ",
        "struct ",
        "enum ",
        "trait ",
        "const ",
        "static ",
        "type ",
        "mod ",
        "macro_rules! ",
    ];
    KINDS.iter().any(|kind| {
        let pattern = format!("{kind}{name}");
        src.match_indices(&pattern).any(|(at, _)| {
            !src[..at].chars().next_back().is_some_and(is_ident)
                && !src[at + pattern.len()..].chars().next().is_some_and(is_ident)
        })
    })
}

/// Checks the `.rs` citations of one document against the tracked files.
/// Returns how many citations it checked.
fn check_rust_citations(
    name: &str,
    doc: &str,
    tracked: &[String],
    errors: &mut Vec<String>,
) -> usize {
    let mut checked = 0;
    for (i, line) in doc.lines().enumerate() {
        for r in rs_refs(line).into_iter().filter(|r| r.line_number) {
            errors.push(format!(
                "{name}:{}: `{}` is cited by line number; cite `{}::<symbol>` instead",
                i + 1,
                r.path,
                r.path
            ));
        }
    }
    for unit in units(doc) {
        for r in rs_refs(&unit.text) {
            checked += 1;
            let suffix = format!("/{}", r.path);
            let hits: Vec<&String> =
                tracked.iter().filter(|f| **f == r.path || f.ends_with(&suffix)).collect();
            let [file] = hits.as_slice() else {
                errors.push(format!(
                    "{name}:{}: `{}` names {} tracked files {hits:?}; qualify it to one",
                    unit.line,
                    r.path,
                    hits.len()
                ));
                continue;
            };
            if r.symbol.is_empty() {
                continue;
            }
            let src = read(&root().join(file));
            for part in r.symbol.iter().filter(|part| !declares(&src, part)) {
                errors.push(format!(
                    "{name}:{}: `{}::{}`: `{file}` declares no `{part}`",
                    unit.line,
                    r.path,
                    r.symbol.join("::")
                ));
            }
        }
    }
    checked
}

/// Every `--name` in `text` that starts a word.
fn flags(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("--") {
        let before = text[..at].chars().next_back();
        if before.is_some_and(|c| is_ident(c) || c == '-') {
            continue;
        }
        let name: String =
            text[at + 2..].chars().take_while(|&c| c.is_ascii_alphanumeric() || c == '-').collect();
        if name.starts_with(|c: char| c.is_ascii_alphabetic()) {
            out.push(format!("--{name}"));
        }
    }
    out
}

/// The `conprobe` arguments a unit holds, if it is a `conprobe` command
/// line: the words after a `conprobe` (or `…/conprobe`) word or after
/// `--bin conprobe --`, or the whole unit when it starts with a
/// subcommand. The benchmark harness's own `run` names a `--workload`,
/// which `conprobe` has not. Shell plumbing after the command is cut.
fn conprobe_args<'a>(unit: &'a str, subcommands: &BTreeSet<String>) -> Option<&'a str> {
    let text = unit.trim();
    let args = if let Some(at) = text.find("--bin conprobe -- ") {
        &text[at + "--bin conprobe -- ".len()..]
    } else if let Some(word) =
        text.split_whitespace().find(|w| *w == "conprobe" || w.ends_with("/conprobe"))
    {
        let at = text.find(word).expect("the word is in the text");
        &text[at + word.len()..]
    } else {
        let first = text.split_whitespace().next()?;
        if !subcommands.contains(first) || text.contains("--workload") {
            return None;
        }
        text
    };
    Some(args.split(['|', ';', '>', '&', ')']).next().unwrap_or(""))
}

/// Checks the flags of every `conprobe` command line in one document.
/// Returns how many command lines it checked.
fn check_flags(name: &str, doc: &str, errors: &mut Vec<String>) -> usize {
    let usage = conprobe::cli::USAGE;
    let known: BTreeSet<String> = flags(usage).into_iter().collect();
    let subcommands: BTreeSet<String> = usage
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("conprobe "))
        .filter_map(|rest| rest.split_whitespace().next())
        .filter(|word| word.chars().all(|c| c.is_ascii_lowercase()))
        .map(String::from)
        .collect();
    let mut checked = 0;
    for unit in units(doc) {
        let Some(args) = conprobe_args(&unit.text, &subcommands) else { continue };
        checked += 1;
        for flag in flags(args).into_iter().filter(|f| !known.contains(f)) {
            errors.push(format!(
                "{name}:{}: `{flag}` in `{}` is not in `conprobe help`",
                unit.line,
                unit.text.trim()
            ));
        }
    }
    checked
}

/// The numbers of DESIGN.md's `## N.` headings and the text of every
/// EXPERIMENTS.md heading.
struct Headings {
    design: BTreeSet<String>,
    experiments: Vec<String>,
}

impl Headings {
    fn load() -> Self {
        let design = read(&root().join("DESIGN.md"))
            .lines()
            .filter_map(|l| l.strip_prefix("## "))
            .filter_map(|h| h.split_once(". ").map(|(n, _)| n.to_string()))
            .collect();
        let experiments = read(&root().join("EXPERIMENTS.md"))
            .lines()
            .filter(|l| l.starts_with('#'))
            .map(|l| l.trim_start_matches('#').trim().to_string())
            .collect();
        Headings { design, experiments }
    }

    fn has_experiments(&self, quoted: &str) -> bool {
        self.experiments.iter().any(|h| {
            h.strip_prefix(quoted)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with([':', ' ']))
        })
    }
}

/// A section id at the start of `text` (`12`, `5b`), and the rest.
fn section_id(text: &str) -> (&str, &str) {
    let len = text
        .char_indices()
        .find(|&(i, c)| !(c.is_ascii_digit() || (i > 0 && c.is_ascii_lowercase())))
        .map_or(text.len(), |(i, _)| i);
    text.split_at(len)
}

/// The DESIGN section ids `text` cites: `DESIGN §N` (or `DESIGN.md §N`)
/// with any `, §M`, ` and §M` or `–M` that follows, and, in DESIGN.md
/// itself, every `§` before a digit (the paper's sections are roman).
fn design_cites(text: &str, is_design: bool) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices('§') {
        let before = &text[..at];
        let cited = before.ends_with("DESIGN ") || before.ends_with("DESIGN.md ");
        let (id, mut rest) = section_id(&text[at + '§'.len_utf8()..]);
        if id.is_empty() || !(cited || is_design) {
            continue;
        }
        out.push(id.to_string());
        if is_design {
            continue; // every later `§` is visited on its own
        }
        while let Some(next) =
            [", §", " and §", "–§", "–"].iter().find_map(|sep| rest.strip_prefix(sep))
        {
            let (id, tail) = section_id(next);
            if id.is_empty() {
                break;
            }
            out.push(id.to_string());
            rest = tail;
        }
    }
    out
}

/// The EXPERIMENTS headings `text` cites by quoting them.
fn experiments_cites(text: &str) -> Vec<String> {
    let marker = concat!("EXPERIMENTS", " \"");
    text.match_indices(marker)
        .filter_map(|(at, _)| text[at + marker.len()..].split_once('"').map(|(q, _)| q.to_string()))
        .collect()
}

fn check_sections(name: &str, text: &str, headings: &Headings, errors: &mut Vec<String>) -> usize {
    let mut checked = 0;
    for (i, line) in text.lines().enumerate() {
        for id in design_cites(line, name == "DESIGN.md") {
            checked += 1;
            if !headings.design.contains(&id) {
                errors.push(format!("{name}:{}: DESIGN has no section {id}", i + 1));
            }
        }
        for quoted in experiments_cites(line) {
            checked += 1;
            if !headings.has_experiments(&quoted) {
                errors.push(format!("{name}:{}: EXPERIMENTS has no heading {quoted:?}", i + 1));
            }
        }
    }
    checked
}

fn assert_clean(what: &str, errors: Vec<String>) {
    assert!(errors.is_empty(), "{what}:\n{}", errors.join("\n"));
}

#[test]
fn every_cited_rust_file_is_one_tracked_file_declaring_the_cited_symbol() {
    let tracked = tracked();
    let mut errors = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        checked += check_rust_citations(doc, &read(&root().join(doc)), &tracked, &mut errors);
    }
    assert_clean("stale `.rs` citations", errors);
    assert!(checked >= 20, "only {checked} `.rs` citations found: the scanner reads nothing");
}

#[test]
fn every_flag_on_a_conprobe_command_line_is_in_the_usage_synopsis() {
    let mut errors = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        checked += check_flags(doc, &read(&root().join(doc)), &mut errors);
    }
    assert_clean("flags `conprobe` does not read", errors);
    assert!(checked >= 30, "only {checked} command lines found: the scanner reads nothing");
}

#[test]
fn every_section_citation_names_an_existing_heading() {
    let headings = Headings::load();
    let mut sources: Vec<String> = DOCS.iter().map(|d| d.to_string()).collect();
    sources.push(".github/workflows/ci.yml".into());
    sources.extend(tracked().into_iter().filter(|f| {
        f.ends_with(".rs")
            && ["crates/", "src/", "tests/", "examples/"].iter().any(|d| f.starts_with(d))
    }));
    let mut errors = Vec::new();
    let mut checked = 0;
    for source in &sources {
        checked += check_sections(source, &read(&root().join(source)), &headings, &mut errors);
    }
    assert_clean("section citations without a heading", errors);
    assert!(checked >= 20, "only {checked} section citations found: the scanner reads nothing");
}

/// Each check reports a planted fault, so a clean scan of the real
/// documents means something.
#[test]
fn each_check_reports_a_planted_fault() {
    let tracked = tracked();
    let headings = Headings {
        design: ["7", "11"].map(String::from).into(),
        experiments: vec!["PR 46: read views shared".into()],
    };
    let doc = concat!(
        "Fine: `src/cli/mod.rs::USAGE`, `conprobe run --service gplus --seed 3`.\n",
        "Ambiguous: `live.rs`. Missing: `src/cli/mod.rs::no_such_fn`.\n",
        "Gone: `nowhere/such_file.rs`. By line: see src/cli/mod.rs:69.\n",
        "\n",
        "A retired flag: `serve --drop 0.1`.\n",
        "\n",
        "```\n",
        "./target/release/conprobe campaign --service blogger \\\n",
        "    --tests 3 --no-such-flag\n",
        "cargo run --release --bin conprobe -- probe --warp 9\n",
        "cargo run --release --offline --manifest-path benchmarks/Cargo.toml -- run --workload study\n",
        "```\n",
    );
    let mut errors = Vec::new();
    check_rust_citations("planted.md", doc, &tracked, &mut errors);
    let found = |errors: &[String], needle: &str| errors.iter().any(|e| e.contains(needle));
    for needle in [
        "`live.rs` names 3",
        "declares no `no_such_fn`",
        "`nowhere/such_file.rs` names 0",
        "by line number",
    ] {
        assert!(found(&errors, needle), "no report of {needle:?} in {errors:#?}");
    }
    assert_eq!(errors.len(), 4, "{errors:#?}");

    let mut errors = Vec::new();
    assert_eq!(check_flags("planted.md", doc, &mut errors), 4);
    for needle in ["`--drop`", "`--no-such-flag`", "`--warp`"] {
        assert!(found(&errors, needle), "no report of {needle:?} in {errors:#?}");
    }
    assert_eq!(errors.len(), 3, "{errors:#?}");

    let design = format!("DESIGN §7 and DESIGN §{}, §11 and §{}.", 99, "5b");
    let experiments = format!("{m} {:?} and {m} {:?}.", "PR 46", "PR 4", m = "EXPERIMENTS");
    let mut errors = Vec::new();
    check_sections("planted.rs", &format!("{design}\n{experiments}\n"), &headings, &mut errors);
    for needle in ["no section 99", "no section 5b", "no heading \"PR 4\""] {
        assert!(found(&errors, needle), "no report of {needle:?} in {errors:#?}");
    }
    assert_eq!(errors.len(), 3, "{errors:#?}");
}
