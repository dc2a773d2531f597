//! The six workspace-invariant rules. Each is a pure function from the
//! lexed [`Workspace`] to a list of [`Finding`]s; `run_all` applies every
//! rule plus the allow-directive hygiene pass.
//!
//! | code | invariant |
//! |------|-----------|
//! | L001 | no panic paths in socket/disk byte-handling code |
//! | L002 | every record-kind constant has an encode site, a decode site and test coverage |
//! | L003 | every criterion bench group is in the CI gate's tracked set (or explicitly allowed) |
//! | L004 | `#[deprecated]` items name a removal version that has not been reached |
//! | L005 | public error enums are `#[non_exhaustive]` and implement `Display` + `Error` |
//! | L006 | every `CODEC_*` codec id has a registry entry, an encode site, a decode match and test coverage |
//!
//! Every rule honors `// zipline-lint: allow(CODE): justification` on the
//! finding's line or the line above; see [`crate::source`].

use std::fmt;

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::workspace::{parse_version, version_at_least, Workspace};

/// One diagnostic: rule code, location and message.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule code (`L001` … `L006`, or `BAD-ALLOW`).
    pub rule: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

fn finding(file: &SourceFile, line: u32, rule: &str, message: impl Into<String>) -> Finding {
    Finding {
        path: file.rel_path.clone(),
        line,
        rule: rule.to_string(),
        message: message.into(),
    }
}

/// Rule codes an allow directive may name.
pub const KNOWN_RULES: &[&str] = &["L001", "L002", "L003", "L004", "L005", "L006"];

/// Runs every rule and the allow-hygiene pass; findings come back sorted
/// by path, line, rule.
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(allow_hygiene(ws));
    findings.extend(l001_no_panic_paths(ws));
    findings.extend(l002_record_kind_exhaustiveness(ws));
    findings.extend(l003_tracked_bench_sync(ws));
    findings.extend(l004_deprecation_expiry(ws));
    findings.extend(l005_error_enum_hygiene(ws));
    findings.extend(l006_codec_id_exhaustiveness(ws));
    findings.sort();
    findings
}

/// Allow directives are themselves checked: a missing justification or an
/// unknown rule code makes the directive void *and* a finding — a silent
/// no-op allow is worse than no allow.
fn allow_hygiene(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        for allow in &file.allows {
            if !KNOWN_RULES.contains(&allow.rule.as_str()) {
                findings.push(finding(
                    file,
                    allow.line,
                    "BAD-ALLOW",
                    format!(
                        "allow directive names unknown rule `{}` (known: {})",
                        allow.rule,
                        KNOWN_RULES.join(", ")
                    ),
                ));
            } else if allow.justification.is_empty() {
                findings.push(finding(
                    file,
                    allow.line,
                    "BAD-ALLOW",
                    format!(
                        "allow directive for {} is missing its required justification \
                         (`// zipline-lint: allow({}): <why>`)",
                        allow.rule, allow.rule
                    ),
                ));
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// L001 — no-panic-paths
// ---------------------------------------------------------------------------

/// Files (by workspace-relative prefix) whose non-test code must be free
/// of panic paths: everything that parses bytes from a socket or disk.
pub const L001_SCOPE: &[&str] = &[
    "crates/zipline-server/src",
    "crates/zipline-engine/src/frame.rs",
    "crates/zipline-engine/src/persist.rs",
];

const L001: &str = "L001";

fn l001_in_scope(rel_path: &str) -> bool {
    L001_SCOPE
        .iter()
        .any(|prefix| rel_path == *prefix || rel_path.starts_with(&format!("{prefix}/")))
}

fn l001_no_panic_paths(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in ws.files.iter().filter(|f| l001_in_scope(&f.rel_path)) {
        let toks = &file.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if file.in_test_scope(tok.line) {
                continue;
            }
            let mut report = |message: String| {
                if !file.is_allowed(L001, tok.line) {
                    findings.push(finding(file, tok.line, L001, message));
                }
            };
            match &tok.kind {
                TokKind::Ident(name) if name == "unwrap" || name == "expect" => {
                    let is_method_call = i > 0
                        && toks[i - 1].kind.is_punct('.')
                        && matches!(toks.get(i + 1), Some(t) if t.kind.is_punct('('));
                    if is_method_call {
                        report(format!(
                            "`.{name}()` in a panic-free path — byte-handling code must \
                             return a typed error instead of panicking"
                        ));
                    }
                }
                TokKind::Ident(name)
                    if matches!(
                        name.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    ) =>
                {
                    let is_macro = matches!(toks.get(i + 1), Some(t) if t.kind.is_punct('!'));
                    if is_macro {
                        report(format!(
                            "`{name}!` in a panic-free path — byte-handling code must \
                             fail with a typed error, not a panic"
                        ));
                    }
                }
                TokKind::Punct('[') => {
                    // `expr[<int literal>]`: an index that panics when the
                    // slice is short. Array literals/attributes/types are
                    // excluded by requiring an expression on the left.
                    let indexes_expression = i > 0
                        && matches!(
                            toks[i - 1].kind,
                            TokKind::Ident(_) | TokKind::Punct(')') | TokKind::Punct(']')
                        );
                    let literal_index = matches!(toks.get(i + 1), Some(t) if matches!(t.kind, TokKind::Int(_)))
                        && matches!(toks.get(i + 2), Some(t) if t.kind.is_punct(']'));
                    if indexes_expression && literal_index {
                        report(
                            "literal slice index in a panic-free path — use `get`, \
                             `split_first` or a length-checked helper"
                                .to_string(),
                        );
                    }
                }
                _ => {}
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// L002 — record-kind exhaustiveness
// ---------------------------------------------------------------------------

/// Files whose `KIND_*` constants define a record protocol and must stay
/// exhaustive across encode, decode and tests.
pub const L002_PROTOCOL_FILES: &[&str] = &[
    "crates/zipline-server/src/wire.rs",
    "crates/zipline-engine/src/persist.rs",
];

const L002: &str = "L002";

fn l002_record_kind_exhaustiveness(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for decl_path in L002_PROTOCOL_FILES {
        let Some(decl_file) = ws.file(decl_path) else {
            continue;
        };
        for (name, decl_line) in kind_const_declarations(decl_file) {
            let mut has_encode = false;
            let mut has_decode = false;
            let mut has_test = false;
            for file in &ws.files {
                for (i, tok) in file.tokens.iter().enumerate() {
                    if tok.kind.ident() != Some(name.as_str()) {
                        continue;
                    }
                    // Skip the declaration itself.
                    if file.rel_path == *decl_path
                        && i > 0
                        && file.tokens[i - 1].kind.ident() == Some("const")
                    {
                        continue;
                    }
                    let in_test = file.rel_path.contains("/tests/") || file.in_test_scope(tok.line);
                    if in_test {
                        has_test = true;
                        continue;
                    }
                    // Decode site: a match arm (`KIND_X =>`, `KIND_X |`)
                    // or an equality comparison against a parsed kind.
                    let next = file.tokens.get(i + 1).map(|t| &t.kind);
                    let prev = i.checked_sub(1).map(|p| &file.tokens[p].kind);
                    let is_decode = matches!(next, Some(TokKind::FatArrow))
                        || matches!(next, Some(TokKind::Punct('|')))
                        || matches!(next, Some(TokKind::EqEq))
                        || matches!(prev, Some(TokKind::EqEq));
                    if is_decode {
                        has_decode = true;
                    } else {
                        has_encode = true;
                    }
                }
            }
            let mut missing = Vec::new();
            if !has_encode {
                missing.push("an encode site");
            }
            if !has_decode {
                missing.push("a decode match/comparison");
            }
            if !has_test {
                missing.push("test coverage (a `#[cfg(test)]` or tests/ reference)");
            }
            if !missing.is_empty() && !decl_file.is_allowed(L002, decl_line) {
                findings.push(finding(
                    decl_file,
                    decl_line,
                    L002,
                    format!(
                        "record kind `{name}` is missing {} — a kind that ships \
                         encode-only (or untested) breaks protocol exhaustiveness",
                        missing.join(" and ")
                    ),
                ));
            }
        }
    }
    findings
}

/// `const KIND_*` declarations in one file: `(name, line)`.
fn kind_const_declarations(file: &SourceFile) -> Vec<(String, u32)> {
    let mut decls = Vec::new();
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind.ident() == Some("const") {
            if let Some(next) = toks.get(i + 1) {
                if let Some(name) = next.kind.ident() {
                    if name.starts_with("KIND_") {
                        decls.push((name.to_string(), next.line));
                    }
                }
            }
        }
    }
    decls
}

// ---------------------------------------------------------------------------
// L003 — tracked-bench sync
// ---------------------------------------------------------------------------

const L003: &str = "L003";
const BENCHES_DIR: &str = "crates/zipline-bench/benches";
const REGRESSION_RS: &str = "crates/zipline-bench/src/regression.rs";

/// The tracked set is the bench gate's own constant — imported, not
/// copied, so the lint and the gate can never drift apart.
fn tracked_groups() -> &'static [&'static str] {
    zipline_bench::regression::TRACKED_GROUPS
}

fn l003_tracked_bench_sync(ws: &Workspace) -> Vec<Finding> {
    let tracked = tracked_groups();
    let mut findings = Vec::new();
    let mut registered: Vec<String> = Vec::new();
    for file in ws.files_under(BENCHES_DIR) {
        let toks = &file.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if tok.kind.ident() != Some("benchmark_group") {
                continue;
            }
            if !matches!(toks.get(i + 1), Some(t) if t.kind.is_punct('(')) {
                continue;
            }
            match toks.get(i + 2).map(|t| &t.kind) {
                Some(TokKind::Str(group)) => {
                    registered.push(group.clone());
                    if !tracked.contains(&group.as_str()) && !file.is_allowed(L003, tok.line) {
                        findings.push(finding(
                            file,
                            tok.line,
                            L003,
                            format!(
                                "bench group `{group}` is not in the CI gate's tracked set \
                                 (zipline-bench regression::TRACKED_GROUPS) — add it to the \
                                 gate or allow it with a justification"
                            ),
                        ));
                    }
                }
                _ => {
                    if !file.is_allowed(L003, tok.line) {
                        findings.push(finding(
                            file,
                            tok.line,
                            L003,
                            "bench group name is not a string literal — the tracked-set \
                             check cannot see it; use a literal or allow with the \
                             expanded names"
                                .to_string(),
                        ));
                    }
                }
            }
        }
    }
    // Reverse direction: a tracked group with no registration is a renamed
    // or deleted bench target — the bench gate would only notice at bench
    // time; the lint notices at build time. Anchored to the tracked-set
    // source so the fix site is obvious.
    if let Some(reg_file) = ws.file(REGRESSION_RS) {
        for group in tracked {
            if registered.iter().any(|g| g == group) {
                continue;
            }
            let line = reg_file
                .tokens
                .iter()
                .find(|t| matches!(&t.kind, TokKind::Str(s) if s == group))
                .map(|t| t.line)
                .unwrap_or(1);
            if !reg_file.is_allowed(L003, line) {
                findings.push(finding(
                    reg_file,
                    line,
                    L003,
                    format!(
                        "tracked bench group `{group}` has no `benchmark_group(\"{group}\")` \
                         registration under {BENCHES_DIR}/ — renamed or deleted bench target"
                    ),
                ));
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// L004 — deprecation expiry
// ---------------------------------------------------------------------------

const L004: &str = "L004";

fn l004_deprecation_expiry(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        let toks = &file.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if !tok.kind.is_punct('#') {
                continue;
            }
            if !matches!(toks.get(i + 1), Some(t) if t.kind.is_punct('[')) {
                continue;
            }
            if toks.get(i + 2).and_then(|t| t.kind.ident()) != Some("deprecated") {
                continue;
            }
            if file.is_allowed(L004, tok.line) {
                continue;
            }
            let note = deprecated_note(toks, i + 2);
            let Some(note) = note else {
                findings.push(finding(
                    file,
                    tok.line,
                    L004,
                    "`#[deprecated]` without a note — deprecations must carry \
                     `note = \"…; remove in <version>\"` so the shim has a deadline",
                ));
                continue;
            };
            let Some(removal) = removal_version(&note) else {
                findings.push(finding(
                    file,
                    tok.line,
                    L004,
                    format!(
                        "deprecation note `{note}` names no removal version — state \
                         `remove in <version>` so the shim has a deadline"
                    ),
                ));
                continue;
            };
            if version_at_least(&ws.version, &removal) {
                let dotted = |v: &[u64]| {
                    v.iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(".")
                };
                findings.push(finding(
                    file,
                    tok.line,
                    L004,
                    format!(
                        "deprecated item's removal deadline {} is reached (workspace is \
                         at {}) — delete the shim",
                        dotted(&removal),
                        dotted(&ws.version)
                    ),
                ));
            }
        }
    }
    findings
}

/// The note string of a `#[deprecated(...)]` attribute starting at the
/// `deprecated` identifier; handles `#[deprecated = "…"]` and
/// `#[deprecated(note = "…", since = "…")]`. `None` when no note exists.
fn deprecated_note(toks: &[Tok], deprecated_at: usize) -> Option<String> {
    match toks.get(deprecated_at + 1).map(|t| &t.kind) {
        Some(TokKind::Punct('=')) => match toks.get(deprecated_at + 2).map(|t| &t.kind) {
            Some(TokKind::Str(s)) => Some(s.clone()),
            _ => None,
        },
        Some(TokKind::Punct('(')) => {
            let mut j = deprecated_at + 2;
            let mut depth = 1i32;
            while j < toks.len() && depth > 0 {
                match &toks[j].kind {
                    TokKind::Punct('(') => depth += 1,
                    TokKind::Punct(')') => depth -= 1,
                    TokKind::Ident(name) if name == "note" && depth == 1 => {
                        if matches!(toks.get(j + 1), Some(t) if t.kind.is_punct('=')) {
                            if let Some(TokKind::Str(s)) = toks.get(j + 2).map(|t| &t.kind) {
                                return Some(s.clone());
                            }
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            None
        }
        _ => None,
    }
}

/// Extracts the version after `remove in ` (case-insensitive) in a note.
fn removal_version(note: &str) -> Option<Vec<u64>> {
    let lower = note.to_lowercase();
    let at = lower.find("remove in ")?;
    let rest = &note[at + "remove in ".len()..];
    let rest = rest.trim_start().trim_start_matches(['v', 'V']);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    parse_version(&rest[..end])
}

// ---------------------------------------------------------------------------
// L005 — error-enum hygiene
// ---------------------------------------------------------------------------

const L005: &str = "L005";

fn l005_error_enum_hygiene(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        let Some(crate_prefix) = crate_src_prefix(&file.rel_path) else {
            continue;
        };
        let toks = &file.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if tok.kind.ident() != Some("pub") {
                continue;
            }
            // Plain `pub` only: `pub(crate)` enums are not public API.
            if toks.get(i + 1).and_then(|t| t.kind.ident()) != Some("enum") {
                continue;
            }
            let Some(name_tok) = toks.get(i + 2) else {
                continue;
            };
            let Some(name) = name_tok.kind.ident() else {
                continue;
            };
            if !name.ends_with("Error") || file.in_test_scope(tok.line) {
                continue;
            }
            if file.is_allowed(L005, tok.line) {
                continue;
            }
            let attrs = attribute_idents_before(toks, i);
            if !attrs.iter().any(|a| a == "non_exhaustive") {
                findings.push(finding(
                    file,
                    tok.line,
                    L005,
                    format!(
                        "public error enum `{name}` is not `#[non_exhaustive]` — \
                         downstream matches must stay open to new failure modes"
                    ),
                ));
            }
            for (trait_name, what) in [
                ("Display", "`Display` (human-readable message)"),
                ("Error", "`std::error::Error` (source chaining)"),
            ] {
                let implemented = ws
                    .files_under(crate_prefix)
                    .any(|f| has_impl_for(&f.tokens, trait_name, name));
                if !implemented {
                    findings.push(finding(
                        file,
                        tok.line,
                        L005,
                        format!("public error enum `{name}` does not implement {what}"),
                    ));
                }
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// L006 — codec-id exhaustiveness
// ---------------------------------------------------------------------------

/// The file whose `CODEC_*` constants define the codec id space.
pub const L006_REGISTRY_FILE: &str = "crates/zipline-engine/src/registry.rs";

const L006: &str = "L006";

/// Every `CODEC_*` constant declared in the codec registry must be
/// registered (a `.entry(CODEC_X, …)` call in the registry file), appear at
/// an encode site, in a decode match/comparison, and in at least one test.
/// A codec id that only exists as a constant is a wire byte nothing can
/// produce or parse — exactly the drift this rule pins down. Occurrences
/// inside `use` declarations are ignored: a re-export is not an encode site.
fn l006_codec_id_exhaustiveness(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(decl_file) = ws.file(L006_REGISTRY_FILE) else {
        return findings;
    };
    for (name, decl_line) in codec_const_declarations(decl_file) {
        let mut has_entry = false;
        let mut has_encode = false;
        let mut has_decode = false;
        let mut has_test = false;
        for file in &ws.files {
            let in_use = use_statement_tokens(&file.tokens);
            for (i, tok) in file.tokens.iter().enumerate() {
                if tok.kind.ident() != Some(name.as_str()) || in_use[i] {
                    continue;
                }
                // Skip the declaration itself.
                if file.rel_path == L006_REGISTRY_FILE
                    && i > 0
                    && file.tokens[i - 1].kind.ident() == Some("const")
                {
                    continue;
                }
                let in_test = file.rel_path.contains("/tests/") || file.in_test_scope(tok.line);
                if in_test {
                    has_test = true;
                    continue;
                }
                // Registry entry: the first argument of an `.entry(…)` call
                // in the registry file. Registration alone is neither an
                // encode nor a decode site.
                if file.rel_path == L006_REGISTRY_FILE
                    && i >= 2
                    && file.tokens[i - 1].kind.is_punct('(')
                    && file.tokens[i - 2].kind.ident() == Some("entry")
                {
                    has_entry = true;
                    continue;
                }
                let next = file.tokens.get(i + 1).map(|t| &t.kind);
                let prev = i.checked_sub(1).map(|p| &file.tokens[p].kind);
                let is_decode = matches!(next, Some(TokKind::FatArrow))
                    || matches!(next, Some(TokKind::Punct('|')))
                    || matches!(next, Some(TokKind::EqEq))
                    || matches!(prev, Some(TokKind::EqEq));
                if is_decode {
                    has_decode = true;
                } else {
                    has_encode = true;
                }
            }
        }
        let mut missing = Vec::new();
        if !has_entry {
            missing.push("a registry entry (`.entry(…)` in the registry)");
        }
        if !has_encode {
            missing.push("an encode site");
        }
        if !has_decode {
            missing.push("a decode match/comparison");
        }
        if !has_test {
            missing.push("test coverage (a `#[cfg(test)]` or tests/ reference)");
        }
        if !missing.is_empty() && !decl_file.is_allowed(L006, decl_line) {
            findings.push(finding(
                decl_file,
                decl_line,
                L006,
                format!(
                    "codec id `{name}` is missing {} — an id the registry cannot \
                     build, nothing emits or nothing parses is codec-space drift",
                    missing.join(" and ")
                ),
            ));
        }
    }
    findings
}

/// `const CODEC_*` declarations in one file: `(name, line)`.
fn codec_const_declarations(file: &SourceFile) -> Vec<(String, u32)> {
    let mut decls = Vec::new();
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind.ident() == Some("const") {
            if let Some(next) = toks.get(i + 1) {
                if let Some(name) = next.kind.ident() {
                    if name.starts_with("CODEC_") {
                        decls.push((name.to_string(), next.line));
                    }
                }
            }
        }
    }
    decls
}

/// Marks every token that belongs to a `use` declaration (from the `use`
/// keyword through its terminating `;`), so imports and re-exports can be
/// excluded from site classification.
fn use_statement_tokens(toks: &[Tok]) -> Vec<bool> {
    let mut in_use = vec![false; toks.len()];
    let mut active = false;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind.ident() == Some("use") {
            active = true;
        }
        in_use[i] = active;
        if active && tok.kind.is_punct(';') {
            active = false;
        }
    }
    in_use
}

/// The `src/` tree prefix of the crate owning `rel_path`, or `None` for
/// files outside any crate's `src/` (benches, tests, examples).
fn crate_src_prefix(rel_path: &str) -> Option<&str> {
    if rel_path.starts_with("src/") {
        return Some("src/");
    }
    let rest = rel_path.strip_prefix("crates/")?;
    let crate_name_len = rest.find('/')?;
    let after = &rest[crate_name_len..];
    if after.starts_with("/src/") {
        Some(&rel_path[.."crates/".len() + crate_name_len + "/src/".len()])
    } else {
        None
    }
}

/// Idents inside the contiguous run of `#[…]` attributes directly above
/// token `i` (derives, `non_exhaustive`, `doc`, …).
fn attribute_idents_before(toks: &[Tok], mut i: usize) -> Vec<String> {
    let mut idents = Vec::new();
    while i > 0 {
        if !toks[i - 1].kind.is_punct(']') {
            break;
        }
        // Walk back to the matching '['.
        let mut depth = 0i32;
        let mut j = i - 1;
        loop {
            if toks[j].kind.is_punct(']') {
                depth += 1;
            } else if toks[j].kind.is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                return idents;
            }
            j -= 1;
        }
        if j == 0 || !toks[j - 1].kind.is_punct('#') {
            break;
        }
        for t in &toks[j + 1..i - 1] {
            if let Some(name) = t.kind.ident() {
                idents.push(name.to_string());
            }
        }
        i = j - 1;
    }
    idents
}

/// True when the token stream contains `… <trait_name> for <type_name>`.
fn has_impl_for(toks: &[Tok], trait_name: &str, type_name: &str) -> bool {
    toks.windows(3).any(|w| {
        w[0].kind.ident() == Some(trait_name)
            && w[1].kind.ident() == Some("for")
            && w[2].kind.ident() == Some(type_name)
    })
}
