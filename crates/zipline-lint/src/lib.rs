//! zipline-lint: the workspace invariant checker.
//!
//! A deliberately small, dependency-free static analyzer for *this*
//! repository. It does not try to be a general Rust parser — it lexes
//! accurately (strings, comments, raw strings, lifetimes) and then pattern
//! matches on the token stream, which is exactly enough to enforce the
//! project-specific invariants that `rustc` and `clippy` cannot see:
//!
//! * **L001 no-panic-paths** — socket- and disk-facing byte handling
//!   (`zipline-server/src`, `zipline-engine/src/frame.rs` and `persist.rs`) must not
//!   contain `.unwrap()` / `.expect()` / `panic!`-family macros / literal
//!   slice indexing outside test code. A malformed frame must surface as a
//!   typed error, never a crash.
//! * **L002 record-kind exhaustiveness** — every `KIND_*` record constant
//!   declared in the wire/persist protocol files must appear at an encode
//!   site, in a decode match/comparison, and in at least one test.
//! * **L003 tracked-bench sync** — every criterion bench group under
//!   `zipline-bench/benches/` is either in the CI regression gate's
//!   tracked set (imported from `zipline_bench::regression`, not copied)
//!   or carries an explicit allow; tracked groups that no longer exist
//!   are flagged in the other direction.
//! * **L004 deprecation-expiry** — `#[deprecated]` must carry a note with
//!   `remove in <version>`; once the workspace version reaches it, the
//!   lint fails until the shim is deleted.
//! * **L005 error-enum hygiene** — public `*Error` enums are
//!   `#[non_exhaustive]` and implement `Display` + `std::error::Error`.
//! * **L006 codec-id exhaustiveness** — every `CODEC_*` constant declared
//!   in `zipline-engine/src/registry.rs` must have a registry `.entry(…)`,
//!   an encode site, a decode match/comparison, and test coverage, so no
//!   codec id ships that the registry cannot build or nothing can parse.
//!
//! Findings print as `path:line: RULE: message` and a non-empty set makes
//! the binary exit non-zero, so CI can gate on it directly. Opt-outs are
//! per-site comments with a mandatory justification:
//!
//! ```text
//! // zipline-lint: allow(L001): CRC spec parameters are compile-time constants
//! ```

pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

pub use rules::{run_all, Finding};
pub use workspace::Workspace;

use std::io;
use std::path::Path;

/// Loads the workspace rooted at `root` and runs every rule. Findings are
/// sorted by path, line, rule.
pub fn run(root: impl AsRef<Path>) -> io::Result<Vec<Finding>> {
    let ws = Workspace::load(root)?;
    Ok(rules::run_all(&ws))
}
