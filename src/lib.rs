//! Workspace-root umbrella crate for the ZipLine reproduction.
//!
//! This crate re-exports the public APIs of every crate in the workspace so
//! that the repository-level `examples/` and `tests/` can exercise the whole
//! system through a single dependency. Library users should depend on the
//! individual crates (`zipline`, `zipline-gd`, …) directly.

pub use zipline;
pub use zipline_deflate;
pub use zipline_engine;
pub use zipline_gd;
pub use zipline_net;
pub use zipline_server;
pub use zipline_switch;
pub use zipline_traces;
