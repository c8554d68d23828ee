//! The repository's benchmark as a library: `main.rs` is the command
//! line, `tests/quick.rs` drives the built program and reads its output
//! with the same JSON code. See `README.md`.

pub mod compare;
pub mod estimate;
pub mod harness;
pub mod host;
pub mod input;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod spans;
pub mod workloads;
