//! Building blocks of the `railbench` benchmark: seeded history
//! generation ([`gen`]), in-memory span tracing with self-time
//! accounting ([`spans`]), resident-memory readings ([`mem`]), and the
//! summary statistics every metric is reported with ([`stats`]). The workloads themselves live in the
//! binary (`src/main.rs`).

pub mod gen;
pub mod mem;
pub mod spans;
pub mod stats;
