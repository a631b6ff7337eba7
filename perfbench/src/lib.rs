//! The repository benchmark: end-to-end and per-layer measurements of
//! the TurboMap-frt pipeline on three workloads (see README.md).

pub mod designs;
mod pipeline;
pub mod run;
mod spans;

/// Heap accounting for the traced pass's per-layer memory figures; off
/// (one relaxed load per allocation) during untraced passes.
#[global_allocator]
static ALLOC: engine::mem::CountingAlloc = engine::mem::CountingAlloc::new();
