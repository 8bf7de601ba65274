//! The six repo-specific analysis passes.

pub mod blocking;
pub mod lock_order;
pub mod panic_path;
pub mod protocol;
pub mod taint_alloc;
pub mod trust_boundary;
