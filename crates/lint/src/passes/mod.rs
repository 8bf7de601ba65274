//! The six repo-specific analysis passes.

pub mod blocking;
pub mod dead_surface;
pub mod lock_order;
pub mod panic_path;
pub mod taint_alloc;
pub mod trust_boundary;
