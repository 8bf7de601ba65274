//! The seven repo-specific analysis passes.

pub mod blocking;
pub mod dead_surface;
pub mod lock_order;
pub mod panic_path;
pub mod protocol;
pub mod taint_alloc;
pub mod trust_boundary;
