//! A benchmark harness is a crate like any other: its public items need
//! a caller too.

/// Nothing calls it: fires.
pub fn unused_ratio() -> f64 {
    1.0
}
