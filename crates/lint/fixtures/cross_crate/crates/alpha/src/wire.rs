//! Alpha: the decode surface the beta crate drives. Exports an announced
//! length reader and two allocation helpers — one every caller must bound
//! (beta's raw call makes it the sink of a cross-crate length bomb), one
//! whose only caller guards first and which must stay silent.

pub const MAX_SLOTS: usize = 4096;

/// Announced element count, straight off the wire.
pub fn announced_len(input: &mut &[u8]) -> usize {
    decode_len(input).unwrap_or(0)
}

/// Allocates whatever the caller asks for: safe only while every caller
/// bounds `slots` first.
pub fn reserve_slots(slots: usize) -> Vec<u64> {
    let out: Vec<u64> = Vec::with_capacity(slots);
    out
}

/// Twin of `reserve_slots` whose only caller guards `slots` before the
/// call, so the workspace fixpoint proves this allocation bounded.
pub fn reserve_bounded(slots: usize) -> Vec<u64> {
    let out: Vec<u64> = Vec::with_capacity(slots);
    out
}
