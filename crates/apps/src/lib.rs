//! # distrust-apps
//!
//! Applications built on the public API of the `distrust` framework,
//! demonstrating that it bootstraps *arbitrary* distributed-trust
//! applications (the paper's central claim):
//!
//! * [`threshold_signer`] — the paper's own prototype (§5): BLS threshold
//!   signing with a signed-digit scalar ladder running inside the sandbox
//!   (native signing runs a different, faster kernel: see its Table 3
//!   note).
//! * [`key_backup`] — the motivating application of Figure 1: secret-key
//!   backup where a compromised developer learns nothing.
//! * [`analytics`] — Prio-style private aggregation (§2's first deployed
//!   example), with the aggregation logic as pure, auditable guest code.

pub mod analytics;
pub mod key_backup;
pub mod threshold_signer;
