//! # distrust-bench
//!
//! Shared harness for regenerating the paper's evaluation (Table 3) and
//! the ablation benchmarks listed in DESIGN.md §4.
//!
//! The heart of this crate is [`environments`]: the three execution
//! environments of Table 3, built so that the *only* difference between
//! rows is the mechanism the paper identifies —
//!
//! | row | topology |
//! |-----|----------|
//! | Baseline | client —socket→ native signer |
//! | Sandbox | client —socket→ sandboxed signer (in-process VM) |
//! | TEE + Sandbox | client —socket→ proxy —socket→ framework —socket→ sandboxed signer (two *additional* sockets, §5) |

pub mod environments;
pub mod hashchain;
pub mod report;
pub mod stats;

pub use environments::{Environment, SigningBench};
pub use hashchain::HashChain;
pub use stats::Summary;
