//! # distrust
//!
//! A Rust reproduction of **“Reflections on trusting distributed trust”**
//! (Dauterman, Fang, Crooks, Popa — HotNets ’22): a framework that lets a
//! single application developer bootstrap a distributed-trust deployment
//! that users can *audit*, built from two application-independent building
//! blocks — secure hardware and an append-only log.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`crypto`] — BLS12-381, BLS threshold signatures, Shamir/Feldman,
//!   GF(256) sharing, SHA-256, Schnorr (all from scratch).
//! * [`wire`] — deterministic codec, framing, transports.
//! * [`sandbox`] — the bytecode VM standing in for Wasm.
//! * [`tee`] — simulated heterogeneous secure hardware.
//! * [`log`] — hash-chain + Merkle append-only logs, auditing.
//! * [`core`] — the framework: trust domains, clients, deployments.
//! * [`gossip`] — checkpoint gossip, transferable evidence, witness
//!   cosigning.
//! * [`apps`] — threshold signing, key backup, private analytics.
//!
//! ## Quickstart
//!
//! ```no_run
//! use distrust::apps::threshold_signer;
//! use distrust::core::{Deployment, TrustPolicy};
//! use distrust::crypto::drbg::HmacDrbg;
//!
//! let mut rng = HmacDrbg::new(b"demo seed", b"");
//! let (spec, public) = threshold_signer::setup(3, 5, &mut rng).unwrap();
//! let deployment = Deployment::launch(spec, b"demo seed").unwrap();
//! let mut client = deployment.client(b"client seed");
//!
//! // Audit before trusting — by construction: the session's trust policy
//! // runs the audit before the first application call and refuses
//! // domains that fail it (every TEE domain must attest the framework
//! // and all domains must agree on the pinned code digest).
//! let mut session = client.session(TrustPolicy::pinned(deployment.initial_app_digest));
//!
//! // Jointly sign with t-of-n trust domains: one pipelined fan-out,
//! // returning as soon as t partial signatures have arrived and their
//! // aggregate verifies under the group key.
//! let signer = threshold_signer::ThresholdSigningClient::new(public);
//! let sig = signer.sign(&mut session, b"hello distributed trust").unwrap();
//! assert!(session.last_audit().unwrap().is_clean());
//! ```

pub use distrust_apps as apps;
pub use distrust_core as core;
pub use distrust_crypto as crypto;
pub use distrust_gossip as gossip;
pub use distrust_log as log;
pub use distrust_sandbox as sandbox;
pub use distrust_tee as tee;
pub use distrust_wire as wire;
