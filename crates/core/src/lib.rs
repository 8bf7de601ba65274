//! # distrust-core
//!
//! The `distrust` framework — a Rust reproduction of the system proposed in
//! *Reflections on trusting distributed trust* (HotNets '22): publicly
//! auditable bootstrapping of distributed-trust deployments from two
//! application-independent building blocks, secure hardware and an
//! append-only log.
//!
//! ## The design in one paragraph
//!
//! A developer seals an application-independent framework (plus her update
//! public key) into a TEE in each of `n` trust domains; trust domain 0 is
//! her own machine with no secure hardware. The framework accepts
//! developer-signed application releases, runs them inside a sandbox they
//! cannot escape, appends every activated code digest to an append-only
//! log, and makes update notices available before new code serves its
//! first request. Clients audit by challenging each domain for an
//! attestation quote that binds a fresh nonce, the running app digest, and
//! the log head; verifying signed log checkpoints and consistency proofs;
//! and cross-checking digest histories across all domains. If at least `t`
//! domains run the published code honestly, the application's
//! distributed-trust guarantees hold; any divergence is detected and —
//! for equivocation — yields a transferable cryptographic proof.
//!
//! ## Crate map
//!
//! * [`manifest`] — developer-signed releases.
//! * [`abi`] — the framework ↔ application calling convention.
//! * [`protocol`] — client ↔ trust-domain messages.
//! * [`framework`] — the application-independent framework (§4.1).
//! * [`server`] — direct hosting for trust domain 0.
//! * [`client`] — the client/auditor library (§3.3 guarantees).
//! * [`session`] — trust-gated, pipelined multi-domain fan-out sessions.
//! * [`deploy`] — one-call bootstrap of a full deployment.

pub mod abi;
pub mod client;
pub mod deploy;
pub mod framework;
pub mod manifest;
pub mod protocol;
pub mod server;
pub mod session;
pub mod witness;

pub use abi::{app_call, AppCallError, AppHost, NoImports};
pub use client::{AuditReport, ClientError, DeploymentClient, DeploymentDescriptor, DomainInfo};
pub use deploy::{AppSpec, DeployError, Deployment};
pub use framework::{framework_measurement, EnclaveFramework, FrameworkConfig, FrameworkService};
pub use manifest::{ReleaseError, ReleaseManifest, SignedRelease};
pub use protocol::{DomainStatus, Request, Response, UpdateNotice};
pub use server::DirectHost;
pub use session::{
    DomainOutcome, FanoutCall, FanoutPayloads, FanoutReport, QuorumPolicy, Session, TrustPolicy,
};
pub use witness::WitnessRelay;
