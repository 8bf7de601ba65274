//! # distrust-tee
//!
//! Simulated heterogeneous secure hardware — the first of the paper's two
//! application-independent building blocks (§3.1): hardware that can
//! "attest to the code that is running", isolate memory, and seal state.
//!
//! Three vendor ecosystems are simulated ([`vendor::VendorKind`]), each
//! with its own root of trust and attestation evidence format, so the
//! framework can place trust domains on *heterogeneous* hardware (§3.2).
//! Compromise-injection APIs (`Vendor::leak_root_key`,
//! `Enclave::leak_attestation_key`) model the TEE exploits the paper
//! worries about, letting tests demonstrate which guarantees survive.
//!
//! * [`vendor`] — vendors, device certificates, pinned roots.
//! * [`attest`] — attestation documents, quotes, verification.
//! * [`enclave`] — launched enclaves: quoting, measurement-bound key derivation.
//! * [`host`] — the two-socket proxy topology of the paper's prototype
//!   (client → host proxy → enclave interior), used verbatim by Table 3;
//!   both sockets are served by the wire's one server shape.
//!
//! See DESIGN.md for why simulation preserves the behaviours that matter.

pub mod attest;
pub mod enclave;
pub mod host;
pub mod vendor;

pub use attest::{AttestError, AttestationDocument, KnownDevice, PlatformEvidence, Quote};
pub use enclave::{Enclave, SecureDevice};
pub use host::{EnclaveHost, EnclaveService};
pub use vendor::{DeviceCert, Vendor, VendorKind, VendorRoots};
