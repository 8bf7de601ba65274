//! # distrust-crypto
//!
//! From-scratch cryptography for the `distrust` workspace, the Rust
//! reproduction of *Reflections on trusting distributed trust* (HotNets '22).
//!
//! The paper's prototype signs with BLS threshold signatures (via libBLS) and
//! relies on hashes, signatures, and secret sharing throughout its framework.
//! This crate supplies all of that with no third-party crypto dependencies:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 (code measurements, log entries).
//! * [`hmac`] — HMAC-SHA256 + HKDF (sealing keys, nonce derivation).
//! * [`drbg`] — HMAC-DRBG (deterministic randomness, RFC 6979-style nonces).
//! * [`fp`]/[`fr`]/[`fp2`]/[`fp6`]/[`fp12`] — the BLS12-381 field tower.
//! * [`curve`] — one group law for both curves: Jacobian points, the
//!   ladder and the compressed encoding, generic over the base field.
//! * [`g1`]/[`g2`] — the two groups on it: generators, subgroup tests,
//!   G1's multi-scalar kernel and hash-to-curve.
//! * [`mod@pairing`] — the optimal ate pairing.
//! * [`bls`] — BLS signatures (sign/verify, keys prepared for many checks).
//! * [`threshold`] — Shamir sharing over `Fr`, Feldman VSS, threshold BLS.
//! * [`gf256`] — byte-oriented Shamir secret sharing (key backup payloads).
//! * [`schnorr`] — Schnorr signatures over G1 (developer update keys, vendor
//!   attestation roots, log checkpoint signatures).
//!
//! ## Security model
//!
//! This is a research artifact accompanying a systems paper reproduction:
//! algorithms are implemented faithfully and tested heavily (known-answer
//! vectors, algebraic property tests), but the code is **variable time** and
//! has never been audited. Do not reuse for production secrets.

pub mod bls;
pub mod curve;
pub mod drbg;
pub(crate) mod field;
pub mod fp;
pub mod fp12;
pub mod fp2;
pub mod fp6;
pub mod fr;
pub mod g1;
pub mod g2;
pub mod gf256;
pub mod hmac;
pub mod limbs;
pub mod pairing;
pub mod schnorr;
pub mod sha256;
pub mod threshold;

/// `|x|` for the BLS12-381 curve parameter `x = -0xd201000000010000`
/// (`r = x⁴ − x² + 1`): the Miller loop's length and the scalar of the G1
/// subgroup test.
pub(crate) const BLS_X: u64 = 0xd201_0000_0001_0000;

pub use fp::Fp;
pub use fr::Fr;
pub use g1::{hash_to_g1, G1Affine, G1Projective};
pub use g2::{G2Affine, G2Projective};
pub use pairing::{pairing, pairing_equality, G2Prepared, Gt};
pub use sha256::{sha256, sha256_many, Digest};
