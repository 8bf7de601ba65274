//! BLS signatures over BLS12-381 (Boneh–Lynn–Shacham, ASIACRYPT '01) —
//! the signature scheme of the paper's prototype application.
//!
//! Convention: signatures in G1 (48-byte compressed), public keys in G2
//! (96-byte compressed). Verification checks `e(σ, g₂) == e(H(m), pk)`,
//! always in [`PreparedPublicKey::verify_prehashed`]: a key kept for many
//! checks is prepared once, and a bare [`PublicKey`] prepares itself for
//! each.

use crate::fr::Fr;
use crate::g1::{hash_to_g1, G1Affine};
use crate::g2::{G2Affine, G2Projective};
use crate::pairing::{pairing_equality, G2Prepared};
use std::borrow::Cow;

/// Domain separation tag for message hashing.
pub const MSG_DST: &[u8] = b"distrust/bls/msg/v1";

/// A BLS secret key (a nonzero scalar).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(pub Fr);

/// A BLS public key (a point in G2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublicKey(pub G2Affine);

/// A BLS signature (a point in G1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature(pub G1Affine);

impl core::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("SecretKey(<redacted>)")
    }
}

impl SecretKey {
    /// Generates a fresh key.
    pub fn generate<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self(Fr::random_nonzero(rng))
    }

    /// Deterministically derives a key from seed material (for tests and the
    /// simulated TEE's sealed identities).
    pub fn derive(seed: &[u8], context: &[u8]) -> Self {
        let mut drbg = crate::drbg::HmacDrbg::new(seed, context);
        Self(Fr::random_nonzero(&mut drbg))
    }

    /// The corresponding public key `pk = sk·g₂`.
    pub fn public_key(&self) -> PublicKey {
        PublicKey(G2Projective::generator().mul_scalar(&self.0).to_affine())
    }

    /// Signs a message: `σ = sk·H(m)`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let h = hash_to_g1(message, MSG_DST);
        Signature(h.mul_scalar(&self.0).to_affine())
    }
}

/// A public key kept with its Miller-loop lines: the key and its
/// [`G2Prepared`] table, built together by [`Self::new`] and never changed
/// apart. A key that checks many signatures — a threshold deployment's
/// group key, kept in its public parameters — pays the ≈ 0.19 ms of
/// preparing it once instead of on every check. A clone shares the table.
#[derive(Clone, PartialEq)]
pub struct PreparedPublicKey {
    key: PublicKey,
    lines: G2Prepared,
}

impl PreparedPublicKey {
    /// Prepares `key`.
    pub fn new(key: PublicKey) -> Self {
        Self {
            lines: G2Prepared::new(&key.0),
            key,
        }
    }

    /// The key itself.
    pub fn key(&self) -> &PublicKey {
        &self.key
    }

    /// The one pairing check every verification in this crate goes
    /// through: `e(σ, g₂) == e(h, pk)` for a message already hashed to
    /// `h ∈ G1`. Refuses an infinity signature or key and a signature point
    /// off the curve or outside the order-`r` subgroup, before the pairing.
    ///
    /// [`PublicKey::verify_prehashed`] prepares its key and calls this;
    /// a caller checking several signatures over one message hashes once
    /// and calls it directly.
    pub fn verify_prehashed(&self, h: &G1Affine, signature: &Signature) -> bool {
        if signature.0.infinity || self.key.0.infinity {
            return false;
        }
        if !signature.0.is_on_curve() || !signature.0.is_torsion_free() {
            return false;
        }
        pairing_equality(&signature.0, G2Prepared::generator(), h, &self.lines)
    }

    /// Verifies `σ` over `message`: `e(σ, g₂) == e(H(m), pk)`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        self.verify_prehashed(&hash_to_g1(message, MSG_DST).to_affine(), signature)
    }
}

/// A key that can check a signature as a [`PreparedPublicKey`]: a kept
/// one as it is, a bare [`PublicKey`] prepared for the one check. For a
/// function that takes either.
pub trait AsPrepared {
    /// The key with its Miller-loop lines.
    fn as_prepared(&self) -> Cow<'_, PreparedPublicKey>;
}

impl AsPrepared for PreparedPublicKey {
    fn as_prepared(&self) -> Cow<'_, PreparedPublicKey> {
        Cow::Borrowed(self)
    }
}

impl AsPrepared for PublicKey {
    fn as_prepared(&self) -> Cow<'_, PreparedPublicKey> {
        Cow::Owned(PreparedPublicKey::new(*self))
    }
}

impl core::fmt::Debug for PreparedPublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("PreparedPublicKey").field(&self.key).finish()
    }
}

impl PublicKey {
    /// [`PreparedPublicKey::verify_prehashed`] under this key, prepared
    /// for the one check. [`Self::verify`] and
    /// [`crate::threshold::verify_partial`] hash (and derive the key) and
    /// call this.
    pub fn verify_prehashed(&self, h: &G1Affine, signature: &Signature) -> bool {
        PreparedPublicKey::new(*self).verify_prehashed(h, signature)
    }

    /// Verifies `σ` over `message`: `e(σ, g₂) == e(H(m), pk)`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        self.verify_prehashed(&hash_to_g1(message, MSG_DST).to_affine(), signature)
    }

    /// Compressed encoding.
    pub fn to_bytes(&self) -> [u8; 96] {
        self.0.to_compressed()
    }

    /// Decoding with full validation.
    pub fn from_bytes(bytes: &[u8; 96]) -> Option<Self> {
        G2Affine::from_compressed(bytes).map(PublicKey)
    }
}

impl Signature {
    /// Compressed encoding.
    pub fn to_bytes(&self) -> [u8; 48] {
        self.0.to_compressed()
    }

    /// Decoding with full validation.
    pub fn from_bytes(bytes: &[u8; 48]) -> Option<Self> {
        G1Affine::from_compressed(bytes).map(Signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair(tag: &[u8]) -> (SecretKey, PublicKey) {
        let sk = SecretKey::derive(b"bls test seed", tag);
        let pk = sk.public_key();
        (sk, pk)
    }

    #[test]
    fn sign_verify_round_trip() {
        let (sk, pk) = keypair(b"k1");
        let sig = sk.sign(b"attack at dawn");
        assert!(pk.verify(b"attack at dawn", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let (sk, pk) = keypair(b"k1");
        let sig = sk.sign(b"attack at dawn");
        assert!(!pk.verify(b"attack at dusk", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let (sk, _) = keypair(b"k1");
        let (_, pk2) = keypair(b"k2");
        let sig = sk.sign(b"msg");
        assert!(!pk2.verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (sk, pk) = keypair(b"k1");
        let sig = sk.sign(b"msg");
        let mut bytes = sig.to_bytes();
        bytes[20] ^= 0xff;
        // Either fails to decode or verifies false.
        if let Some(bad) = Signature::from_bytes(&bytes) {
            assert!(!pk.verify(b"msg", &bad));
        }
    }

    #[test]
    fn identity_signature_rejected() {
        let (_, pk) = keypair(b"k1");
        let id_sig = Signature(G1Affine::identity());
        assert!(!pk.verify(b"msg", &id_sig));
    }

    #[test]
    fn verify_refuses_a_signature_point_outside_g1() {
        let (sk, pk) = keypair(b"subgroup");
        let sig = sk.sign(b"msg");
        let shifted = Signature(sig.0.plus_order_three_point());
        let h = hash_to_g1(b"msg", MSG_DST).to_affine();
        let prepared = PreparedPublicKey::new(pk);
        assert!(
            pairing_equality(&shifted.0, G2Prepared::generator(), &h, &prepared.lines),
            "the bare pairing equation accepts it"
        );
        assert!(pk.verify(b"msg", &sig));
        assert!(!pk.verify(b"msg", &shifted));
        assert!(!pk.verify_prehashed(&h, &shifted));
        assert!(prepared.verify(b"msg", &sig));
        assert!(!prepared.verify(b"msg", &shifted));
        // Infinity and a point off the curve are refused too.
        let off_curve = Signature(G1Affine {
            y: sig.0.y.double(),
            ..sig.0
        });
        assert!(!off_curve.0.is_on_curve());
        for refused in [Signature(G1Affine::identity()), off_curve] {
            assert!(!prepared.verify_prehashed(&h, &refused));
        }
        assert!(!PreparedPublicKey::new(PublicKey(G2Affine::identity())).verify(b"msg", &sig));
        // Not decodable as a signature either.
        assert!(Signature::from_bytes(&shifted.to_bytes()).is_none());
    }

    /// The kept table is the one a fresh preparation of the key builds.
    #[test]
    fn a_prepared_key_keeps_the_table_of_its_key() {
        let (sk, pk) = keypair(b"prepared");
        let prepared = PreparedPublicKey::new(pk);
        assert_eq!(prepared.key(), &pk);
        assert_eq!(prepared.lines, G2Prepared::new(&pk.0));
        let sig = sk.sign(b"kept");
        assert!(prepared.verify(b"kept", &sig) && pk.verify(b"kept", &sig));
        assert!(!prepared.verify(b"not kept", &sig));
    }

    #[test]
    fn serialization_round_trip() {
        let (sk, pk) = keypair(b"ser");
        let sig = sk.sign(b"serialize me");
        assert_eq!(PublicKey::from_bytes(&pk.to_bytes()), Some(pk));
        assert_eq!(Signature::from_bytes(&sig.to_bytes()), Some(sig));
    }

    /// A derived key's public key and its signature on a fixed message,
    /// recorded before the group law moved into [`crate::curve`].
    #[test]
    fn derived_key_and_signature_are_pinned() {
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let sk = SecretKey::derive(b"bls pinned vectors", b"pin");
        let pk = sk.public_key();
        let sig = sk.sign(b"one group law");
        assert_eq!(hex(&pk.to_bytes()), "b7597f0543dee3cff2ed47bf275046cf9f5c7b47ef47d5e77f4f20d0c02aba474b112ba45ccda00536334005eba8fdcf034afd8734af5234acf25638a92e89c100822e2bd826a7dd9edcf8629063672adcf52f470e1357d415a0ed6ab301c4dc");
        assert_eq!(hex(&sig.to_bytes()), "a72f8693b0c39a4850dfe91fe60150be150f7eeb3b90816a37d08b947b0dbf9ef495dad0213a8d06d13e9ebfdf5a2462");
        assert!(pk.verify(b"one group law", &sig));
    }

    #[test]
    fn derive_is_deterministic() {
        let a = SecretKey::derive(b"seed", b"ctx");
        let b = SecretKey::derive(b"seed", b"ctx");
        let c = SecretKey::derive(b"seed", b"other");
        assert_eq!(a.0, b.0);
        assert_ne!(a.0, c.0);
    }
}
