//! BLS signatures over BLS12-381 (Boneh–Lynn–Shacham, ASIACRYPT '01) —
//! the signature scheme of the paper's prototype application.
//!
//! Convention: signatures in G1 (48-byte compressed), public keys in G2
//! (96-byte compressed). Verification checks `e(σ, g₂) == e(H(m), pk)`,
//! always in [`PreparedPublicKey::verify_prehashed`]: a key kept for many
//! checks is prepared once, and a bare [`PublicKey`] prepares itself for
//! each.

use crate::fr::Fr;
use crate::g1::{hash_to_g1, G1Affine, G1Projective};
use crate::g2::{G2Affine, G2Projective};
use crate::pairing::{pairing_equality, G2Prepared};

/// Domain separation tag for message hashing.
pub const MSG_DST: &[u8] = b"distrust/bls/msg/v1";
/// Domain separation tag for proofs of possession.
pub const POP_DST: &[u8] = b"distrust/bls/pop/v1";

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

    /// Produces a proof of possession (a signature over the public key
    /// under a separate domain), defeating rogue-key attacks in aggregate
    /// settings.
    pub fn prove_possession(&self) -> Signature {
        let pk_bytes = self.public_key().to_bytes();
        let h = hash_to_g1(&pk_bytes, POP_DST);
        Signature(h.mul_scalar(&self.0).to_affine())
    }
}

/// A public key kept with its Miller-loop lines: the key and its
/// [`G2Prepared`] table, built together by [`Self::new`] and never changed
/// apart. A key that checks many signatures — a threshold deployment's
/// group key, kept in its public parameters — pays the ≈ 0.12 ms of
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

impl core::fmt::Debug for PreparedPublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("PreparedPublicKey").field(&self.key).finish()
    }
}

impl PublicKey {
    /// [`PreparedPublicKey::verify_prehashed`] under this key, prepared
    /// for the one check. [`Self::verify`], [`Self::verify_possession`]
    /// and [`crate::threshold::verify_partial`] hash (and derive the key)
    /// and call this.
    pub fn verify_prehashed(&self, h: &G1Affine, signature: &Signature) -> bool {
        PreparedPublicKey::new(*self).verify_prehashed(h, signature)
    }

    /// Verifies `σ` over `message`: `e(σ, g₂) == e(H(m), pk)`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        self.verify_prehashed(&hash_to_g1(message, MSG_DST).to_affine(), signature)
    }

    /// Verifies a proof of possession for this key.
    pub fn verify_possession(&self, pop: &Signature) -> bool {
        self.verify_prehashed(&hash_to_g1(&self.to_bytes(), POP_DST).to_affine(), pop)
    }

    /// Compressed encoding.
    pub fn to_bytes(&self) -> [u8; 96] {
        self.0.to_compressed()
    }

    /// Decoding with full validation.
    pub fn from_bytes(bytes: &[u8; 96]) -> Option<Self> {
        G2Affine::from_compressed(bytes).map(PublicKey)
    }

    /// Aggregates public keys (for verifying an aggregate signature over a
    /// common message). Callers must have checked proofs of possession.
    pub fn aggregate(keys: &[PublicKey]) -> Option<PublicKey> {
        if keys.is_empty() {
            return None;
        }
        let mut acc = G2Projective::identity();
        for k in keys {
            acc = acc.add(&G2Projective::from(k.0));
        }
        Some(PublicKey(acc.to_affine()))
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

    /// Aggregates signatures by group addition.
    pub fn aggregate(sigs: &[Signature]) -> Option<Signature> {
        if sigs.is_empty() {
            return None;
        }
        let mut acc = G1Projective::identity();
        for s in sigs {
            acc = acc.add(&G1Projective::from(s.0));
        }
        Some(Signature(acc.to_affine()))
    }
}

/// Verifies an aggregate signature where **all signers signed the same
/// message** (the multi-signature case used for cross-domain checkpoint
/// co-signing). Requires proofs of possession for all keys.
pub fn verify_same_message(keys: &[PublicKey], message: &[u8], signature: &Signature) -> bool {
    match PublicKey::aggregate(keys) {
        Some(apk) => apk.verify(message, signature),
        None => false,
    }
}

/// Verifies an aggregate signature over **distinct messages**:
/// `e(σ, g₂) == ∏ e(H(mᵢ), pkᵢ)`, with one shared final exponentiation.
/// Messages must be pairwise distinct (callers enforce; identical messages
/// would enable the standard aggregation pitfall without PoPs).
pub fn verify_aggregate_distinct(pairs: &[(PublicKey, &[u8])], signature: &Signature) -> bool {
    if pairs.is_empty() || signature.0.infinity {
        return false;
    }
    for (i, (_, m)) in pairs.iter().enumerate() {
        for (_, m2) in pairs.iter().skip(i + 1) {
            if m == m2 {
                return false;
            }
        }
    }
    if !signature.0.is_on_curve() || !signature.0.is_torsion_free() {
        return false;
    }
    // e(-σ, g₂) · ∏ e(H(mᵢ), pkᵢ) == 1
    let mut terms: Vec<(crate::g1::G1Affine, G2Affine)> = Vec::with_capacity(pairs.len() + 1);
    terms.push((signature.0.neg(), G2Affine::generator()));
    for (pk, msg) in pairs {
        terms.push((hash_to_g1(msg, MSG_DST).to_affine(), pk.0));
    }
    crate::pairing::multi_pairing(&terms).is_identity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;

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
    fn verify_possession_refuses_a_proof_outside_g1() {
        let (sk, pk) = keypair(b"subgroup pop");
        let pop = sk.prove_possession();
        assert!(pk.verify_possession(&pop));
        let shifted = Signature(pop.0.plus_order_three_point());
        assert!(!pk.verify_possession(&shifted));
    }

    #[test]
    fn serialization_round_trip() {
        let (sk, pk) = keypair(b"ser");
        let sig = sk.sign(b"serialize me");
        assert_eq!(PublicKey::from_bytes(&pk.to_bytes()), Some(pk));
        assert_eq!(Signature::from_bytes(&sig.to_bytes()), Some(sig));
    }

    #[test]
    fn proof_of_possession() {
        let (sk, pk) = keypair(b"pop");
        let pop = sk.prove_possession();
        assert!(pk.verify_possession(&pop));
        let (_, pk2) = keypair(b"pop2");
        assert!(!pk2.verify_possession(&pop));
        // A PoP is not a valid message signature (domain separation).
        assert!(!pk.verify(&pk.to_bytes(), &pop));
    }

    #[test]
    fn aggregate_same_message() {
        let mut rng = HmacDrbg::new(b"agg", b"");
        let keys: Vec<SecretKey> = (0..4).map(|_| SecretKey::generate(&mut rng)).collect();
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
        let msg = b"checkpoint at height 7";
        let sigs: Vec<Signature> = keys.iter().map(|k| k.sign(msg)).collect();
        let agg = Signature::aggregate(&sigs).unwrap();
        assert!(verify_same_message(&pks, msg, &agg));
        // Dropping one signature breaks verification.
        let partial = Signature::aggregate(&sigs[..3]).unwrap();
        assert!(!verify_same_message(&pks, msg, &partial));
    }

    #[test]
    fn empty_aggregation_is_none() {
        assert!(Signature::aggregate(&[]).is_none());
        assert!(PublicKey::aggregate(&[]).is_none());
    }

    #[test]
    fn aggregate_distinct_messages() {
        let mut rng = HmacDrbg::new(b"agg distinct", b"");
        let keys: Vec<SecretKey> = (0..3).map(|_| SecretKey::generate(&mut rng)).collect();
        let messages: [&[u8]; 3] = [b"alpha", b"beta", b"gamma"];
        let sigs: Vec<Signature> = keys.iter().zip(&messages).map(|(k, m)| k.sign(m)).collect();
        let agg = Signature::aggregate(&sigs).unwrap();
        let pairs: Vec<(PublicKey, &[u8])> = keys
            .iter()
            .zip(&messages)
            .map(|(k, m)| (k.public_key(), *m))
            .collect();
        assert!(verify_aggregate_distinct(&pairs, &agg));
        // Swapping two messages breaks it.
        let swapped: Vec<(PublicKey, &[u8])> = vec![
            (keys[0].public_key(), messages[1]),
            (keys[1].public_key(), messages[0]),
            (keys[2].public_key(), messages[2]),
        ];
        assert!(!verify_aggregate_distinct(&swapped, &agg));
        // Dropping a signer breaks it.
        assert!(!verify_aggregate_distinct(&pairs[..2], &agg));
        // Duplicate messages rejected outright.
        let dup: Vec<(PublicKey, &[u8])> = vec![
            (keys[0].public_key(), b"same".as_slice()),
            (keys[1].public_key(), b"same".as_slice()),
        ];
        assert!(!verify_aggregate_distinct(&dup, &agg));
        // Empty set rejected.
        assert!(!verify_aggregate_distinct(&[], &agg));
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
