//! Schnorr signatures over BLS12-381 G1.
//!
//! These are the workhorse signatures of the framework substrate — cheaper
//! than BLS (no pairing at verification) and used wherever the paper needs a
//! plain signature rather than a threshold one:
//!
//! * the **developer update key** sealed into each TEE (§4.1: "each
//!   subsequent update needs to be accompanied by a signature that verifies
//!   under the original public key"),
//! * **vendor attestation roots** and device certificates in the simulated
//!   secure hardware,
//! * **signed log checkpoints** from each trust domain.
//!
//! Nonces are deterministic (RFC 6979 flavour, via HMAC-DRBG keyed on the
//! secret key and message), so signing never consumes ambient randomness.
//!
//! Signing is one fixed-base multiplication and verification one
//! three-term sum, both on [`G1Projective::multi_scalar`] — variable time,
//! as the ladder it replaced was. That kernel is only correct on points of
//! G1, which is why a [`VerifyingKey`]'s point is private: a key exists
//! only as the public half of a [`SigningKey`] or out of
//! [`VerifyingKey::from_bytes`], whose decoder checks subgroup membership.
//! A signature's `R` is public because it needs no such guarantee — it
//! enters the verification equation with coefficient −1, by an addition
//! that is right for any curve point, and a point off the curve is refused
//! first.

use crate::drbg::HmacDrbg;
use crate::fr::Fr;
use crate::g1::{G1Affine, G1Projective};
use crate::sha256::Sha256;

/// Domain tag bound into every challenge hash.
const CHALLENGE_DST: &[u8] = b"distrust/schnorr/v1";

/// A Schnorr secret key, with the public key it signs under.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SigningKey {
    secret: Fr,
    /// `secret·g₁`, derived once: every challenge hashes it.
    public: VerifyingKey,
}

/// A Schnorr public key (`sk·g₁`): always a point of G1, which is what
/// the field's privacy is for (see the module header).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifyingKey(G1Affine);

/// A Schnorr signature `(R, s)` with `s = k + e·sk`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SchnorrSignature {
    /// Commitment point `R = k·g₁`.
    pub r: G1Affine,
    /// Response scalar.
    pub s: Fr,
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("SigningKey(<redacted>)")
    }
}

impl SigningKey {
    /// Generates a fresh key.
    pub fn generate<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::new(Fr::random_nonzero(rng))
    }

    /// Deterministically derives a key from seed material.
    pub fn derive(seed: &[u8], context: &[u8]) -> Self {
        let mut drbg = HmacDrbg::new(seed, context);
        Self::new(Fr::random_nonzero(&mut drbg))
    }

    /// Builds a key from a raw scalar (share-based identities).
    pub fn from_scalar(s: Fr) -> Option<Self> {
        if s.is_zero() {
            None
        } else {
            Some(Self::new(s))
        }
    }

    fn new(secret: Fr) -> Self {
        Self {
            secret,
            public: VerifyingKey(G1Projective::mul_generator(&secret).to_affine()),
        }
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Signs `message` deterministically.
    pub fn sign(&self, message: &[u8]) -> SchnorrSignature {
        // Deterministic nonce: DRBG keyed on (sk, message).
        let sk_bytes = self.secret.to_bytes_be();
        let mut drbg = HmacDrbg::new(&sk_bytes, b"distrust/schnorr/nonce");
        drbg.reseed(message);
        let k = Fr::random_nonzero(&mut drbg);
        let r = G1Projective::mul_generator(&k).to_affine();
        let e = challenge(&r, &self.public, message);
        let s = k.add(&e.mul(&self.secret));
        SchnorrSignature { r, s }
    }
}

impl VerifyingKey {
    /// Verifies `sig` over `message`: `s·g₁ − e·pk − R == O`, one
    /// multi-scalar sum. `R` must be on the curve and neither it nor the
    /// key the identity; the key is in G1 by construction.
    pub fn verify(&self, message: &[u8], sig: &SchnorrSignature) -> bool {
        if self.0.infinity || sig.r.infinity || !sig.r.is_on_curve() {
            return false;
        }
        let e = challenge(&sig.r, self, message);
        G1Projective::multi_scalar(Some(&sig.s), &[(self.0.into(), e.neg())])
            .add_affine(&sig.r.neg())
            .is_identity()
    }

    /// The equation as it was checked before the kernel, each side on its
    /// own ladder: the reference [`Self::verify`] is tested against.
    #[cfg(test)]
    fn verify_on_ladders(&self, message: &[u8], sig: &SchnorrSignature) -> bool {
        if self.0.infinity || sig.r.infinity {
            return false;
        }
        if !sig.r.is_on_curve() || !self.0.is_on_curve() {
            return false;
        }
        let e = challenge(&sig.r, self, message);
        let lhs = G1Projective::generator().mul_limbs(&sig.s.to_canonical_limbs());
        let rhs = G1Projective::from(sig.r)
            .add(&G1Projective::from(self.0).mul_limbs(&e.to_canonical_limbs()));
        lhs == rhs
    }

    /// Compressed encoding (48 bytes).
    pub fn to_bytes(&self) -> [u8; 48] {
        self.0.to_compressed()
    }

    /// Decoding with validation: canonical bytes of a point on the curve
    /// and in G1.
    pub fn from_bytes(bytes: &[u8; 48]) -> Option<Self> {
        G1Affine::from_compressed(bytes).map(VerifyingKey)
    }
}

impl SchnorrSignature {
    /// Wire encoding: compressed `R` (48 bytes) || `s` (32 bytes).
    pub fn to_bytes(&self) -> [u8; 80] {
        let mut out = [0u8; 80];
        out[..48].copy_from_slice(&self.r.to_compressed());
        out[48..].copy_from_slice(&self.s.to_bytes_be());
        out
    }

    /// Decoding with validation.
    pub fn from_bytes(bytes: &[u8; 80]) -> Option<Self> {
        let mut rb = [0u8; 48];
        rb.copy_from_slice(&bytes[..48]);
        let mut sb = [0u8; 32];
        sb.copy_from_slice(&bytes[48..]);
        Some(Self {
            r: G1Affine::from_compressed(&rb)?,
            s: Fr::from_bytes_be(&sb)?,
        })
    }
}

/// Fiat–Shamir challenge `e = H(dst || R || pk || m)` mapped into Fr.
fn challenge(r: &G1Affine, pk: &VerifyingKey, message: &[u8]) -> Fr {
    let mut h1 = Sha256::new();
    h1.update(CHALLENGE_DST);
    h1.update(&[0x01]);
    h1.update(&r.to_compressed());
    h1.update(&pk.to_bytes());
    h1.update(message);
    let d1 = h1.finalize();
    let mut h2 = Sha256::new();
    h2.update(CHALLENGE_DST);
    h2.update(&[0x02]);
    h2.update(&r.to_compressed());
    h2.update(&pk.to_bytes());
    h2.update(message);
    let d2 = h2.finalize();
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&d1);
    wide[32..].copy_from_slice(&d2);
    Fr::from_hash_wide(&wide)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn keypair(tag: &[u8]) -> (SigningKey, VerifyingKey) {
        let sk = SigningKey::derive(b"schnorr test seed", tag);
        let vk = sk.verifying_key();
        (sk, vk)
    }

    #[test]
    fn sign_verify_round_trip() {
        let (sk, vk) = keypair(b"a");
        let sig = sk.sign(b"update manifest v2");
        assert!(vk.verify(b"update manifest v2", &sig));
    }

    #[test]
    fn deterministic_signing() {
        let (sk, _) = keypair(b"det");
        assert_eq!(sk.sign(b"same message"), sk.sign(b"same message"));
        assert_ne!(sk.sign(b"message a"), sk.sign(b"message b"));
    }

    #[test]
    fn wrong_message_or_key_rejected() {
        let (sk, vk) = keypair(b"a");
        let (_, vk2) = keypair(b"b");
        let sig = sk.sign(b"genuine");
        assert!(!vk.verify(b"forged", &sig));
        assert!(!vk2.verify(b"genuine", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (sk, vk) = keypair(b"t");
        let mut sig = sk.sign(b"msg");
        sig.s = sig.s.add(&Fr::ONE);
        assert!(!vk.verify(b"msg", &sig));
    }

    #[test]
    fn signature_bytes_round_trip() {
        let (sk, vk) = keypair(b"ser");
        let sig = sk.sign(b"wire format");
        let bytes = sig.to_bytes();
        let back = SchnorrSignature::from_bytes(&bytes).unwrap();
        assert_eq!(back, sig);
        assert!(vk.verify(b"wire format", &back));
    }

    #[test]
    fn key_bytes_round_trip() {
        let (_, vk) = keypair(b"kb");
        assert_eq!(VerifyingKey::from_bytes(&vk.to_bytes()), Some(vk));
    }

    #[test]
    fn malformed_signature_bytes_rejected() {
        assert!(SchnorrSignature::from_bytes(&[0u8; 80]).is_none());
        let (sk, _) = keypair(b"mal");
        let mut bytes = sk.sign(b"x").to_bytes();
        bytes[79] = 0xff; // push s out of canonical range likelihood
        bytes[48] = 0xff;
        assert!(SchnorrSignature::from_bytes(&bytes).is_none());
    }

    #[test]
    fn signature_does_not_transfer_between_messages() {
        // Replaying (R, s) for a different message fails because the
        // challenge binds the message.
        let (sk, vk) = keypair(b"bind");
        let sig = sk.sign(b"pay alice 1 token");
        assert!(!vk.verify(b"pay mallory 1000 tokens", &sig));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Signatures are bit-identical across the change of multiplication
    /// kernel: these bytes (key, then `R ‖ s`) were recorded from the
    /// bit-by-bit ladder of the commit before it.
    #[test]
    fn signatures_are_pinned_to_the_bytes_the_ladder_produced() {
        let pins: [(&[u8], &[u8], &str, &str); 4] = [
            (
                b"pin-a",
                b"",
                "a0c1660526e2b87f83b04e7d9ea1217779d7fe4a4a8e128291b77819d00ab9417c5e8e8a92ad7e9d0660e31900e374ed",
                "b39f959441656d07a2e7dd483557ce35e09c408f367c5438eda11d0bdfb8de9467bcf53515209135b6f1cfc5ab1ca27b45040d2413fad5a0436d3f3de6703f1ea51b2f0ca075272e41be79b14f8eb4d0",
            ),
            (
                b"pin-b",
                b"update manifest v2",
                "a3274ccc1b1932402738d288be069309ba08bf989cf1b9ddd1d833d4ceca18f7d6213004e4d82d18de9f53c6bc0e1aee",
                "b28f19f56ad67856050efd4337c03abb2546386e44d82585fd18b0480c6fcbc175e085092365d6487a2128c30ba75b9e4448997c74d4bb0415ff468629ef61cecba2ec45b9bd8f6fb1ba5f0da37dbae3",
            ),
            (
                b"pin-c",
                b"checkpoint: size 64",
                "aea6e55b0ac790ed0781e648b1d1364786402e0af1e12ef29618e634081d318540ab4f33ba69ddc4d78e271559bf654c",
                "8d5fcea7918f4ade8c2e3fce93bc205009d19cf0a2b97bf26f9962df3eeeb4598818be3c996d201bd227e110e67640f31bc294079dc2de0d6d65eeee7135994f1d6d837a91ef59aadafeb03b45752536",
            ),
            (
                b"pin-d",
                &[0xff; 100],
                "925058af8ff8eebbb3bf8e8f7765c8ed39d281f17183a9876f056eee8e997338dd864fd4407a3c7f964bd27a13ee9a84",
                "a4846c85f5d009354fe1181b3f68aef8f71eb893f426a18f83ffe08601d6a27b40d952f846815c455f00aadb886ea10a676ed73a4146ab1d9f93c59da65250fe66ad05494cccd4b4f7a20814f73e40d9",
            ),
        ];
        for (tag, message, key, signature) in pins {
            let sk = SigningKey::derive(b"schnorr pinned vectors", tag);
            assert_eq!(hex(&sk.verifying_key().to_bytes()), key);
            assert_eq!(hex(&sk.sign(message).to_bytes()), signature);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The one-equation verification against each side on its own
        /// ladder: the same verdict on an honest signature and on `R`,
        /// `s`, the message and the key each perturbed — accepted only
        /// when nothing was.
        #[test]
        fn verification_agrees_with_the_two_sided_ladder(
            seed in any::<[u8; 32]>(),
            message in proptest::collection::vec(any::<u8>(), 0..64),
            perturb in 0u8..8,
            delta in any::<[u8; 64]>(),
        ) {
            let sk = SigningKey::derive(&seed, b"verify oracle");
            let mut vk = sk.verifying_key();
            let mut sig = sk.sign(&message);
            let mut message = message;
            let delta = Fr::from_bytes_wide(&delta);
            match perturb {
                1 => sig.r = G1Projective::from(sig.r).add_affine(&G1Affine::generator()).to_affine(),
                2 => sig.r = sig.r.neg(),
                3 => sig.r = sig.r.plus_order_three_point(),
                4 => sig.s = sig.s.add(&delta),
                5 => message.push(delta.to_bytes_be()[31]),
                6 => vk = SigningKey::derive(&seed, b"another key").verifying_key(),
                7 => sig.r.y = sig.r.y.add(&crate::fp::Fp::ONE),
                _ => {}
            }
            let verdict = vk.verify(&message, &sig);
            prop_assert_eq!(verdict, vk.verify_on_ladders(&message, &sig));
            prop_assert_eq!(verdict, perturb == 0 || (perturb == 4 && delta.is_zero()));
        }
    }

    /// The kernel under `verify` is only right on G1, so a key outside it
    /// must not exist: the field is private, and the one constructor that
    /// takes outside input refuses an on-curve point of the wrong subgroup
    /// — and the identity's key verifies nothing.
    #[test]
    fn a_key_outside_g1_cannot_be_constructed() {
        let (sk, vk) = keypair(b"subgroup");
        let outside = vk.0.plus_order_three_point();
        assert!(outside.is_on_curve() && !outside.is_torsion_free());
        assert_eq!(VerifyingKey::from_bytes(&outside.to_compressed()), None);
        let identity = VerifyingKey::from_bytes(&G1Affine::identity().to_compressed())
            .expect("the identity is a point of G1");
        assert!(!identity.verify(b"msg", &sk.sign(b"msg")));
    }

    #[test]
    fn from_scalar_rejects_zero() {
        assert!(SigningKey::from_scalar(Fr::ZERO).is_none());
        assert!(SigningKey::from_scalar(Fr::ONE).is_some());
    }
}
