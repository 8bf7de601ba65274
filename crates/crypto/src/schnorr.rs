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
//! **A signature is its 80 wire bytes** — the compressed commitment
//! `R = k·g₁` (48) then the response `s = k + e·sk` (32) — until the moment
//! it is verified, and verification never parses `R`: it reads `s`, hashes
//! the 48 bytes as they came into the challenge `e`, recomputes
//! `R′ = s·g₁ − e·pk` and accepts iff `R′ ≠ O` and the canonical
//! compression of `R′` is those 48 bytes. That comparison *is* the decode
//! conditions (compressed flag, `x < p`, on the curve, the sign bit, in
//! the subgroup): `R′` is a sum of multiples of points of G1, so it cannot
//! leave G1, and bytes that are not the one canonical encoding of a point
//! of G1 equal no such point's compression. No square root, no subgroup
//! test, and for a batch under one key one field inversion between all the
//! `R′` ([`VerifyingKey::verify_all`]).
//!
//! Signing is one fixed-base multiplication and verification one two-lane
//! sum, both on [`G1Projective::multi_scalar`] — variable time, as the
//! ladder it replaced was. Signing takes `k·g₁` on the generator's table of
//! spacing 8 (17 doublings); the secret nonce's NAF digits index that table
//! exactly as they indexed the unspaced one, so what the timing of a
//! signature depends on is unchanged in kind. That kernel is only correct
//! on points of G1, which is why a [`VerifyingKey`]'s point is private: a
//! key exists only as the public half of a [`SigningKey`] or out of
//! [`VerifyingKey::from_bytes`], whose decoder checks subgroup membership,
//! and a table of a key only out of a key.
//!
//! **Which keys keep a table.** A key verified under once or twice —
//! evidence, device certificates, quotes — gets a narrow table per call
//! ([`VerifyingKey::verify_all`]) and drops it. A key verified under for
//! as long as its verifier lives — each domain's pinned checkpoint key in
//! an auditor, whether a client's, a witness relay's or a gossip mesh's —
//! is a [`KeptKey`]: once `WIDE_TABLE_FROM` signatures have been verified
//! under it, it builds a table of spacing 4 (≈ 53 KB, ≈ 0.35 ms) and keeps
//! it, and every later verification takes 33 doublings where it took 129
//! (≈ 69 µs per signature in a batch of 36 against ≈ 130 alone). Either
//! way the answer is the same: `R′` recomputed, one inversion per batch,
//! compared in compressed form.

use crate::drbg::HmacDrbg;
use crate::fr::Fr;
use crate::g1::{G1Affine, G1Projective, G1Table};
use crate::sha256::sha256_many;

/// Domain tag bound into every challenge hash.
const CHALLENGE_DST: &[u8] = b"distrust/schnorr/v1";

/// Signatures verified under a [`KeptKey`] from which it builds its table
/// of spacing 4. Measured per signature, whole batches, the table built
/// inside (medians of 20, two quiet runs alike; `crypto_primitives`): 141
/// µs in a batch of five, 114 in one of eight, 100 in one of twelve,
/// against ≈ 125–130 on a narrow table, and ≈ 66 µs a signature from then
/// on, alone or batched — the ≈ 350 µs build (`g1_table_build_spaced`) is
/// repaid by the second signature verified after it.
const WIDE_TABLE_FROM: usize = 5;

/// Spacing of the table a [`KeptKey`] builds of its key: four bases
/// (≈ 53 KB, ≈ 0.35 ms to build), and each later verification under the
/// key takes 33 doublings where a narrow table takes 129.
const KEPT_SPACING: u32 = 4;

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

/// A verifying key its verifier keeps for good — an auditor's pinned
/// checkpoint key, one per domain — which builds a spaced table of the key
/// (spacing 4) once `WIDE_TABLE_FROM` (five) signatures have been
/// verified under it, in one batch or across several, and verifies on it
/// from then on. Until then it verifies as the [`VerifyingKey`] does.
pub struct KeptKey {
    key: VerifyingKey,
    /// Signatures verified under `key` while `table` was not built.
    verified: usize,
    table: Option<G1Table>,
}

/// A Schnorr signature in wire form: compressed `R` (48 bytes) ‖ `s` (32
/// bytes, big-endian). Any 80 bytes are a `SchnorrSignature`; whether they
/// are a *valid* one is [`VerifyingKey::verify`]'s answer alone, and two
/// signatures are the same signature exactly when they are equal byte for
/// byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SchnorrSignature([u8; 80]);

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
        let r = G1Projective::mul_generator(&k).to_affine().to_compressed();
        let e = challenge(&r, &self.public.to_bytes(), message);
        let s = k.add(&e.mul(&self.secret));
        let mut bytes = [0u8; 80];
        bytes[..48].copy_from_slice(&r);
        bytes[48..].copy_from_slice(&s.to_bytes_be());
        SchnorrSignature(bytes)
    }
}

impl VerifyingKey {
    /// Verifies `sig` over `message`: [`Self::verify_all`] on one item.
    pub fn verify(&self, message: &[u8], sig: &SchnorrSignature) -> bool {
        self.verify_all(&[(message, sig)]).is_ok()
    }

    /// Verifies every `(message, signature)` of `items` under this key;
    /// `Err(i)` names the first that fails. Per item: `s` must be
    /// canonical, `e = H(R-bytes ‖ key ‖ message)`, `R′ = s·g₁ − e·pk` on
    /// the kernel; then one inversion takes every `R′` to affine form, and
    /// item `i` passes iff `R′ᵢ ≠ O` compresses to the 48 bytes received
    /// (the module header says why that is every check a decoder would
    /// make). The identity's key verifies nothing. The key gets a narrow
    /// table for the call; a key verified under many times is a
    /// [`KeptKey`].
    pub fn verify_all(&self, items: &[(&[u8], &SchnorrSignature)]) -> Result<(), usize> {
        // Nothing to verify is the steady state of an audit (every head
        // known byte for byte): no table, no inversion.
        if items.is_empty() {
            return Ok(());
        }
        self.verify_on(&G1Table::narrow(&self.0.into()), items)
    }

    /// [`Self::verify_all`] with `key_table`, a table of this key.
    fn verify_on(
        &self,
        key_table: &G1Table,
        items: &[(&[u8], &SchnorrSignature)],
    ) -> Result<(), usize> {
        if items.is_empty() {
            return Ok(());
        }
        if self.0.infinity {
            return Err(0);
        }
        let key_bytes = self.to_bytes();
        let generator = G1Table::generator_beside(key_table);
        // The commitments recomputed, up to the first `s` out of range:
        // nothing after a failure can change the answer.
        let mut out_of_range = None;
        let mut recomputed = Vec::with_capacity(items.len());
        for (i, (message, sig)) in items.iter().enumerate() {
            let (r, s) = sig.0.split_at(48);
            let Some(s) = Fr::from_bytes_be(s.try_into().expect("32 bytes")) else {
                out_of_range = Some(i);
                break;
            };
            let minus_e = challenge(r, &key_bytes, message).neg();
            let lanes = [(generator, s), (key_table, minus_e)];
            recomputed.push(G1Projective::multi_scalar(&lanes));
        }
        let recomputed = G1Projective::batch_to_affine(&recomputed);
        let mismatch = recomputed
            .iter()
            .zip(items)
            .position(|(r, (_, sig))| r.infinity || r.to_compressed() != sig.0[..48]);
        mismatch.or(out_of_range).map_or(Ok(()), Err)
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

impl KeptKey {
    /// `key`, to be kept; no table yet.
    pub fn new(key: VerifyingKey) -> Self {
        Self {
            key,
            verified: 0,
            table: None,
        }
    }

    /// Whether the key's spaced table has been built.
    pub fn has_table(&self) -> bool {
        self.table.is_some()
    }

    /// [`VerifyingKey::verify_all`], with the same answer — on the key's
    /// spaced table when it is built, or when these items bring the count
    /// of signatures verified under the key to `WIDE_TABLE_FROM`, which
    /// builds it first.
    pub fn verify_all(&mut self, items: &[(&[u8], &SchnorrSignature)]) -> Result<(), usize> {
        if self.table.is_none() {
            self.verified += items.len();
            if self.verified < WIDE_TABLE_FROM {
                return self.key.verify_all(items);
            }
        }
        let key = &self.key;
        let table = self
            .table
            .get_or_insert_with(|| G1Table::new(&key.0.into(), KEPT_SPACING));
        key.verify_on(table, items)
    }
}

impl SchnorrSignature {
    /// Wire encoding: compressed `R` (48 bytes) || `s` (32 bytes).
    pub fn to_bytes(&self) -> [u8; 80] {
        self.0
    }

    /// The signature those wire bytes are. A copy: nothing is checked
    /// until [`VerifyingKey::verify`].
    pub fn from_bytes(bytes: &[u8; 80]) -> Self {
        Self(*bytes)
    }
}

/// Fiat–Shamir challenge `e = H(dst || R || pk || m)` mapped into Fr, over
/// `R` and the key in their compressed wire forms.
fn challenge(r: &[u8], pk: &[u8; 48], message: &[u8]) -> Fr {
    let mut wide = [0u8; 64];
    for (half, tag) in wide.chunks_exact_mut(32).zip([0x01u8, 0x02]) {
        half.copy_from_slice(&sha256_many(&[CHALLENGE_DST, &[tag], r, pk, message]));
    }
    Fr::from_hash_wide(&wide)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::Fp;
    use crate::limbs;
    use proptest::prelude::*;

    fn keypair(tag: &[u8]) -> (SigningKey, VerifyingKey) {
        let sk = SigningKey::derive(b"schnorr test seed", tag);
        let vk = sk.verifying_key();
        (sk, vk)
    }

    /// `sig` with `edit` applied to its wire bytes.
    fn edited(sig: &SchnorrSignature, edit: impl FnOnce(&mut [u8; 80])) -> SchnorrSignature {
        let mut bytes = sig.to_bytes();
        edit(&mut bytes);
        SchnorrSignature::from_bytes(&bytes)
    }

    /// Verification as it was before signatures became bytes, kept as the
    /// reference [`VerifyingKey::verify`] is tested against: a strict
    /// decode of both halves (`R` canonical, on the curve, in G1; `s`
    /// reduced), then the equation with each side on its own bit-by-bit
    /// ladder.
    fn verify_by_decoding(vk: &VerifyingKey, message: &[u8], sig: &SchnorrSignature) -> bool {
        let bytes = sig.to_bytes();
        let (Some(r), Some(s)) = (
            G1Affine::from_compressed(bytes[..48].try_into().unwrap()),
            Fr::from_bytes_be(bytes[48..].try_into().unwrap()),
        ) else {
            return false;
        };
        if vk.0.infinity || r.infinity || !r.is_on_curve() || !vk.0.is_on_curve() {
            return false;
        }
        let e = challenge(&r.to_compressed(), &vk.to_bytes(), message);
        let lhs = G1Projective::generator().mul_limbs(&s.to_canonical_limbs());
        let rhs =
            G1Projective::from(r).add(&G1Projective::from(vk.0).mul_limbs(&e.to_canonical_limbs()));
        lhs == rhs
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
        let sig = sk.sign(b"msg");
        let s = Fr::from_bytes_be(sig.to_bytes()[48..].try_into().unwrap()).unwrap();
        let bumped = edited(&sig, |b| {
            b[48..].copy_from_slice(&s.add(&Fr::ONE).to_bytes_be())
        });
        assert!(!vk.verify(b"msg", &bumped));
    }

    #[test]
    fn signature_bytes_round_trip() {
        let (sk, vk) = keypair(b"ser");
        let sig = sk.sign(b"wire format");
        let back = SchnorrSignature::from_bytes(&sig.to_bytes());
        assert_eq!(back, sig);
        assert!(vk.verify(b"wire format", &back));
    }

    #[test]
    fn key_bytes_round_trip() {
        let (_, vk) = keypair(b"kb");
        assert_eq!(VerifyingKey::from_bytes(&vk.to_bytes()), Some(vk));
    }

    /// What `from_bytes` refused while it parsed is refused by `verify`.
    #[test]
    fn malformed_signature_bytes_rejected() {
        let (sk, vk) = keypair(b"mal");
        assert!(!vk.verify(b"x", &SchnorrSignature::from_bytes(&[0u8; 80])));
        let out_of_range = edited(&sk.sign(b"x"), |b| b[48..].fill(0xff));
        assert!(!vk.verify(b"x", &out_of_range));
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
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Verification from the bytes against decode-then-ladders: the
        /// same verdict on an honest signature and on every way of
        /// spoiling one — a flipped bit in each position class (flags,
        /// `x`, sign bit, `s`), `x ≥ p`, the infinity encoding with the
        /// `s` that makes `R′ = O`, an `R` on the curve outside G1, another
        /// valid point, `s + r`, another message, another key — accepted
        /// only when nothing was spoiled.
        #[test]
        fn verification_agrees_with_the_two_sided_ladder(
            seed in any::<[u8; 32]>(),
            message in proptest::collection::vec(any::<u8>(), 0..64),
            perturb in 0u8..14,
            bit in any::<u16>(),
        ) {
            let sk = SigningKey::derive(&seed, b"verify oracle");
            let mut vk = sk.verifying_key();
            let honest = sk.sign(&message);
            let r = G1Affine::from_compressed(honest.to_bytes()[..48].try_into().unwrap()).unwrap();
            let put_r = |b: &mut [u8; 80], r: G1Affine| b[..48].copy_from_slice(&r.to_compressed());
            let mut message = message;
            let bit = usize::from(bit);
            let sig = edited(&honest, |b| match perturb {
                // One bit of each class: the three flags, x, s.
                1 => b[0] ^= 0x80,
                2 => b[0] ^= 0x40,
                3 => b[0] ^= 0x20,
                4 => b[(5 + bit % 379) / 8] ^= 0x80 >> ((5 + bit % 379) % 8),
                5 => b[48 + bit % 256 / 8] ^= 1 << (bit % 8),
                // x = p + (a little), still 381 bits: not a field element.
                6 => {
                    let (x, _) = limbs::add(&Fp::MODULUS, &[bit as u64 % 4, 0, 0, 0, 0, 0]);
                    limbs::limbs_to_be_bytes(&x, &mut b[..48]);
                    b[0] |= 0x80 | (bit as u8 & 0x20);
                }
                // R = O under the response that recomputes O: s = e·sk.
                7 => {
                    put_r(b, G1Affine::identity());
                    let e = challenge(&b[..48], &vk.to_bytes(), &message);
                    b[48..].copy_from_slice(&e.mul(&sk.secret).to_bytes_be());
                }
                8 => put_r(b, r.plus_order_three_point()),
                9 => put_r(b, G1Projective::from(r).add_affine(&G1Affine::generator()).to_affine()),
                // The same residue, not reduced: s + r < 2²⁵⁶ for every s.
                10 => {
                    let s = limbs::limbs_from_be_bytes(&b[48..]);
                    limbs::limbs_to_be_bytes(&limbs::add(&s, &Fr::MODULUS).0, &mut b[48..]);
                }
                11 => b[48..].fill(0xff),
                12 => message.push(bit as u8),
                13 => vk = SigningKey::derive(&seed, b"another key").verifying_key(),
                _ => {}
            });
            let verdict = vk.verify(&message, &sig);
            prop_assert_eq!(verdict, verify_by_decoding(&vk, &message, &sig));
            prop_assert_eq!(verdict, perturb == 0);
            // And under the key kept: before its table is built, and after.
            let item = [(message.as_slice(), &sig)];
            let mut fresh = KeptKey::new(vk);
            prop_assert_eq!(fresh.verify_all(&item).is_ok(), verdict);
            prop_assert!(!fresh.has_table());
            prop_assert_eq!(tabled(vk).verify_all(&item).is_ok(), verdict);
        }

        /// A batch answers with its *first* bad index — none, one or
        /// several spoiled entries, each in one of the three ways an entry
        /// fails (`s` out of range, wrong `R`, wrong message), at lengths
        /// either side of the count at which a kept key builds its table —
        /// and agrees with verifying item by item.
        #[test]
        fn a_batch_names_its_first_bad_entry(
            seed in any::<[u8; 32]>(),
            len in 0usize..=2 * WIDE_TABLE_FROM,
            spoil in any::<u16>(),
            how in any::<[u8; 2 * WIDE_TABLE_FROM]>(),
            clean in any::<bool>(),
        ) {
            let sk = SigningKey::derive(&seed, b"batch oracle");
            let vk = sk.verifying_key();
            let spoil = if clean { 0 } else { spoil };
            let mut messages: Vec<Vec<u8>> = (0..len).map(|i| vec![i as u8; i]).collect();
            let sigs: Vec<SchnorrSignature> = (0..len)
                .map(|i| {
                    let sig = sk.sign(&messages[i]);
                    match (spoil >> i & 1, how[i] % 3) {
                        (0, _) => sig,
                        (_, 0) => edited(&sig, |b| b[48..].fill(0xff)),
                        (_, 1) => edited(&sig, |b| b[usize::from(how[i]) % 48] ^= 1),
                        _ => {
                            messages[i].push(how[i]);
                            sig
                        }
                    }
                })
                .collect();
            let items: Vec<(&[u8], &SchnorrSignature)> =
                messages.iter().map(Vec::as_slice).zip(&sigs).collect();
            let first_bad = (0..len).find(|i| spoil >> i & 1 == 1);
            let expected = first_bad.map_or(Ok(()), Err);
            prop_assert_eq!(vk.verify_all(&items), expected);
            prop_assert_eq!(
                items.iter().position(|(m, sig)| !vk.verify(m, sig)),
                first_bad
            );
            // Kept: the batch that builds the table (or does not reach the
            // threshold), then the same batch on a table already built.
            let mut kept = KeptKey::new(vk);
            prop_assert_eq!(kept.verify_all(&items), expected);
            prop_assert_eq!(kept.has_table(), len >= WIDE_TABLE_FROM);
            prop_assert_eq!(tabled(vk).verify_all(&items), expected);
        }
    }

    /// `vk` kept, its table built by verifying `WIDE_TABLE_FROM`
    /// signatures under it (whatever their verdict).
    fn tabled(vk: VerifyingKey) -> KeptKey {
        let mut kept = KeptKey::new(vk);
        let junk = SchnorrSignature::from_bytes(&[0; 80]);
        for _ in 0..WIDE_TABLE_FROM {
            assert!(!kept.has_table());
            assert_eq!(kept.verify_all(&[(b"junk", &junk)]), Err(0));
        }
        assert!(kept.has_table());
        kept
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
        let sig = sk.sign(b"msg");
        assert!(!identity.verify(b"msg", &sig));
        // Under it `R′ = s·g₁` whatever the challenge, so anyone could
        // "sign": R = k·g₁, s = k.
        let forged = edited(&sig, |b| {
            b[..48].copy_from_slice(&G1Affine::generator().to_compressed());
            b[48..].copy_from_slice(&Fr::ONE.to_bytes_be());
        });
        assert!(!identity.verify(b"msg", &forged));
        assert_eq!(identity.verify_all(&[(b"msg", &forged)]), Err(0));
        assert_eq!(identity.verify_all(&[]), Ok(()));
    }

    #[test]
    fn from_scalar_rejects_zero() {
        assert!(SigningKey::from_scalar(Fr::ZERO).is_none());
        assert!(SigningKey::from_scalar(Fr::ONE).is_some());
    }
}
