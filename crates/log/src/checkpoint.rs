//! Signed log checkpoints ("signed tree heads" in CT terms).
//!
//! Each trust domain periodically signs `(log_id, size, head, logical_time)`
//! with its device key. Two correctly signed checkpoints for the same
//! `(log_id, size)` with different heads are a **publicly verifiable proof
//! of equivocation** — exactly the transferable evidence of misbehavior the
//! paper promises users (§1: "the user will obtain a publicly verifiable
//! proof of misbehavior").

use distrust_crypto::schnorr::{KeptKey, SchnorrSignature, SigningKey, VerifyingKey};
use distrust_crypto::sha256::Digest;
use distrust_wire::codec::Encode;
use distrust_wire::wire_struct;

/// The body of a checkpoint (the bytes that get signed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointBody {
    /// Identifies which log this checkpoint describes (e.g. a hash of the
    /// deployment id and domain index).
    pub log_id: [u8; 32],
    /// Number of entries covered.
    pub size: u64,
    /// Log head: hash-chain head or Merkle root, per deployment config.
    pub head: [u8; 32],
    /// Logical timestamp (monotonic counter, not wall clock — DESIGN.md §5).
    pub logical_time: u64,
}

wire_struct!(CheckpointBody {
    log_id: [u8; 32],
    size: u64,
    head: [u8; 32],
    logical_time: u64,
});

/// Domain tag so checkpoint signatures can never be confused with other
/// Schnorr signatures from the same key.
const CHECKPOINT_DST: &[u8] = b"distrust/checkpoint/v1";

impl CheckpointBody {
    /// The message that is actually signed.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut out = CHECKPOINT_DST.to_vec();
        self.encode(&mut out);
        out
    }
}

/// A checkpoint with its signature.
///
/// The signature is held as its 80 wire bytes, which is all a Schnorr
/// signature is until [`SignedCheckpoint::verify`] recomputes its `R`
/// from them: decoding a checkpoint costs a copy, two checkpoints are the
/// same signed statement exactly when they are equal byte for byte, and
/// signature bytes that are no point of G1 are a failed verification of
/// that one checkpoint rather than a decode error that voids the frame
/// around it. Nothing may act on a checkpoint that has not passed `verify`
/// (or is byte-identical to one that has).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedCheckpoint {
    /// The signed body.
    pub body: CheckpointBody,
    /// Schnorr signature by the domain's log key, in wire form
    /// (compressed `R` ‖ `s`).
    pub signature: [u8; 80],
}

wire_struct!(SignedCheckpoint {
    body: CheckpointBody,
    signature: [u8; 80],
});

impl SignedCheckpoint {
    /// Signs a checkpoint body.
    pub fn sign(body: CheckpointBody, key: &SigningKey) -> Self {
        let signature = key.sign(&body.signing_bytes()).to_bytes();
        Self { body, signature }
    }

    /// Verifies the signature under the domain's log key. `false` when the
    /// signature bytes are not a valid encoding (point off the curve or
    /// outside the prime-order subgroup, non-canonical scalar) or the
    /// Schnorr equation does not hold.
    pub fn verify(&self, key: &VerifyingKey) -> bool {
        Self::verify_all(&[self], key).is_ok()
    }

    /// Verifies every checkpoint of `checkpoints` under the one key in one
    /// [`VerifyingKey::verify_all`] — a shared key table and one inversion
    /// between them; `Err(i)` names the first that fails.
    pub fn verify_all(checkpoints: &[&Self], key: &VerifyingKey) -> Result<(), usize> {
        Self::signed(checkpoints, |items| key.verify_all(items))
    }

    /// [`Self::verify_all`] under a key the caller keeps — an auditor's
    /// pinned key for the domain — and so on its table once it has one.
    pub fn verify_all_kept(checkpoints: &[&Self], key: &mut KeptKey) -> Result<(), usize> {
        Self::signed(checkpoints, |items| key.verify_all(items))
    }

    /// `verify` applied to the `(message, signature)` pairs of `checkpoints`.
    fn signed<T>(
        checkpoints: &[&Self],
        verify: impl FnOnce(&[(&[u8], &SchnorrSignature)]) -> T,
    ) -> T {
        let signed: Vec<(Vec<u8>, SchnorrSignature)> = checkpoints
            .iter()
            .map(|cp| {
                let signature = SchnorrSignature::from_bytes(&cp.signature);
                (cp.body.signing_bytes(), signature)
            })
            .collect();
        let items: Vec<(&[u8], &SchnorrSignature)> =
            signed.iter().map(|(m, sig)| (m.as_slice(), sig)).collect();
        verify(&items)
    }
}

/// A publicly verifiable proof that one log key signed two conflicting
/// views of the same log prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivocationProof {
    /// First signed checkpoint.
    pub a: SignedCheckpoint,
    /// Second signed checkpoint, same `(log_id, size)`, different head.
    pub b: SignedCheckpoint,
}

wire_struct!(EquivocationProof {
    a: SignedCheckpoint,
    b: SignedCheckpoint,
});

impl EquivocationProof {
    /// Checks the proof: both checkpoints verify under `key`, describe the
    /// same `(log_id, size)`, and disagree about the head. Anyone holding
    /// the domain's public key can run this — the proof is transferable.
    pub fn verify(&self, key: &VerifyingKey) -> bool {
        self.a.body.log_id == self.b.body.log_id
            && self.a.body.size == self.b.body.size
            && self.a.body.head != self.b.body.head
            && SignedCheckpoint::verify_all(&[&self.a, &self.b], key).is_ok()
    }
}

/// Derives a log id from deployment identifiers.
pub fn log_id(deployment: &[u8], domain_index: u32) -> Digest {
    distrust_crypto::sha256_many(&[
        b"distrust/logid/v1",
        deployment,
        &domain_index.to_le_bytes(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_wire::codec::Decode;

    fn key(tag: &[u8]) -> SigningKey {
        SigningKey::derive(b"checkpoint tests", tag)
    }

    fn body(size: u64, head_byte: u8) -> CheckpointBody {
        CheckpointBody {
            log_id: log_id(b"deploy-1", 0),
            size,
            head: [head_byte; 32],
            logical_time: size,
        }
    }

    #[test]
    fn sign_verify_round_trip() {
        let sk = key(b"a");
        let cp = SignedCheckpoint::sign(body(5, 1), &sk);
        assert!(cp.verify(&sk.verifying_key()));
        assert!(!cp.verify(&key(b"b").verifying_key()));
    }

    #[test]
    fn tampered_body_rejected() {
        let sk = key(b"a");
        let mut cp = SignedCheckpoint::sign(body(5, 1), &sk);
        cp.body.size = 6;
        assert!(!cp.verify(&sk.verifying_key()));
    }

    #[test]
    fn wire_round_trip() {
        let sk = key(b"wire");
        let cp = SignedCheckpoint::sign(body(9, 3), &sk);
        let bytes = cp.to_wire();
        let back = SignedCheckpoint::from_wire(&bytes).unwrap();
        assert_eq!(back, cp);
        assert!(back.verify(&sk.verifying_key()));
    }

    #[test]
    fn equivocation_proof_detects_fork() {
        let sk = key(b"evil");
        let vk = sk.verifying_key();
        let cp_a = SignedCheckpoint::sign(body(7, 0xaa), &sk);
        let cp_b = SignedCheckpoint::sign(body(7, 0xbb), &sk);
        let proof = EquivocationProof { a: cp_a, b: cp_b };
        assert!(proof.verify(&vk));
        // Transferable: decode from wire and re-verify.
        let transported = EquivocationProof::from_wire(&proof.to_wire()).unwrap();
        assert!(transported.verify(&vk));
    }

    #[test]
    fn equivocation_proof_rejects_consistent_checkpoints() {
        let sk = key(b"honest");
        let vk = sk.verifying_key();
        // Same head: no equivocation.
        let proof = EquivocationProof {
            a: SignedCheckpoint::sign(body(7, 0xaa), &sk),
            b: SignedCheckpoint::sign(body(7, 0xaa), &sk),
        };
        assert!(!proof.verify(&vk));
        // Different sizes: growth, not equivocation.
        let proof = EquivocationProof {
            a: SignedCheckpoint::sign(body(7, 0xaa), &sk),
            b: SignedCheckpoint::sign(body(8, 0xbb), &sk),
        };
        assert!(!proof.verify(&vk));
    }

    #[test]
    fn equivocation_proof_requires_valid_signatures() {
        let sk = key(b"evil");
        let other = key(b"frame-job");
        // An attacker cannot frame `other` using signatures from `sk`.
        let proof = EquivocationProof {
            a: SignedCheckpoint::sign(body(7, 0xaa), &sk),
            b: SignedCheckpoint::sign(body(7, 0xbb), &sk),
        };
        assert!(!proof.verify(&other.verifying_key()));
    }

    #[test]
    fn log_ids_are_distinct() {
        assert_ne!(log_id(b"deploy-1", 0), log_id(b"deploy-1", 1));
        assert_ne!(log_id(b"deploy-1", 0), log_id(b"deploy-2", 0));
    }
}
