//! Release manifests and developer-signed releases.
//!
//! §4.1: "We also need to ensure that the TEE only runs updates from the
//! application developer. We can do this easily by sealing on to the TEE
//! not just the framework, but also a public key. Then each subsequent
//! update needs to be accompanied by a signature that verifies under the
//! original public key."
//!
//! A [`ReleaseManifest`] names a version and commits to the exact module
//! bytes via digest; a [`SignedRelease`] carries the manifest, the code,
//! and the developer's Schnorr signature over the manifest.

use distrust_crypto::schnorr::{SchnorrSignature, SigningKey, VerifyingKey};
use distrust_crypto::sha256::Digest;
use distrust_sandbox::Module;
use distrust_wire::codec::{Decode, Encode};
use distrust_wire::wire_struct;

/// Domain tag for release signatures.
const RELEASE_DST: &[u8] = b"distrust/release/v1";

/// Metadata describing one application release.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReleaseManifest {
    /// Application name (stable across versions).
    pub app_name: String,
    /// Monotonically increasing version.
    pub version: u64,
    /// Digest of the module bytes ([`Module::digest`]).
    pub code_digest: [u8; 32],
    /// Human-readable release notes (what auditors read first).
    pub notes: String,
    /// §3.3: "for highly sensitive applications, a developer might
    /// consider disabling her ability to push code updates to defend
    /// against future compromise." When `true`, this release permanently
    /// locks the deployment: every framework rejects all further updates,
    /// even correctly signed ones.
    pub locks_updates: bool,
}

wire_struct!(ReleaseManifest {
    app_name: String,
    version: u64,
    code_digest: [u8; 32],
    notes: String,
    locks_updates: bool,
});

impl ReleaseManifest {
    /// The exact bytes the developer signs.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut out = RELEASE_DST.to_vec();
        self.encode(&mut out);
        out
    }

    /// The log leaf recorded for this release: a compact, canonical
    /// commitment to (name, version, digest) that every trust domain logs
    /// identically.
    pub fn log_leaf(&self) -> Vec<u8> {
        let mut out = b"distrust/logleaf/v1".to_vec();
        self.app_name.encode(&mut out);
        self.version.encode(&mut out);
        self.code_digest.encode(&mut out);
        out
    }
}

/// A manifest plus the module bytes plus the developer's signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedRelease {
    /// The signed metadata.
    pub manifest: ReleaseManifest,
    /// Canonical module bytes (decode with [`Module::from_wire`]).
    pub module_bytes: Vec<u8>,
    /// Developer signature over [`ReleaseManifest::signing_bytes`]: its
    /// wire bytes, checked by [`SignedRelease::verify`] — a release whose
    /// signature bytes are no signature decodes, and is refused there as
    /// [`ReleaseError::BadSignature`].
    pub signature: SchnorrSignature,
}

wire_struct!(SignedRelease {
    manifest: ReleaseManifest,
    module_bytes: Vec<u8>,
    signature: SchnorrSignature,
});

/// Why a release was rejected by the framework.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReleaseError {
    /// Signature does not verify under the sealed developer key.
    BadSignature,
    /// Module bytes do not hash to the manifest's digest.
    DigestMismatch,
    /// Module bytes are not a decodable module.
    MalformedModule,
    /// Module failed static validation.
    InvalidModule(String),
    /// Version must strictly increase.
    StaleVersion {
        /// Currently active version.
        current: u64,
        /// Version offered.
        offered: u64,
    },
    /// Application name differs from the deployed application.
    WrongApp {
        /// Name the deployment is pinned to.
        expected: String,
        /// Name in the offered manifest.
        got: String,
    },
    /// A prior release locked the deployment (§3.3): updates are
    /// permanently disabled.
    DeploymentLocked,
    /// The append-only log (or its durable store) refused the append —
    /// storage I/O failure, or a fsync that could not complete. Surfaced as a rejection rather than a panic so
    /// one bad update cannot take the serving path down; nothing was
    /// activated.
    LogAppend(String),
    /// The update was logged and activated, but persisting its signed
    /// artifacts (epoch checkpoint, notice) failed — the domain should be
    /// restarted before serving further updates.
    Persist(String),
}

impl core::fmt::Display for ReleaseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadSignature => write!(f, "developer signature invalid"),
            Self::DigestMismatch => write!(f, "module bytes do not match manifest digest"),
            Self::MalformedModule => write!(f, "module bytes undecodable"),
            Self::InvalidModule(e) => write!(f, "module validation failed: {e}"),
            Self::StaleVersion { current, offered } => {
                write!(f, "stale version: current {current}, offered {offered}")
            }
            Self::WrongApp { expected, got } => {
                write!(f, "wrong application: expected {expected:?}, got {got:?}")
            }
            Self::DeploymentLocked => {
                write!(f, "deployment is locked: updates permanently disabled")
            }
            Self::LogAppend(e) => {
                write!(f, "release log refused the append: {e}")
            }
            Self::Persist(e) => {
                write!(
                    f,
                    "release activated but signed artifacts not persisted: {e}"
                )
            }
        }
    }
}

impl std::error::Error for ReleaseError {}

impl SignedRelease {
    /// Builds and signs a release from a module.
    pub fn create(
        app_name: &str,
        version: u64,
        notes: &str,
        module: &Module,
        developer: &SigningKey,
    ) -> Self {
        Self::create_with_lock(app_name, version, notes, module, developer, false)
    }

    /// Builds and signs a **final** release: after any framework applies
    /// it, the deployment is locked and no further updates are accepted
    /// (§3.3's defense against future developer compromise).
    pub fn create_final(
        app_name: &str,
        version: u64,
        notes: &str,
        module: &Module,
        developer: &SigningKey,
    ) -> Self {
        Self::create_with_lock(app_name, version, notes, module, developer, true)
    }

    fn create_with_lock(
        app_name: &str,
        version: u64,
        notes: &str,
        module: &Module,
        developer: &SigningKey,
        locks_updates: bool,
    ) -> Self {
        let module_bytes = module.to_wire();
        let manifest = ReleaseManifest {
            app_name: app_name.to_string(),
            version,
            code_digest: module.digest(),
            notes: notes.to_string(),
            locks_updates,
        };
        let signature = developer.sign(&manifest.signing_bytes());
        Self {
            manifest,
            module_bytes,
            signature,
        }
    }

    /// Full verification against the sealed developer key; returns the
    /// decoded, validated module on success.
    pub fn verify(&self, developer: &VerifyingKey) -> Result<Module, ReleaseError> {
        if !developer.verify(&self.manifest.signing_bytes(), &self.signature) {
            return Err(ReleaseError::BadSignature);
        }
        let module =
            Module::from_wire(&self.module_bytes).map_err(|_| ReleaseError::MalformedModule)?;
        if module.digest() != self.manifest.code_digest {
            return Err(ReleaseError::DigestMismatch);
        }
        module
            .validate()
            .map_err(|e| ReleaseError::InvalidModule(e.to_string()))?;
        Ok(module)
    }

    /// The code digest this release commits to.
    pub fn digest(&self) -> Digest {
        self.manifest.code_digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_sandbox::guests::counter_module;

    fn dev_key() -> SigningKey {
        SigningKey::derive(b"manifest tests", b"developer")
    }

    #[test]
    fn create_verify_round_trip() {
        let dev = dev_key();
        let module = counter_module(1);
        let release = SignedRelease::create("counter", 1, "initial", &module, &dev);
        let verified = release.verify(&dev.verifying_key()).unwrap();
        assert_eq!(verified, module);
    }

    #[test]
    fn wire_round_trip() {
        let dev = dev_key();
        let release = SignedRelease::create("counter", 2, "v2", &counter_module(2), &dev);
        let decoded = SignedRelease::from_wire(&release.to_wire()).unwrap();
        assert_eq!(decoded, release);
        assert!(decoded.verify(&dev.verifying_key()).is_ok());
    }

    #[test]
    fn unsigned_developer_rejected() {
        let dev = dev_key();
        let mallory = SigningKey::derive(b"manifest tests", b"mallory");
        let release = SignedRelease::create("counter", 1, "evil", &counter_module(1), &mallory);
        assert_eq!(
            release.verify(&dev.verifying_key()),
            Err(ReleaseError::BadSignature)
        );
    }

    #[test]
    fn swapped_code_detected() {
        // Attacker keeps the signed manifest but substitutes module bytes.
        let dev = dev_key();
        let mut release = SignedRelease::create("counter", 1, "v1", &counter_module(1), &dev);
        release.module_bytes = counter_module(99).to_wire();
        assert_eq!(
            release.verify(&dev.verifying_key()),
            Err(ReleaseError::DigestMismatch)
        );
    }

    #[test]
    fn tampered_manifest_detected() {
        let dev = dev_key();
        let mut release = SignedRelease::create("counter", 1, "v1", &counter_module(1), &dev);
        release.manifest.version = 2;
        assert_eq!(
            release.verify(&dev.verifying_key()),
            Err(ReleaseError::BadSignature)
        );
    }

    /// What the decoder refused while it parsed the signature is refused
    /// by `verify`, by name: an `R` that is no point at all (`x = 1`, and
    /// `1 + 4` has no square root) and one in the cofactor torsion
    /// (`x = 0`: the order-3 point `(0, 2)`).
    #[test]
    fn signature_bytes_that_are_no_point_of_g1_decode_and_fail_verification() {
        let dev = dev_key();
        let release = SignedRelease::create("counter", 1, "v1", &counter_module(1), &dev);
        for x in [1u8, 0] {
            let mut bytes = release.signature.to_bytes();
            bytes[..48].fill(0);
            (bytes[0], bytes[47]) = (0x80, x);
            let mut spoiled = release.clone();
            spoiled.signature = SchnorrSignature::from_bytes(&bytes);
            let decoded = SignedRelease::from_wire(&spoiled.to_wire()).expect("decodes");
            assert_eq!(decoded, spoiled);
            assert_eq!(
                decoded.verify(&dev.verifying_key()),
                Err(ReleaseError::BadSignature)
            );
        }
    }

    #[test]
    fn malformed_module_detected() {
        let dev = dev_key();
        let module = counter_module(1);
        let mut release = SignedRelease::create("counter", 1, "v1", &module, &dev);
        // Truncate the module bytes but fix up the digest + signature so
        // only decodability fails.
        release.module_bytes.truncate(10);
        release.manifest.code_digest =
            distrust_crypto::sha256_many(&[b"distrust/module/v1", &release.module_bytes]);
        release.signature = dev.sign(&release.manifest.signing_bytes());
        assert_eq!(
            release.verify(&dev.verifying_key()),
            Err(ReleaseError::MalformedModule)
        );
    }

    #[test]
    fn log_leaf_is_version_specific() {
        let dev = dev_key();
        let r1 = SignedRelease::create("counter", 1, "v1", &counter_module(1), &dev);
        let r2 = SignedRelease::create("counter", 2, "v2", &counter_module(2), &dev);
        assert_ne!(r1.manifest.log_leaf(), r2.manifest.log_leaf());
        // Leaf does not depend on mutable notes.
        let r1b = SignedRelease::create("counter", 1, "different notes", &counter_module(1), &dev);
        assert_eq!(r1.manifest.log_leaf(), r1b.manifest.log_leaf());
    }
}
