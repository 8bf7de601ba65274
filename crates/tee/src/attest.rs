//! Attestation documents and quotes.
//!
//! §3.1: "the client should be able to verify that it is communicating with
//! a correctly provisioned piece of secure hardware running software that
//! hashes to a particular value." A [`Quote`] carries exactly that: the
//! code measurement, caller-chosen `user_data` (the framework binds its
//! log head and a client nonce here), platform-specific evidence, a device
//! signature, and the device certificate chaining to a vendor root.
//!
//! Each simulated vendor emits a different evidence shape — verification
//! genuinely takes different paths per platform, as it does across real
//! SGX/Nitro/Keystone deployments.

use crate::vendor::{DeviceCert, VendorKind, VendorRoots};
use distrust_crypto::schnorr::{KeptKey, SchnorrSignature, VerifyingKey};
use distrust_crypto::sha256::Digest;
use distrust_wire::codec::Encode;
use distrust_wire::{wire_enum, wire_struct};

/// Domain tag for quote signatures.
const QUOTE_DST: &[u8] = b"distrust/tee/quote/v1";

/// Platform-specific attestation evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlatformEvidence {
    /// SGX-like: enclave measurement and signer measurement.
    Sgx {
        /// Hash of the enclave contents (must equal the document measurement).
        mr_enclave: Digest,
        /// Hash of the enclave signing authority.
        mr_signer: Digest,
        /// Security version number.
        isv_svn: u16,
    },
    /// Nitro-like: platform configuration registers.
    Nitro {
        /// PCR bank; PCR0 must equal the document measurement.
        pcrs: Vec<Digest>,
        /// Enclave module identifier.
        module_id: String,
    },
    /// Keystone-like: security monitor + runtime measurements.
    Keystone {
        /// Security monitor hash.
        sm_hash: Digest,
        /// Runtime (eapp) hash (must equal the document measurement).
        runtime_hash: Digest,
    },
}

impl PlatformEvidence {
    /// The vendor this evidence shape belongs to.
    pub fn vendor(&self) -> VendorKind {
        match self {
            PlatformEvidence::Sgx { .. } => VendorKind::SgxSim,
            PlatformEvidence::Nitro { .. } => VendorKind::NitroSim,
            PlatformEvidence::Keystone { .. } => VendorKind::KeystoneSim,
        }
    }

    /// Platform-specific consistency check against the claimed measurement.
    pub fn binds_measurement(&self, measurement: &Digest) -> bool {
        match self {
            PlatformEvidence::Sgx { mr_enclave, .. } => mr_enclave == measurement,
            PlatformEvidence::Nitro { pcrs, .. } => pcrs.first() == Some(measurement),
            PlatformEvidence::Keystone { runtime_hash, .. } => runtime_hash == measurement,
        }
    }
}

wire_enum!(PlatformEvidence {
    0 => Sgx { mr_enclave, mr_signer, isv_svn },
    1 => Nitro { #[seq] pcrs, module_id },
    2 => Keystone { sm_hash, runtime_hash },
} retired []);

/// The signed body of an attestation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttestationDocument {
    /// Issuing ecosystem.
    pub vendor: VendorKind,
    /// Device identifier (must match the certificate).
    pub device_id: [u8; 16],
    /// Measurement of the code loaded in the enclave.
    pub measurement: Digest,
    /// Caller-chosen binding data (log head, client nonce, …).
    pub user_data: Vec<u8>,
    /// Device-local monotonic time.
    pub logical_time: u64,
    /// Platform-specific evidence.
    pub evidence: PlatformEvidence,
}

wire_struct!(AttestationDocument {
    vendor: VendorKind,
    device_id: [u8; 16],
    measurement: Digest,
    user_data: Vec<u8>,
    logical_time: u64,
    evidence: PlatformEvidence,
});

impl AttestationDocument {
    /// Bytes covered by the device signature.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut out = QUOTE_DST.to_vec();
        self.encode(&mut out);
        out
    }
}

/// A complete, self-contained quote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Quote {
    /// The attested document.
    pub document: AttestationDocument,
    /// Device signature over the document: its wire bytes, checked by
    /// [`Quote::verify`] and by nothing before it.
    pub signature: SchnorrSignature,
    /// Device certificate chaining to a vendor root.
    pub cert: DeviceCert,
}

wire_struct!(Quote {
    document: AttestationDocument,
    signature: SchnorrSignature,
    cert: DeviceCert,
});

/// Why a quote was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttestError {
    /// No pinned root for the claimed vendor.
    UnknownVendor(VendorKind),
    /// Certificate does not chain to the pinned root.
    BadCertChain,
    /// The root-signed device key is no point of G1.
    BadDeviceKey,
    /// Quote signature invalid under the certified device key.
    BadQuoteSignature,
    /// Document fields disagree with the certificate.
    CertMismatch,
    /// Platform evidence inconsistent with the claimed measurement.
    EvidenceMismatch,
    /// Measurement differs from what the verifier expected.
    WrongMeasurement {
        /// What the verifier expected.
        expected: Digest,
        /// What the quote claimed.
        actual: Digest,
    },
    /// `user_data` differs from what the verifier expected (stale or
    /// replayed quote).
    WrongUserData,
}

impl core::fmt::Display for AttestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownVendor(k) => write!(f, "no pinned root for vendor {}", k.name()),
            Self::BadCertChain => write!(f, "device certificate does not chain to vendor root"),
            Self::BadDeviceKey => write!(f, "certified device key is not a point of G1"),
            Self::BadQuoteSignature => write!(f, "quote signature invalid"),
            Self::CertMismatch => write!(f, "document/certificate mismatch"),
            Self::EvidenceMismatch => write!(f, "platform evidence inconsistent with measurement"),
            Self::WrongMeasurement { .. } => write!(f, "unexpected code measurement"),
            Self::WrongUserData => write!(f, "unexpected user data (stale or replayed quote)"),
        }
    }
}

impl std::error::Error for AttestError {}

/// A device a verifier has seen pass [`Quote::verify_remembering`]: its
/// certificate, the pinned root that certificate chained to, and its key,
/// decoded once and kept ([`KeptKey`], which builds a table of the key
/// from the fifth quote verified under it). A cache of something verified
/// under a pinned key, never an authority: it lets the verifier skip only
/// the two checks whose input is byte-identical to what it verified.
pub struct KnownDevice {
    cert: DeviceCert,
    root: VerifyingKey,
    key: KeptKey,
}

impl KnownDevice {
    /// Whether the device key's table has been built.
    pub fn has_table(&self) -> bool {
        self.key.has_table()
    }
}

impl Quote {
    /// Full verification: [`Self::verify_remembering`] with nothing
    /// remembered.
    pub fn verify(
        &self,
        roots: &VendorRoots,
        expected_measurement: Option<&Digest>,
        expected_user_data: Option<&[u8]>,
    ) -> Result<(), AttestError> {
        self.verify_remembering(roots, &mut None, expected_measurement, expected_user_data)
    }

    /// Full verification — certificate chain, device key, document/cert
    /// binding, signature, platform-evidence consistency, and optionally
    /// the expected measurement and user data — given `known`, the device
    /// this verifier last saw pass it for the same party.
    ///
    /// A certificate byte-identical to `known`'s, chaining to the same
    /// pinned root, is neither checked against the root again nor its key
    /// decoded again: the document signature is checked under the kept
    /// key. Every other check is made on every quote. On success `known`
    /// holds this quote's device; a quote that fails any check leaves it
    /// as it was.
    pub fn verify_remembering(
        &self,
        roots: &VendorRoots,
        known: &mut Option<KnownDevice>,
        expected_measurement: Option<&Digest>,
        expected_user_data: Option<&[u8]>,
    ) -> Result<(), AttestError> {
        let root = roots
            .root_for(self.document.vendor)
            .ok_or(AttestError::UnknownVendor(self.document.vendor))?;
        let mut first_sight = None;
        let device = match known {
            Some(device) if device.cert == self.cert && device.root == *root => device,
            _ => {
                if !self.cert.verify(root) {
                    return Err(AttestError::BadCertChain);
                }
                let key = self.cert.decode_key().ok_or(AttestError::BadDeviceKey)?;
                first_sight.insert(KnownDevice {
                    cert: self.cert.clone(),
                    root: *root,
                    key: KeptKey::new(key),
                })
            }
        };
        if self.cert.vendor != self.document.vendor
            || self.cert.device_id != self.document.device_id
        {
            return Err(AttestError::CertMismatch);
        }
        if self.document.evidence.vendor() != self.document.vendor {
            return Err(AttestError::EvidenceMismatch);
        }
        if !self
            .document
            .evidence
            .binds_measurement(&self.document.measurement)
        {
            return Err(AttestError::EvidenceMismatch);
        }
        let signed = self.document.signing_bytes();
        if device
            .key
            .verify_all(&[(&signed, &self.signature)])
            .is_err()
        {
            return Err(AttestError::BadQuoteSignature);
        }
        if let Some(expected) = expected_measurement {
            if expected != &self.document.measurement {
                return Err(AttestError::WrongMeasurement {
                    expected: *expected,
                    actual: self.document.measurement,
                });
            }
        }
        if let Some(expected) = expected_user_data {
            if expected != self.document.user_data.as_slice() {
                return Err(AttestError::WrongUserData);
            }
        }
        if first_sight.is_some() {
            *known = first_sight;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::Vendor;
    use distrust_crypto::drbg::HmacDrbg;
    use distrust_wire::codec::Decode;

    fn setup(kind: VendorKind) -> (Vendor, crate::enclave::Enclave, VendorRoots) {
        let vendor = Vendor::new(kind, b"attest tests");
        let mut rng = HmacDrbg::new(b"attest rng", kind.name().as_bytes());
        let device = vendor.provision_device(&mut rng);
        let enclave = device.launch([0x42; 32]);
        let roots = VendorRoots::new(vec![(kind, vendor.root_key())]);
        (vendor, enclave, roots)
    }

    #[test]
    fn quotes_verify_for_all_vendors() {
        for kind in VendorKind::ALL {
            let (_vendor, enclave, roots) = setup(kind);
            let quote = enclave.quote(b"nonce+loghead");
            quote
                .verify(&roots, Some(&[0x42; 32]), Some(b"nonce+loghead"))
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        }
    }

    #[test]
    fn wire_round_trip_all_vendors() {
        for kind in VendorKind::ALL {
            let (_v, enclave, roots) = setup(kind);
            let quote = enclave.quote(b"ud");
            let decoded = Quote::from_wire(&quote.to_wire()).unwrap();
            assert_eq!(decoded, quote);
            assert!(decoded.verify(&roots, None, None).is_ok());
        }
    }

    #[test]
    fn wrong_measurement_rejected() {
        let (_v, enclave, roots) = setup(VendorKind::SgxSim);
        let quote = enclave.quote(b"ud");
        assert!(matches!(
            quote.verify(&roots, Some(&[0x43; 32]), None),
            Err(AttestError::WrongMeasurement { .. })
        ));
    }

    #[test]
    fn wrong_user_data_rejected() {
        let (_v, enclave, roots) = setup(VendorKind::NitroSim);
        let quote = enclave.quote(b"fresh-nonce");
        assert_eq!(
            quote.verify(&roots, None, Some(b"other-nonce")),
            Err(AttestError::WrongUserData)
        );
    }

    #[test]
    fn unknown_vendor_rejected() {
        let (_v, enclave, _roots) = setup(VendorKind::KeystoneSim);
        let quote = enclave.quote(b"ud");
        let wrong_roots = VendorRoots::new(vec![]);
        assert_eq!(
            quote.verify(&wrong_roots, None, None),
            Err(AttestError::UnknownVendor(VendorKind::KeystoneSim))
        );
    }

    #[test]
    fn tampered_measurement_breaks_signature() {
        let (_v, enclave, roots) = setup(VendorKind::SgxSim);
        let mut quote = enclave.quote(b"ud");
        quote.document.measurement = [0x99; 32];
        // Evidence no longer matches the measurement, or the signature
        // fails — either way, rejected.
        assert!(quote.verify(&roots, None, None).is_err());
    }

    #[test]
    fn tampered_user_data_breaks_signature() {
        let (_v, enclave, roots) = setup(VendorKind::NitroSim);
        let mut quote = enclave.quote(b"honest");
        quote.document.user_data = b"tampered".to_vec();
        assert_eq!(
            quote.verify(&roots, None, None),
            Err(AttestError::BadQuoteSignature)
        );
    }

    /// What the decoder refused while it parsed signatures is refused by
    /// `verify`, by name, for the quote's signature and the certificate's:
    /// an `R` that is no point at all (`x = 1`, and `1 + 4` has no square
    /// root) and one in the cofactor torsion (`x = 0`: the order-3 point
    /// `(0, 2)`).
    #[test]
    fn signature_bytes_that_are_no_point_of_g1_decode_and_fail_verification() {
        let (vendor, enclave, roots) = setup(VendorKind::KeystoneSim);
        let quote = enclave.quote(b"ud");
        let spoil = |signature: &mut SchnorrSignature, x: u8| {
            let mut bytes = signature.to_bytes();
            bytes[..48].fill(0);
            (bytes[0], bytes[47]) = (0x80, x);
            *signature = SchnorrSignature::from_bytes(&bytes);
        };
        for x in [1u8, 0] {
            let mut spoiled = quote.clone();
            spoil(&mut spoiled.signature, x);
            let decoded = Quote::from_wire(&spoiled.to_wire()).expect("decodes");
            assert_eq!(decoded, spoiled);
            assert_eq!(
                decoded.verify(&roots, None, None),
                Err(AttestError::BadQuoteSignature)
            );

            let mut spoiled = quote.clone();
            spoil(&mut spoiled.cert.signature, x);
            let decoded = Quote::from_wire(&spoiled.to_wire()).expect("decodes");
            assert_eq!(decoded, spoiled);
            assert!(!decoded.cert.verify(&vendor.root_key()));
            assert_eq!(
                decoded.verify(&roots, None, None),
                Err(AttestError::BadCertChain)
            );
        }
    }

    /// A root-signed certificate whose key bytes are no point of G1 (the
    /// compressed flag over `x = 1`, and `1 + 4` has no square root)
    /// decodes, chains to the root, and is refused by name where the key
    /// is first relied on.
    #[test]
    fn a_certified_key_that_is_no_point_of_g1_decodes_and_fails_verification() {
        let (vendor, enclave, roots) = setup(VendorKind::SgxSim);
        let mut quote = enclave.quote(b"ud");
        let mut key = [0u8; 48];
        (key[0], key[47]) = (0x80, 1);
        let cert = &mut quote.cert;
        cert.device_key = key;
        let signed = DeviceCert::signing_bytes(cert.vendor, &cert.device_id, &key);
        cert.signature = vendor.leak_root_key().sign(&signed);
        let decoded = Quote::from_wire(&quote.to_wire()).expect("decodes");
        assert_eq!(decoded, quote);
        assert!(decoded.cert.verify(&vendor.root_key()));
        assert!(decoded.cert.decode_key().is_none());
        assert_eq!(
            decoded.verify(&roots, None, None),
            Err(AttestError::BadDeviceKey)
        );
    }

    /// What a verifier remembers of a device it verified, and what it
    /// still checks: the device's first quote costs one certificate check
    /// and one key decode, later quotes from it neither; a certificate
    /// that differs from the kept one in any single field is checked in
    /// full, and a forged one is refused and never replaces the kept
    /// device; under the kept certificate a bad document signature, a
    /// wrong measurement and stale user data are each refused as before.
    #[test]
    fn a_known_device_skips_the_chain_check_and_nothing_else() {
        use crate::vendor::{cert_checks, device_key_decodes};
        let (_vendor, enclave, roots) = setup(VendorKind::NitroSim);
        let measurement = [0x42; 32];
        let counts = || (cert_checks(), device_key_decodes());
        let mut known = None;
        let quote = enclave.quote(b"nonce 0");
        let before = counts();
        let verify = |quote: &Quote, known: &mut Option<KnownDevice>, user_data: &[u8]| {
            quote.verify_remembering(&roots, known, Some(&measurement), Some(user_data))
        };
        verify(&quote, &mut known, b"nonce 0").expect("first sight");
        assert_eq!(counts(), (before.0 + 1, before.1 + 1));
        for i in 1..8 {
            let user_data = format!("nonce {i}");
            let quote = enclave.quote(user_data.as_bytes());
            verify(&quote, &mut known, user_data.as_bytes()).expect("known device");
        }
        assert_eq!(counts(), (before.0 + 1, before.1 + 1));
        assert!(known.as_ref().is_some_and(KnownDevice::has_table));

        let kept = quote.cert.clone();
        let edits: [fn(&mut DeviceCert); 4] = [
            |cert| cert.vendor = VendorKind::KeystoneSim,
            |cert| cert.device_id[3] ^= 1,
            |cert| cert.device_key[20] ^= 1,
            |cert| {
                let mut bytes = cert.signature.to_bytes();
                bytes[70] ^= 1;
                cert.signature = SchnorrSignature::from_bytes(&bytes);
            },
        ];
        for edit in edits {
            let mut forged = enclave.quote(b"nonce");
            edit(&mut forged.cert);
            let checks = cert_checks();
            assert_eq!(
                verify(&forged, &mut known, b"nonce"),
                Err(AttestError::BadCertChain)
            );
            assert_eq!(
                cert_checks(),
                checks + 1,
                "a changed cert is checked in full"
            );
            assert_eq!(known.as_ref().map(|device| &device.cert), Some(&kept));
        }

        let mut tampered = enclave.quote(b"honest");
        tampered.document.user_data = b"tampered".to_vec();
        assert_eq!(
            verify(&tampered, &mut known, b"tampered"),
            Err(AttestError::BadQuoteSignature)
        );
        let fresh = enclave.quote(b"fresh");
        assert!(matches!(
            fresh.verify_remembering(&roots, &mut known, Some(&[0x43; 32]), None),
            Err(AttestError::WrongMeasurement { .. })
        ));
        assert_eq!(
            verify(&fresh, &mut known, b"stale"),
            Err(AttestError::WrongUserData)
        );
        assert_eq!(counts(), (before.0 + 5, before.1 + 1));
        assert_eq!(known.as_ref().map(|device| &device.cert), Some(&kept));
    }

    /// The kept device is held to the root it chained to: handed other
    /// pinned roots, the same certificate is checked again, and refused
    /// when it does not chain to them.
    #[test]
    fn a_known_device_is_checked_again_under_other_roots() {
        let (_vendor, enclave, roots) = setup(VendorKind::KeystoneSim);
        let mut known = None;
        let quote = enclave.quote(b"ud");
        quote
            .verify_remembering(&roots, &mut known, None, None)
            .expect("first sight");
        let other = Vendor::new(VendorKind::KeystoneSim, b"another root");
        let other_roots = VendorRoots::new(vec![(VendorKind::KeystoneSim, other.root_key())]);
        assert_eq!(
            quote.verify_remembering(&other_roots, &mut known, None, None),
            Err(AttestError::BadCertChain)
        );
        assert!(known.is_some());
    }

    #[test]
    fn evidence_vendor_mixup_rejected() {
        let (_v, enclave, roots) = setup(VendorKind::SgxSim);
        let mut quote = enclave.quote(b"ud");
        quote.document.evidence = PlatformEvidence::Keystone {
            sm_hash: [0; 32],
            runtime_hash: quote.document.measurement,
        };
        assert!(quote.verify(&roots, None, None).is_err());
    }

    #[test]
    fn cross_vendor_cert_rejected() {
        // A quote claiming Nitro but certified by the SGX root fails.
        let (sgx_vendor, enclave, _) = setup(VendorKind::SgxSim);
        let quote = enclave.quote(b"ud");
        let roots = VendorRoots::new(vec![(VendorKind::NitroSim, sgx_vendor.root_key())]);
        // The document says SgxSim, for which no root is pinned.
        assert!(matches!(
            quote.verify(&roots, None, None),
            Err(AttestError::UnknownVendor(_))
        ));
    }

    #[test]
    fn logical_time_increases() {
        let (_v, enclave, _roots) = setup(VendorKind::SgxSim);
        let q1 = enclave.quote(b"a");
        let q2 = enclave.quote(b"b");
        assert!(q2.document.logical_time > q1.document.logical_time);
    }
}
