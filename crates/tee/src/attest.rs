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
use distrust_crypto::schnorr::SchnorrSignature;
use distrust_crypto::sha256::Digest;
use distrust_wire::codec::{decode_seq, encode_seq, Decode, DecodeError, Encode};

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

impl Encode for PlatformEvidence {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PlatformEvidence::Sgx {
                mr_enclave,
                mr_signer,
                isv_svn,
            } => {
                0u8.encode(out);
                mr_enclave.encode(out);
                mr_signer.encode(out);
                isv_svn.encode(out);
            }
            PlatformEvidence::Nitro { pcrs, module_id } => {
                1u8.encode(out);
                encode_seq(pcrs, out);
                module_id.encode(out);
            }
            PlatformEvidence::Keystone {
                sm_hash,
                runtime_hash,
            } => {
                2u8.encode(out);
                sm_hash.encode(out);
                runtime_hash.encode(out);
            }
        }
    }
}

impl Decode for PlatformEvidence {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode(input)? {
            0 => Ok(PlatformEvidence::Sgx {
                mr_enclave: Decode::decode(input)?,
                mr_signer: Decode::decode(input)?,
                isv_svn: Decode::decode(input)?,
            }),
            1 => Ok(PlatformEvidence::Nitro {
                pcrs: decode_seq(input)?,
                module_id: Decode::decode(input)?,
            }),
            2 => Ok(PlatformEvidence::Keystone {
                sm_hash: Decode::decode(input)?,
                runtime_hash: Decode::decode(input)?,
            }),
            other => Err(DecodeError::InvalidTag(other)),
        }
    }
}

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

impl Encode for AttestationDocument {
    fn encode(&self, out: &mut Vec<u8>) {
        self.vendor.encode(out);
        self.device_id.encode(out);
        self.measurement.encode(out);
        self.user_data.encode(out);
        self.logical_time.encode(out);
        self.evidence.encode(out);
    }
}

impl Decode for AttestationDocument {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            vendor: Decode::decode(input)?,
            device_id: Decode::decode(input)?,
            measurement: Decode::decode(input)?,
            user_data: Decode::decode(input)?,
            logical_time: Decode::decode(input)?,
            evidence: Decode::decode(input)?,
        })
    }
}

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

impl Encode for Quote {
    fn encode(&self, out: &mut Vec<u8>) {
        self.document.encode(out);
        self.signature.to_bytes().encode(out);
        self.cert.encode(out);
    }
}

impl Decode for Quote {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Self {
            document: Decode::decode(input)?,
            signature: SchnorrSignature::from_bytes(&Decode::decode(input)?),
            cert: Decode::decode(input)?,
        })
    }
}

/// Why a quote was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttestError {
    /// No pinned root for the claimed vendor.
    UnknownVendor(VendorKind),
    /// Certificate does not chain to the pinned root.
    BadCertChain,
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
            Self::BadQuoteSignature => write!(f, "quote signature invalid"),
            Self::CertMismatch => write!(f, "document/certificate mismatch"),
            Self::EvidenceMismatch => write!(f, "platform evidence inconsistent with measurement"),
            Self::WrongMeasurement { .. } => write!(f, "unexpected code measurement"),
            Self::WrongUserData => write!(f, "unexpected user data (stale or replayed quote)"),
        }
    }
}

impl std::error::Error for AttestError {}

impl Quote {
    /// Full verification: certificate chain, document/cert binding,
    /// signature, platform-evidence consistency, and optionally the
    /// expected measurement and user data.
    pub fn verify(
        &self,
        roots: &VendorRoots,
        expected_measurement: Option<&Digest>,
        expected_user_data: Option<&[u8]>,
    ) -> Result<(), AttestError> {
        let root = roots
            .root_for(self.document.vendor)
            .ok_or(AttestError::UnknownVendor(self.document.vendor))?;
        if !self.cert.verify(root) {
            return Err(AttestError::BadCertChain);
        }
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
        if !self
            .cert
            .device_key
            .verify(&self.document.signing_bytes(), &self.signature)
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::Vendor;
    use distrust_crypto::drbg::HmacDrbg;

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
