//! Devices and launched enclaves: measurement, quoting, derived keys.

use crate::attest::{AttestationDocument, PlatformEvidence, Quote};
use crate::vendor::{DeviceCert, VendorKind};
use distrust_crypto::hmac::hkdf;
use distrust_crypto::schnorr::SigningKey;
use distrust_crypto::sha256::Digest;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A provisioned secure device (pre-launch): certified attestation key and
/// a device-unique sealing secret.
pub struct SecureDevice {
    attestation_key: SigningKey,
    cert: DeviceCert,
    sealing_secret: [u8; 32],
}

impl SecureDevice {
    pub(crate) fn new(
        attestation_key: SigningKey,
        cert: DeviceCert,
        sealing_secret: [u8; 32],
    ) -> Self {
        Self {
            attestation_key,
            cert,
            sealing_secret,
        }
    }

    /// The device certificate.
    pub fn cert(&self) -> &DeviceCert {
        &self.cert
    }

    /// The device's ecosystem.
    pub fn vendor(&self) -> VendorKind {
        self.cert.vendor
    }

    /// Launches an enclave with code measured as `measurement`. The
    /// measurement is fixed at launch — matching real TEEs, where changing
    /// the code means launching a new enclave (this is exactly why the
    /// paper needs the indirection of a framework + sandbox for updates).
    pub fn launch(self, measurement: Digest) -> Enclave {
        Enclave {
            inner: Arc::new(EnclaveInner {
                device: self,
                measurement,
                clock: AtomicU64::new(1),
            }),
        }
    }
}

struct EnclaveInner {
    device: SecureDevice,
    measurement: Digest,
    clock: AtomicU64,
}

/// A launched enclave. Cheap to clone (shared handle) so the framework and
/// its proxy threads can quote concurrently.
#[derive(Clone)]
pub struct Enclave {
    inner: Arc<EnclaveInner>,
}

impl Enclave {
    /// The device certificate.
    pub fn cert(&self) -> &DeviceCert {
        &self.inner.device.cert
    }

    /// The ecosystem this enclave runs on.
    pub fn vendor(&self) -> VendorKind {
        self.inner.device.cert.vendor
    }

    /// Produces a signed quote binding `user_data` (log head, nonce, …) to
    /// the launch measurement, with vendor-shaped platform evidence.
    pub fn quote(&self, user_data: &[u8]) -> Quote {
        let t = self.inner.clock.fetch_add(1, Ordering::SeqCst);
        let measurement = self.inner.measurement;
        let evidence = match self.vendor() {
            VendorKind::SgxSim => PlatformEvidence::Sgx {
                mr_enclave: measurement,
                mr_signer: distrust_crypto::sha256_many(&[
                    b"mr-signer",
                    &self.inner.device.cert.device_id,
                ]),
                isv_svn: 1,
            },
            VendorKind::NitroSim => PlatformEvidence::Nitro {
                pcrs: vec![
                    measurement,
                    distrust_crypto::sha256_many(&[b"pcr1-kernel"]),
                    distrust_crypto::sha256_many(&[b"pcr2-app"]),
                ],
                module_id: format!(
                    "i-sim-{:02x}{:02x}",
                    self.inner.device.cert.device_id[0], self.inner.device.cert.device_id[1]
                ),
            },
            VendorKind::KeystoneSim => PlatformEvidence::Keystone {
                sm_hash: distrust_crypto::sha256_many(&[b"keystone-sm-v1"]),
                runtime_hash: measurement,
            },
        };
        let document = AttestationDocument {
            vendor: self.vendor(),
            device_id: self.inner.device.cert.device_id,
            measurement,
            user_data: user_data.to_vec(),
            logical_time: t,
            evidence,
        };
        let signature = self
            .inner
            .device
            .attestation_key
            .sign(&document.signing_bytes());
        Quote {
            document,
            signature,
            cert: self.inner.device.cert.clone(),
        }
    }

    /// Derives a signing key *inside the enclave*, bound to this device
    /// and this measurement — standard TEE key-derivation practice. The
    /// framework uses it for log-checkpoint signatures; a different code
    /// version (different measurement) derives a different key.
    pub fn derive_signing_key(&self, context: &[u8]) -> SigningKey {
        let mut info = self.inner.measurement.to_vec();
        info.extend_from_slice(context);
        let seed = hkdf(
            b"distrust/tee/derived-key/v1",
            &self.inner.device.sealing_secret,
            &info,
            32,
        );
        SigningKey::derive(&seed, b"enclave-derived")
    }

    /// **Exploit-injection API** (simulation only): hands the enclave's
    /// attestation key to an "attacker", modelling a device-level TEE
    /// break. See the compromise-matrix integration tests.
    pub fn leak_attestation_key(&self) -> SigningKey {
        self.inner.device.attestation_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::Vendor;
    use distrust_crypto::drbg::HmacDrbg;

    fn enclave(kind: VendorKind, measurement: Digest) -> Enclave {
        let vendor = Vendor::new(kind, b"enclave tests");
        let mut rng = HmacDrbg::new(b"enclave rng", kind.name().as_bytes());
        vendor.provision_device(&mut rng).launch(measurement)
    }

    #[test]
    fn quotes_carry_measurement_and_user_data() {
        let e = enclave(VendorKind::SgxSim, [7; 32]);
        let q = e.quote(b"bound-data");
        assert_eq!(q.document.measurement, [7; 32]);
        assert_eq!(q.document.user_data, b"bound-data");
    }
}
