//! Simulated secure-hardware vendors and device provisioning.
//!
//! The paper (§3.2) wants trust domains on *heterogeneous* secure hardware
//! "to minimize the chance that an exploit in one type of secure hardware
//! compromises the entire system". We simulate three vendor ecosystems —
//! SGX-like, Nitro-like, and Keystone-like — each with its own root of
//! trust and its own attestation evidence format (see [`crate::attest`]).
//!
//! Real hardware cannot be exploited on demand; a simulator can. The
//! [`Vendor::leak_root_key`] API deliberately models a vendor-wide TEE
//! exploit so integration tests can demonstrate exactly which guarantees
//! survive a compromised vendor (the motivation for heterogeneity).

use distrust_crypto::schnorr::{SchnorrSignature, SigningKey, VerifyingKey};
use distrust_wire::codec::Encode;
use distrust_wire::{wire_enum, wire_struct};
use std::cell::Cell;

/// The three simulated secure-hardware ecosystems.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VendorKind {
    /// Process-scoped enclave à la Intel SGX.
    SgxSim,
    /// VM-scoped enclave à la AWS Nitro.
    NitroSim,
    /// Open-hardware enclave à la RISC-V Keystone.
    KeystoneSim,
}

impl VendorKind {
    /// All simulated vendors, in the round-robin order deployments use.
    pub const ALL: [VendorKind; 3] = [
        VendorKind::SgxSim,
        VendorKind::NitroSim,
        VendorKind::KeystoneSim,
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            VendorKind::SgxSim => "sgx-sim",
            VendorKind::NitroSim => "nitro-sim",
            VendorKind::KeystoneSim => "keystone-sim",
        }
    }
}

wire_enum!(VendorKind {
    0 => SgxSim,
    1 => NitroSim,
    2 => KeystoneSim,
} retired []);

/// Domain tag for device certificate signatures.
const CERT_DST: &[u8] = b"distrust/tee/device-cert/v1";

thread_local! {
    static CERT_CHECKS: Cell<u64> = const { Cell::new(0) };
    static KEY_DECODES: Cell<u64> = const { Cell::new(0) };
}

/// Certificate signatures ([`DeviceCert::verify`]) the calling thread has
/// checked so far: the difference across a call is the number it made —
/// what tests assert on instead of time.
pub fn cert_checks() -> u64 {
    CERT_CHECKS.with(Cell::get)
}

/// Device keys ([`DeviceCert::decode_key`]) the calling thread has decoded
/// so far, counted like [`cert_checks`].
pub fn device_key_decodes() -> u64 {
    KEY_DECODES.with(Cell::get)
}

/// A certificate binding a device key to a vendor root.
///
/// Decoding copies bytes and checks nothing: the device key stays its 48
/// wire bytes, as the signature stays its 80, until a verification relies
/// on it. [`DeviceCert::verify`] signs over those bytes as they came, and
/// [`DeviceCert::decode_key`] is where they become a point of G1 — or are
/// refused as none, which [`crate::Quote::verify`] reports by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceCert {
    /// Issuing vendor.
    pub vendor: VendorKind,
    /// Unique device identifier.
    pub device_id: [u8; 16],
    /// The device's attestation public key, in its compressed wire form.
    pub device_key: [u8; 48],
    /// Vendor root signature over the above.
    pub signature: SchnorrSignature,
}

impl DeviceCert {
    pub(crate) fn signing_bytes(
        vendor: VendorKind,
        device_id: &[u8; 16],
        device_key: &[u8; 48],
    ) -> Vec<u8> {
        let mut out = CERT_DST.to_vec();
        vendor.encode(&mut out);
        device_id.encode(&mut out);
        out.extend_from_slice(device_key);
        out
    }

    /// Verifies the certificate chain link against a vendor root key.
    pub fn verify(&self, root: &VerifyingKey) -> bool {
        CERT_CHECKS.with(|n| n.set(n.get() + 1));
        let msg = Self::signing_bytes(self.vendor, &self.device_id, &self.device_key);
        root.verify(&msg, &self.signature)
    }

    /// The device key as a point of G1 — a square root and a subgroup
    /// test — or `None` when its bytes are no such point.
    pub fn decode_key(&self) -> Option<VerifyingKey> {
        KEY_DECODES.with(|n| n.set(n.get() + 1));
        VerifyingKey::from_bytes(&self.device_key)
    }
}

wire_struct!(DeviceCert {
    vendor: VendorKind,
    device_id: [u8; 16],
    device_key: [u8; 48],
    signature: SchnorrSignature,
});

/// A simulated vendor: the root of trust for one hardware ecosystem.
pub struct Vendor {
    kind: VendorKind,
    root: SigningKey,
    /// Monotonic device counter (device ids must be unique per vendor).
    next_device: std::sync::atomic::AtomicU64,
}

impl Vendor {
    /// Creates a vendor with a deterministic root derived from `seed`
    /// (tests and reproducible deployments) — use distinct seeds per
    /// deployment in production-shaped code.
    pub fn new(kind: VendorKind, seed: &[u8]) -> Self {
        Self {
            kind,
            root: SigningKey::derive(seed, kind.name().as_bytes()),
            next_device: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The vendor's ecosystem.
    pub fn kind(&self) -> VendorKind {
        self.kind
    }

    /// The public root key clients pin.
    pub fn root_key(&self) -> VerifyingKey {
        self.root.verifying_key()
    }

    /// Manufactures a new device: fresh device key, certified by the root,
    /// with a device-unique sealing secret.
    pub fn provision_device<R: rand::RngCore + ?Sized>(
        &self,
        rng: &mut R,
    ) -> crate::enclave::SecureDevice {
        let seq = self
            .next_device
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let mut device_id = [0u8; 16];
        rng.fill_bytes(&mut device_id[..8]);
        device_id[8..].copy_from_slice(&seq.to_le_bytes());
        let device_key = SigningKey::generate(rng);
        let mut sealing_secret = [0u8; 32];
        rng.fill_bytes(&mut sealing_secret);
        let key_bytes = device_key.verifying_key().to_bytes();
        let msg = DeviceCert::signing_bytes(self.kind, &device_id, &key_bytes);
        let cert = DeviceCert {
            vendor: self.kind,
            device_id,
            device_key: key_bytes,
            signature: self.root.sign(&msg),
        };
        crate::enclave::SecureDevice::new(device_key, cert, sealing_secret)
    }

    /// **Exploit-injection API** (simulation only): models a vendor-wide
    /// compromise by handing out the root signing key, with which an
    /// attacker can mint fake devices and forge attestation for this
    /// vendor's entire ecosystem. Used by security tests to demonstrate
    /// the value of heterogeneous hardware (§3.2).
    pub fn leak_root_key(&self) -> SigningKey {
        self.root
    }
}

/// The set of vendor root keys a verifier pins.
#[derive(Clone, Debug)]
pub struct VendorRoots {
    entries: Vec<(VendorKind, VerifyingKey)>,
}

impl VendorRoots {
    /// Builds from explicit entries.
    pub fn new(entries: Vec<(VendorKind, VerifyingKey)>) -> Self {
        Self { entries }
    }

    /// Collects the public roots of a set of vendors.
    pub fn from_vendors(vendors: &[Vendor]) -> Self {
        Self {
            entries: vendors.iter().map(|v| (v.kind(), v.root_key())).collect(),
        }
    }

    /// The pinned root for `kind`, if any.
    pub fn root_for(&self, kind: VendorKind) -> Option<&VerifyingKey> {
        self.entries
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, key)| key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_crypto::drbg::HmacDrbg;
    use distrust_wire::codec::Decode;

    #[test]
    fn vendor_kind_wire_round_trip() {
        for kind in VendorKind::ALL {
            assert_eq!(VendorKind::from_wire(&kind.to_wire()), Ok(kind));
        }
        assert!(VendorKind::from_wire(&[9]).is_err());
    }

    #[test]
    fn provisioned_device_cert_verifies() {
        let vendor = Vendor::new(VendorKind::SgxSim, b"seed-1");
        let mut rng = HmacDrbg::new(b"device rng", b"");
        let device = vendor.provision_device(&mut rng);
        assert!(device.cert().verify(&vendor.root_key()));
    }

    #[test]
    fn cert_rejected_by_wrong_root() {
        let vendor_a = Vendor::new(VendorKind::SgxSim, b"seed-a");
        let vendor_b = Vendor::new(VendorKind::SgxSim, b"seed-b");
        let mut rng = HmacDrbg::new(b"device rng", b"");
        let device = vendor_a.provision_device(&mut rng);
        assert!(!device.cert().verify(&vendor_b.root_key()));
    }

    #[test]
    fn cert_tamper_detected() {
        let vendor = Vendor::new(VendorKind::NitroSim, b"seed");
        let mut rng = HmacDrbg::new(b"device rng", b"");
        let device = vendor.provision_device(&mut rng);
        let mut cert = device.cert().clone();
        cert.device_id[0] ^= 1;
        assert!(!cert.verify(&vendor.root_key()));
        let mut cert = device.cert().clone();
        cert.vendor = VendorKind::KeystoneSim;
        assert!(!cert.verify(&vendor.root_key()));
    }

    #[test]
    fn cert_wire_round_trip() {
        let vendor = Vendor::new(VendorKind::KeystoneSim, b"seed");
        let mut rng = HmacDrbg::new(b"device rng", b"");
        let device = vendor.provision_device(&mut rng);
        let cert = device.cert();
        let decoded = DeviceCert::from_wire(&cert.to_wire()).unwrap();
        assert_eq!(&decoded, cert);
        assert!(decoded.verify(&vendor.root_key()));
    }

    #[test]
    fn device_ids_unique() {
        let vendor = Vendor::new(VendorKind::SgxSim, b"seed");
        let mut rng = HmacDrbg::new(b"device rng", b"");
        let a = vendor.provision_device(&mut rng);
        let b = vendor.provision_device(&mut rng);
        assert_ne!(a.cert().device_id, b.cert().device_id);
    }

    #[test]
    fn leaked_root_forges_certs() {
        // The exploit-injection API really does enable forgery — this is
        // the negative control the heterogeneity tests rely on.
        let vendor = Vendor::new(VendorKind::SgxSim, b"seed");
        let stolen = vendor.leak_root_key();
        let mut rng = HmacDrbg::new(b"attacker rng", b"");
        let fake_key = SigningKey::generate(&mut rng);
        let device_id = [0xee; 16];
        let key_bytes = fake_key.verifying_key().to_bytes();
        let msg = DeviceCert::signing_bytes(VendorKind::SgxSim, &device_id, &key_bytes);
        let forged = DeviceCert {
            vendor: VendorKind::SgxSim,
            device_id,
            device_key: key_bytes,
            signature: stolen.sign(&msg),
        };
        assert!(forged.verify(&vendor.root_key()));
    }

    #[test]
    fn roots_lookup() {
        let vendors: Vec<Vendor> = VendorKind::ALL
            .iter()
            .map(|k| Vendor::new(*k, b"seed"))
            .collect();
        let roots = VendorRoots::from_vendors(&vendors);
        for v in &vendors {
            assert_eq!(roots.root_for(v.kind()), Some(&v.root_key()));
        }
        let partial = VendorRoots::new(vec![(VendorKind::SgxSim, vendors[0].root_key())]);
        assert!(partial.root_for(VendorKind::NitroSim).is_none());
    }
}
