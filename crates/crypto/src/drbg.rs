//! HMAC-DRBG (NIST SP 800-90A) over SHA-256.
//!
//! Provides deterministic randomness for reproducible tests, deterministic
//! Schnorr nonces (RFC 6979 style), and the simulated TEE's internal entropy
//! source. Implements [`rand::RngCore`] so it can be plugged into any API in
//! the workspace that takes an RNG.

use crate::hmac::HmacSha256;
use rand::{CryptoRng, RngCore};

/// Deterministic random bit generator seeded from arbitrary entropy.
///
/// No reseed interval is enforced: the stream runs on from one seed until
/// the caller mixes in more with [`HmacDrbg::reseed`].
pub struct HmacDrbg {
    key: [u8; 32],
    value: [u8; 32],
}

impl HmacDrbg {
    /// Instantiates the DRBG from seed material and an optional
    /// personalization string (domain separation between consumers).
    pub fn new(entropy: &[u8], personalization: &[u8]) -> Self {
        let mut drbg = Self {
            key: [0u8; 32],
            value: [1u8; 32],
        };
        drbg.update(
            HmacSha256::new(&drbg.key),
            Some(&[entropy, personalization]),
        );
        drbg
    }

    /// Mixes additional entropy into the state.
    pub fn reseed(&mut self, entropy: &[u8]) {
        self.update(HmacSha256::new(&self.key), Some(&[entropy]));
    }

    /// Fills `out` with pseudorandom bytes.
    ///
    /// The key is absorbed once per call: each 32-byte block and the
    /// closing update's first MAC start from a clone of that keyed state.
    pub fn generate(&mut self, out: &mut [u8]) {
        let keyed = HmacSha256::new(&self.key);
        for block in out.chunks_mut(32) {
            let mut mac = keyed.clone();
            mac.update(&self.value);
            self.value = mac.finalize();
            block.copy_from_slice(&self.value[..block.len()]);
        }
        self.update(keyed, None);
    }

    /// The HMAC-DRBG update function; `keyed` is an HMAC keyed with the
    /// current key.
    fn update(&mut self, keyed: HmacSha256, provided: Option<&[&[u8]]>) {
        let mut mac = keyed;
        mac.update(&self.value);
        mac.update(&[0x00]);
        if let Some(parts) = provided {
            for p in parts {
                mac.update(p);
            }
        }
        self.key = mac.finalize();
        let keyed = HmacSha256::new(&self.key);
        let mut mac = keyed.clone();
        mac.update(&self.value);
        self.value = mac.finalize();

        if let Some(parts) = provided {
            let mut mac = keyed;
            mac.update(&self.value);
            mac.update(&[0x01]);
            for p in parts {
                mac.update(p);
            }
            self.key = mac.finalize();
            let mut mac = HmacSha256::new(&self.key);
            mac.update(&self.value);
            self.value = mac.finalize();
        }
    }
}

impl RngCore for HmacDrbg {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.generate(&mut b);
        u32::from_le_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.generate(&mut b);
        u64::from_le_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.generate(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.generate(dest);
        Ok(())
    }
}

// The DRBG is a cryptographically secure PRG given a high-entropy seed.
impl CryptoRng for HmacDrbg {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = HmacDrbg::new(b"seed material", b"test");
        let mut b = HmacDrbg::new(b"seed material", b"test");
        let mut out_a = [0u8; 100];
        let mut out_b = [0u8; 100];
        a.generate(&mut out_a);
        b.generate(&mut out_b);
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn personalization_separates_streams() {
        let mut a = HmacDrbg::new(b"seed", b"domain-a");
        let mut b = HmacDrbg::new(b"seed", b"domain-b");
        let mut out_a = [0u8; 32];
        let mut out_b = [0u8; 32];
        a.generate(&mut out_a);
        b.generate(&mut out_b);
        assert_ne!(out_a, out_b);
    }

    #[test]
    fn successive_outputs_differ() {
        let mut drbg = HmacDrbg::new(b"seed", b"");
        let mut first = [0u8; 32];
        let mut second = [0u8; 32];
        drbg.generate(&mut first);
        drbg.generate(&mut second);
        assert_ne!(first, second);
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = HmacDrbg::new(b"seed", b"");
        let mut b = HmacDrbg::new(b"seed", b"");
        b.reseed(b"extra entropy");
        let mut out_a = [0u8; 32];
        let mut out_b = [0u8; 32];
        a.generate(&mut out_a);
        b.generate(&mut out_b);
        assert_ne!(out_a, out_b);
    }

    #[test]
    fn rng_core_interface() {
        let mut drbg = HmacDrbg::new(b"seed", b"rngcore");
        let x = drbg.next_u64();
        let y = drbg.next_u64();
        assert_ne!(x, y, "consecutive u64 draws should differ");
        let mut buf = [0u8; 7];
        drbg.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 7]);
    }

    #[test]
    fn odd_length_requests() {
        let mut drbg = HmacDrbg::new(b"seed", b"");
        let mut buf = vec![0u8; 33];
        drbg.generate(&mut buf);
        // 33 bytes spans two HMAC blocks; both halves must be filled.
        assert!(buf[..32].iter().any(|&b| b != 0));
        // The last byte comes from the second block — statistically nonzero,
        // but assert only on structure: request length honoured.
        assert_eq!(buf.len(), 33);
    }

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{:02x}", b)).collect()
    }

    /// Known answers for the stream: deployment keys, dealer keys and
    /// every seeded fixture come from it, so how it is computed may change
    /// but not a byte of what it yields.
    #[test]
    fn known_answer_stream() {
        let mut drbg = HmacDrbg::new(b"known answer entropy", b"known answer personalization");
        let expected: [(usize, &str); 4] = [
            (8, "6879fdc9228d53a8"),
            (
                32,
                "8db024f4f0058fac06f3900827271281a61c429860670daa1727fab1b552233d",
            ),
            (
                33,
                "f0fc156e2671eca1f4f436731236d498e1fcaee871a1985693a2f77beedb957620",
            ),
            (
                448,
                concat!(
                    "f72e064b03bffdae3325e92715a75b63470b2fb48ebef1307930f99da66c0159",
                    "fbb44d332795b008813e5cebcc36c1d539df124687b172fcc577806e352a3263",
                    "a67d1c49c10f9bf0fbc8d01af8669e161622282f2ad6a8044d5d06b93eea079c",
                    "7512b574358c1351acc630f893031b3dadab475d2ef6b04ebc6b654f4ab3ac69",
                    "0a632992f11cbb7faca73939af17499daf0c5844aa17b42d36b9e0c3c814a794",
                    "307460428f5a11c72a6173a4ba7584dbea89a0418f280dd8f3074a7e8c43791e",
                    "f783d3c334f8f0d92a9d7370c03e7670d2f0508cd51c756e782dbfe6cc583b41",
                    "939f2b03ff084bd771cffae50cfbee5024a36bd77516118e4864a75b2a1d6478",
                    "6d2df193ea99e02ec9860ffa1b19a0c6c11a6ac23d91db4d945e8a93f10df032",
                    "59074316aa33bcf0b9f5bd2a7711d3eb72800a7b328ef721f2bc4749493b98cd",
                    "0aa345185f5d41793e98b602d6bccec31bacdf97b28e82e1887a6b48bad35c81",
                    "2a8ee14a85384c10576a56eaa3aa50a576cf2542cd075fea653460c8a8f8afd4",
                    "92620d79be2447814f6e99ff1aa3918d3d7f932bf219a3df07019c88ecbf3817",
                    "ca8967e775bf20642f0b87101fda38c7728cdf0382011d3248c0b48ded17f658",
                ),
            ),
        ];
        for (len, want) in expected {
            let mut out = vec![0u8; len];
            drbg.generate(&mut out);
            assert_eq!(hex(&out), want, "generate({len})");
        }
        drbg.reseed(b"known answer reseed");
        let mut out = [0u8; 40];
        drbg.generate(&mut out);
        assert_eq!(
            hex(&out),
            "0e7b8204a5df70628a48966187abdb118870c694f333d15d3576b2b0ac5b80a6912c3801f3c59576"
        );
        assert_eq!(drbg.next_u64(), 0x64409a2494a5203f);
        assert_eq!(drbg.next_u64(), 0x7eed4656da564eec);
        assert_eq!(drbg.next_u64(), 0xf9f9c6230075465a);
    }
}
