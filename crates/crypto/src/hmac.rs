//! HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869), built on our SHA-256.
//!
//! Used for sealed-storage key derivation in the TEE substrate and for the
//! deterministic nonce generation inside Schnorr signing.

use crate::sha256::{Digest, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC-SHA256.
///
/// Keying absorbs one padded key block into each of the inner and outer
/// hashes; both midstates are kept, so to MAC many messages under one key,
/// key once and clone the keyed state per message: a 32-byte message then
/// costs two compressions instead of four.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Initializes the MAC with an arbitrary-length key.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256::sha256(key);
            key_block[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        Self { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.inner.update(data);
        self
    }

    /// Produces the tag.
    pub fn finalize(self) -> Digest {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// HKDF-Extract: derives a pseudorandom key from input keying material.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> Digest {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: expands `prk` into `len` output bytes bound to `info`.
///
/// Panics if `len > 255 * 32` per RFC 5869.
pub fn hkdf_expand(prk: &Digest, info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * DIGEST_LEN, "HKDF output too long");
    let mut out = Vec::with_capacity(len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    let keyed = HmacSha256::new(prk);
    while out.len() < len {
        let mut mac = keyed.clone();
        mac.update(&t);
        mac.update(info);
        mac.update(&[counter]);
        let block = mac.finalize();
        t = block.to_vec();
        let take = (len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&block[..take]);
        counter = counter.checked_add(1).expect("HKDF counter overflow");
    }
    out
}

/// Convenience: extract-then-expand in one call.
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    hkdf_expand(&hkdf_extract(salt, ikm), info, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{:02x}", b)).collect()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 0xaa * 20 key, 0xdd * 50 data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0bu8; 22];
        let salt: Vec<u8> = (0u8..=0x0c).collect();
        let info: Vec<u8> = (0xf0u8..=0xf9).collect();
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = hkdf_expand(&prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn hkdf_lengths() {
        let prk = hkdf_extract(b"salt", b"ikm");
        for len in [0usize, 1, 31, 32, 33, 64, 100] {
            assert_eq!(hkdf_expand(&prk, b"info", len).len(), len);
        }
    }

    #[test]
    fn hkdf_info_separates() {
        let a = hkdf(b"s", b"k", b"context-a", 32);
        let b = hkdf(b"s", b"k", b"context-b", 32);
        assert_ne!(a, b);
    }

    #[test]
    fn incremental_hmac_matches() {
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac_sha256(b"key", b"hello world"));
    }

    #[test]
    fn cloned_keyed_state_matches_fresh_macs() {
        let keyed = HmacSha256::new(b"one key, many messages");
        for message in [&b"first message"[..], &[0xa5u8; 100][..]] {
            let mut mac = keyed.clone();
            mac.update(message);
            assert_eq!(
                mac.finalize(),
                hmac_sha256(b"one key, many messages", message)
            );
        }
    }
}
