//! The hash-chain append-only log of §4.1: "each TEE maintains an
//! append-only log of code digests … implemented at each TEE as a hash
//! chain".
//!
//! Entry `i` commits to the whole history: `H_i = SHA256(dst || H_{i-1} ||
//! leaf_i)`. The head digest is the log's compact commitment; auditors
//! replay entries to verify it. A hash chain has O(n) proofs — the Merkle
//! log in [`distrust_log::merkle`] is the O(log n) alternative discussed in
//! the paper's "deployment tomorrow" section and the one the framework
//! runs on; this chain lives here only as the other arm of the
//! `log_designs` ablation (Ablation B).

use distrust_crypto::sha256::{sha256_many, Digest};

/// Domain tag for chain link hashing.
const LINK_DST: &[u8] = b"distrust/hashchain/link/v1";
/// The head value of an empty chain.
const EMPTY_HEAD: &[u8] = b"distrust/hashchain/empty/v1";

/// An append-only hash chain over opaque leaf byte strings.
#[derive(Clone, Debug)]
pub struct HashChain {
    leaves: Vec<Vec<u8>>,
    heads: Vec<Digest>,
}

impl Default for HashChain {
    fn default() -> Self {
        Self::new()
    }
}

impl HashChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self {
            leaves: Vec::new(),
            heads: Vec::new(),
        }
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True when no entries have been appended.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The current head digest (commitment to the full history).
    pub fn head(&self) -> Digest {
        match self.heads.last() {
            Some(h) => *h,
            None => Self::empty_head(),
        }
    }

    /// Head digest of the empty chain.
    pub fn empty_head() -> Digest {
        sha256_many(&[EMPTY_HEAD])
    }

    /// Appends a leaf and returns the new head.
    pub fn append(&mut self, leaf: &[u8]) -> Digest {
        let prev = self.head();
        let head = Self::link(&prev, leaf);
        self.leaves.push(leaf.to_vec());
        self.heads.push(head);
        head
    }

    /// The chaining function, exposed so verifiers replay identically.
    pub fn link(prev: &Digest, leaf: &[u8]) -> Digest {
        sha256_many(&[LINK_DST, prev, leaf])
    }

    /// The head after entry `index` (0-based); `None` if out of range.
    pub fn head_at(&self, index: usize) -> Option<Digest> {
        self.heads.get(index).copied()
    }

    /// The leaf at `index`.
    pub fn leaf(&self, index: usize) -> Option<&[u8]> {
        self.leaves.get(index).map(|v| v.as_slice())
    }

    /// All leaves (an auditor downloads these to replay the chain).
    pub fn leaves(&self) -> &[Vec<u8>] {
        &self.leaves
    }

    /// Replays `leaves` and checks the resulting head. This is the full
    /// O(n) audit a client performs after downloading a domain's history.
    pub fn verify_replay(leaves: &[Vec<u8>], expected_head: &Digest) -> bool {
        let mut head = Self::empty_head();
        for leaf in leaves {
            head = Self::link(&head, leaf);
        }
        head == *expected_head
    }

    /// Checks that `new_leaves` extends a chain whose head was
    /// `trusted_head` after `trusted_len` entries, reaching `new_head`.
    /// This is the incremental audit: a client that already verified a
    /// prefix only replays the suffix.
    pub fn verify_extension(
        trusted_head: &Digest,
        new_leaves: &[Vec<u8>],
        new_head: &Digest,
    ) -> bool {
        let mut head = *trusted_head;
        for leaf in new_leaves {
            head = Self::link(&head, leaf);
        }
        head == *new_head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_head_is_stable() {
        assert_eq!(HashChain::new().head(), HashChain::empty_head());
        assert_eq!(HashChain::empty_head(), HashChain::empty_head());
    }

    #[test]
    fn append_changes_head() {
        let mut chain = HashChain::new();
        let h0 = chain.head();
        let h1 = chain.append(b"v1 digest");
        let h2 = chain.append(b"v2 digest");
        assert_ne!(h0, h1);
        assert_ne!(h1, h2);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain.head(), h2);
        assert_eq!(chain.head_at(0), Some(h1));
        assert_eq!(chain.head_at(1), Some(h2));
        assert_eq!(chain.head_at(2), None);
    }

    #[test]
    fn replay_verifies() {
        let mut chain = HashChain::new();
        for i in 0..10u32 {
            chain.append(&i.to_le_bytes());
        }
        assert!(HashChain::verify_replay(chain.leaves(), &chain.head()));
    }

    #[test]
    fn replay_detects_tampering() {
        let mut chain = HashChain::new();
        for i in 0..10u32 {
            chain.append(&i.to_le_bytes());
        }
        let head = chain.head();
        // Modify a historical entry.
        let mut tampered = chain.leaves().to_vec();
        tampered[3] = b"evil code digest".to_vec();
        assert!(!HashChain::verify_replay(&tampered, &head));
        // Delete an entry.
        let mut deleted = chain.leaves().to_vec();
        deleted.remove(5);
        assert!(!HashChain::verify_replay(&deleted, &head));
        // Reorder two entries.
        let mut reordered = chain.leaves().to_vec();
        reordered.swap(1, 2);
        assert!(!HashChain::verify_replay(&reordered, &head));
    }

    #[test]
    fn incremental_extension() {
        let mut chain = HashChain::new();
        for i in 0..5u32 {
            chain.append(&i.to_le_bytes());
        }
        let trusted = chain.head();
        let suffix: Vec<Vec<u8>> = (5..8u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for leaf in &suffix {
            chain.append(leaf);
        }
        assert!(HashChain::verify_extension(
            &trusted,
            &suffix,
            &chain.head()
        ));
        // A forged suffix fails.
        let mut forged = suffix.clone();
        forged[0] = b"backdoored".to_vec();
        assert!(!HashChain::verify_extension(
            &trusted,
            &forged,
            &chain.head()
        ));
    }

    #[test]
    fn same_leaves_same_head() {
        let mut a = HashChain::new();
        let mut b = HashChain::new();
        for leaf in [b"x".as_slice(), b"y", b"z"] {
            a.append(leaf);
            b.append(leaf);
        }
        assert_eq!(a.head(), b.head());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn replay_round_trips(leaves in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..32), 0..20)) {
            let mut chain = HashChain::new();
            for leaf in &leaves {
                chain.append(leaf);
            }
            prop_assert!(HashChain::verify_replay(chain.leaves(), &chain.head()));
        }

        #[test]
        fn prefix_heads_chain_correctly(
            leaves in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..16), 1..12),
            split in 0usize..11,
        ) {
            prop_assume!(split < leaves.len());
            let mut chain = HashChain::new();
            for leaf in &leaves {
                chain.append(leaf);
            }
            let mid = chain.head_at(split).unwrap();
            let suffix = &chain.leaves()[split + 1..];
            prop_assert!(HashChain::verify_extension(
                &mid,
                suffix,
                &chain.head()
            ));
        }
    }
}
