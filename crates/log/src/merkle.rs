//! RFC 6962-style Merkle tree log with inclusion and consistency proofs.
//!
//! The paper's inspiration is Certificate Transparency (§1, §4.2): CT logs
//! are Merkle trees precisely because they give auditors O(log n) proofs
//! instead of full replays. This module is the "deployment tomorrow"
//! counterpart to the paper's §4.1 hash chain; the `log_designs` ablation
//! in `distrust-bench` measures the two against each other.
//!
//! Hashing follows RFC 6962 §2.1: `leaf = H(0x00 || data)`,
//! `node = H(0x01 || left || right)`, split at the largest power of two
//! strictly less than `n`.

use distrust_crypto::sha256::{sha256_many, Digest};

/// Hash of the empty tree (RFC 6962: hash of the empty string).
pub fn empty_root() -> Digest {
    distrust_crypto::sha256(b"")
}

/// RFC 6962 leaf hash.
pub fn leaf_hash(data: &[u8]) -> Digest {
    sha256_many(&[&[0x00], data])
}

/// RFC 6962 interior node hash.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_many(&[&[0x01], left, right])
}

/// Largest power of two strictly less than `n` (n >= 2).
fn split_point(n: usize) -> usize {
    debug_assert!(n >= 2);
    let mut k = 1usize;
    while k * 2 < n {
        k *= 2;
    }
    k
}

/// An append-only sequence of byte strings kept back to back in one
/// buffer.
///
/// What a domain keeps for as long as it lives — log leaves, update
/// notices — is written once per release and read rarely. One `Vec<u8>`
/// (and `String`s) apiece made each release leave a handful of small
/// allocations wedged between the short-lived buffers of every audit, and
/// a domain's resident memory grew by well over what it held; packed, a
/// release extends two vectors.
#[derive(Clone, Debug, Default)]
pub struct PackedRecords {
    bytes: Vec<u8>,
    /// `ends[i]` is where record `i` ends in `bytes` (and `i + 1` begins).
    ends: Vec<usize>,
}

impl PackedRecords {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Makes room for `records` more records of `bytes` bytes in all,
    /// exactly: what a boot that knows what it is about to replay calls
    /// once, instead of letting both vectors double their way there.
    pub fn reserve_exact(&mut self, records: usize, bytes: usize) {
        // lint:allow(taint-alloc): a boot sizes this from records it already holds in memory (recovered leaves, notice records), so it reserves at most what they take
        self.bytes.reserve_exact(bytes);
        // lint:allow(taint-alloc): a count of records already held in memory, as above
        self.ends.reserve_exact(records);
    }

    /// Appends a record.
    pub fn push(&mut self, record: &[u8]) {
        self.bytes.extend_from_slice(record);
        self.ends.push(self.bytes.len());
    }

    /// The record at `index`.
    pub fn get(&self, index: usize) -> Option<&[u8]> {
        let end = *self.ends.get(index)?;
        let start = match index.checked_sub(1) {
            Some(before) => *self.ends.get(before)?,
            None => 0,
        };
        self.bytes.get(start..end)
    }

    /// Every record, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.suffix(0)
    }

    /// The records from `index` on, as many as fit in `budget` bytes —
    /// and always the first, so a reader paging through makes progress
    /// whatever one record weighs. `None` past the end, nothing exactly at
    /// it.
    pub fn page_from(&self, index: usize, budget: usize) -> Option<impl Iterator<Item = &[u8]>> {
        let ends = self.ends.get(index..)?;
        let start = index
            .checked_sub(1)
            .and_then(|before| self.ends.get(before))
            .map_or(0, |end| *end);
        let fit = ends.partition_point(|end| end - start <= budget).max(1);
        Some(self.suffix(index).take(fit))
    }

    fn suffix(&self, index: usize) -> impl Iterator<Item = &[u8]> {
        (index..self.len()).filter_map(|i| self.get(i))
    }
}

/// An append-only Merkle tree over opaque leaves.
///
/// Subtree hashes are cached incrementally: `levels[k][i]` is the root of
/// the complete subtree covering leaves `[i·2^k, (i+1)·2^k)`, maintained
/// as leaves arrive (amortised O(1) hash per append). [`MerkleLog::root`]
/// and [`MerkleLog::root_of_prefix`] fold the O(log n) cached subtrees on
/// the right edge instead of rehashing every leaf, and proof generation
/// reads sibling roots from the same cache — without the cache, every
/// `root()` call cost O(n) hashes and checkpointing grew quadratically
/// with history.
#[derive(Clone, Debug, Default)]
pub struct MerkleLog {
    leaves: PackedRecords,
    /// `levels[0]` holds the leaf hashes; `levels[k][i]` the root of the
    /// complete aligned subtree of `2^k` leaves starting at `i·2^k`.
    levels: Vec<Vec<Digest>>,
}

impl MerkleLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Makes room for `leaves` more leaves of `bytes` bytes in all,
    /// exactly: the packed leaves, and every level of the cache at the
    /// length those leaves take it to ([`PackedRecords::reserve_exact`]).
    pub fn reserve_exact(&mut self, leaves: usize, bytes: usize) {
        // lint:allow(taint-alloc): a boot sizes this from the leaves it has already read into memory, so it reserves at most what they take
        self.leaves.reserve_exact(leaves, bytes);
        // Level k holds one hash per complete aligned run of 2^k leaves.
        let mut length = self.len() + leaves;
        let mut k = 0;
        while length > 0 {
            if self.levels.len() == k {
                self.levels.push(Vec::new());
            }
            if let Some(level) = self.levels.get_mut(k) {
                // lint:allow(taint-alloc): at most one hash per leaf already held in memory, as above
                level.reserve_exact(length - level.len());
            }
            length /= 2;
            k += 1;
        }
    }

    /// Appends a leaf, returning its index.
    pub fn append(&mut self, data: &[u8]) -> usize {
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(leaf_hash(data));
        self.leaves.push(data);
        // Complete any aligned subtrees the new leaf finishes.
        let mut k = 0;
        loop {
            let len = self.levels[k].len();
            if !len.is_multiple_of(2) {
                break;
            }
            let parent = node_hash(&self.levels[k][len - 2], &self.levels[k][len - 1]);
            if self.levels.len() == k + 1 {
                self.levels.push(Vec::new());
            }
            self.levels[k + 1].push(parent);
            k += 1;
        }
        self.leaves.len() - 1
    }

    /// The leaves from `index` on, as many as fit in `budget` bytes (see
    /// [`PackedRecords::page_from`]) — `None` past the end, nothing
    /// exactly at it. Borrowing the suffix keeps serving paths index-free:
    /// callers iterate it instead of asserting per-leaf range checks.
    pub fn leaves_from(&self, index: usize, budget: usize) -> Option<impl Iterator<Item = &[u8]>> {
        self.leaves.page_from(index, budget)
    }

    /// The right-edge subtree roots: the binary decomposition of the
    /// current size into complete aligned subtrees, highest first, read
    /// straight from the level cache. This O(log n) vector determines
    /// [`MerkleLog::root`] (fold with [`CompactRoot`]) and is what a
    /// durable store persists per checkpoint, so recovery can hold the
    /// tree it replays against a value stored when the segment was sealed.
    pub fn right_edge(&self) -> Vec<Digest> {
        let n = self.len();
        let mut edge = Vec::new();
        let mut start = 0usize;
        for k in (0..usize::BITS).rev() {
            if n & (1usize << k) != 0 {
                if let Some(h) = self.levels.get(k as usize).and_then(|l| l.get(start >> k)) {
                    edge.push(*h);
                }
                start += 1usize << k;
            }
        }
        edge
    }

    /// The current tree root.
    pub fn root(&self) -> Digest {
        self.root_of_prefix(self.len())
    }

    /// The root of the first `size` leaves (historical tree heads).
    pub fn root_of_prefix(&self, size: usize) -> Digest {
        assert!(size <= self.len(), "prefix larger than log");
        self.range_root(0, size)
    }

    /// Root of the subtree over leaves `[start, start + len)`, served from
    /// the level cache whenever the range is a complete aligned subtree
    /// (which every left branch of an RFC 6962 split is).
    fn range_root(&self, start: usize, len: usize) -> Digest {
        match len {
            0 => empty_root(),
            1 => self.levels[0][start],
            n => {
                if n.is_power_of_two() && start.is_multiple_of(n) {
                    let k = n.trailing_zeros() as usize;
                    if let Some(h) = self.levels.get(k).and_then(|l| l.get(start >> k)) {
                        return *h;
                    }
                }
                let k = split_point(n);
                node_hash(
                    &self.range_root(start, k),
                    &self.range_root(start + k, n - k),
                )
            }
        }
    }

    /// Inclusion proof for `index` in the tree of the first `size` leaves.
    pub fn prove_inclusion(&self, index: usize, size: usize) -> Option<InclusionProof> {
        if index >= size || size > self.len() {
            return None;
        }
        let mut path = Vec::new();
        self.inclusion_path(0, size, index, &mut path);
        Some(InclusionProof {
            index: index as u64,
            size: size as u64,
            path,
        })
    }

    fn inclusion_path(&self, start: usize, len: usize, index: usize, out: &mut Vec<Digest>) {
        if len == 1 {
            return;
        }
        let k = split_point(len);
        if index < k {
            self.inclusion_path(start, k, index, out);
            out.push(self.range_root(start + k, len - k));
        } else {
            self.inclusion_path(start + k, len - k, index - k, out);
            out.push(self.range_root(start, k));
        }
    }

    /// Consistency proof between the trees of the first `old_size` and
    /// `new_size` leaves (RFC 6962 §2.1.2 PROOF/SUBPROOF).
    pub fn prove_consistency(&self, old_size: usize, new_size: usize) -> Option<ConsistencyProof> {
        if old_size == 0 || old_size > new_size || new_size > self.len() {
            return None;
        }
        let mut path = Vec::new();
        self.subproof(0, new_size, old_size, true, &mut path);
        Some(ConsistencyProof {
            old_size: old_size as u64,
            new_size: new_size as u64,
            path,
        })
    }

    fn subproof(&self, start: usize, len: usize, m: usize, complete: bool, out: &mut Vec<Digest>) {
        if m == len {
            if !complete {
                out.push(self.range_root(start, len));
            }
            return;
        }
        let k = split_point(len);
        if m <= k {
            self.subproof(start, k, m, complete, out);
            out.push(self.range_root(start + k, len - k));
        } else {
            self.subproof(start + k, len - k, m - k, false, out);
            out.push(self.range_root(start, k));
        }
    }
}

/// A Merkle audit path proving one leaf is in a tree of a given size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InclusionProof {
    /// Leaf index (0-based).
    pub index: u64,
    /// Tree size the proof targets.
    pub size: u64,
    /// Sibling hashes, leaf-to-root order.
    pub path: Vec<Digest>,
}

impl InclusionProof {
    /// Verifies the proof against `root` for leaf content `data`.
    pub fn verify(&self, data: &[u8], root: &Digest) -> bool {
        self.verify_hash(&leaf_hash(data), root)
    }

    /// Verifies with a precomputed leaf hash.
    pub fn verify_hash(&self, leaf: &Digest, root: &Digest) -> bool {
        if self.index >= self.size {
            return false;
        }
        let mut fn_ = self.index;
        let mut sn = self.size - 1;
        let mut acc = *leaf;
        for sibling in &self.path {
            if sn == 0 {
                return false;
            }
            if fn_ & 1 == 1 || fn_ == sn {
                acc = node_hash(sibling, &acc);
                if fn_ & 1 == 0 {
                    // Skip to the next level where fn_ is a right child or
                    // the subtree completes.
                    while fn_ & 1 == 0 && fn_ != 0 {
                        fn_ >>= 1;
                        sn >>= 1;
                    }
                    if fn_ == 0 {
                        // consumed all levels; remaining siblings invalid
                        // unless loop also ends here — handled by final check
                        fn_ = 0;
                    }
                }
            } else {
                acc = node_hash(&acc, sibling);
            }
            fn_ >>= 1;
            sn >>= 1;
        }
        sn == 0 && acc == *root
    }
}

/// A consistency proof between two tree sizes of the same log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsistencyProof {
    /// The earlier (trusted) size.
    pub old_size: u64,
    /// The later size.
    pub new_size: u64,
    /// Proof nodes per RFC 6962.
    pub path: Vec<Digest>,
}

impl ConsistencyProof {
    /// Verifies that the tree of `new_size` with root `new_root` is an
    /// append-only extension of the tree of `old_size` with root
    /// `old_root` (RFC 6962 §2.1.4.2).
    pub fn verify(&self, old_root: &Digest, new_root: &Digest) -> bool {
        let (m, n) = (self.old_size, self.new_size);
        if m == 0 || m > n {
            return false;
        }
        if m == n {
            return self.path.is_empty() && old_root == new_root;
        }
        // If old_size is a power of two, the old root itself seeds the walk.
        let mut proof: Vec<Digest> = Vec::with_capacity(self.path.len() + 1);
        if m.is_power_of_two() {
            proof.push(*old_root);
        }
        proof.extend_from_slice(&self.path);
        if proof.is_empty() {
            return false;
        }
        let mut fn_ = m - 1;
        let mut sn = n - 1;
        while fn_ & 1 == 1 {
            fn_ >>= 1;
            sn >>= 1;
        }
        let mut iter = proof.iter();
        let first = iter.next().expect("nonempty");
        let mut fr = *first;
        let mut sr = *first;
        for c in iter {
            if sn == 0 {
                return false;
            }
            if fn_ & 1 == 1 || fn_ == sn {
                fr = node_hash(c, &fr);
                sr = node_hash(c, &sr);
                while fn_ != 0 && fn_ & 1 == 0 {
                    fn_ >>= 1;
                    sn >>= 1;
                }
            } else {
                sr = node_hash(&sr, c);
            }
            fn_ >>= 1;
            sn >>= 1;
        }
        fr == *old_root && sr == *new_root && sn == 0
    }
}

/// The root of an RFC 6962 tree from its right edge alone: the "peaks" of
/// the binary decomposition of the leaf count, highest first (exactly
/// [`MerkleLog::right_edge`]), folded right-to-left. This is how recovery
/// holds a sealed segment's checkpoint record against the replayed tree —
/// O(log n) stored digests that a disk returning the wrong history cannot
/// also get right.
#[derive(Clone, Debug)]
pub struct CompactRoot {
    /// Subtree roots, heights strictly decreasing.
    peaks: Vec<Digest>,
}

impl CompactRoot {
    /// The edge of a tree of `size` leaves. `None` when the edge length
    /// does not match the size's binary decomposition — a corrupt or
    /// mismatched checkpoint.
    pub fn from_right_edge(size: u64, edge: &[Digest]) -> Option<Self> {
        (edge.len() == size.count_ones() as usize).then(|| Self {
            peaks: edge.to_vec(),
        })
    }

    /// The tree root (the empty-tree root at size 0), equal to
    /// [`MerkleLog::root`] over the same leaves.
    pub fn root(&self) -> Digest {
        let mut peaks = self.peaks.iter().rev();
        let Some(&first) = peaks.next() else {
            return empty_root();
        };
        peaks.fold(first, |acc, peak| node_hash(peak, &acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(n: usize) -> MerkleLog {
        let mut log = MerkleLog::new();
        for i in 0..n {
            log.append(format!("leaf-{i}").as_bytes());
        }
        log
    }

    /// The naive oracle: RFC 6962's recursive definition over leaf hashes,
    /// no cache, O(n) per call.
    fn root_over_hashes(hashes: &[Digest]) -> Digest {
        match hashes.len() {
            0 => empty_root(),
            1 => hashes[0],
            n => {
                let k = split_point(n);
                node_hash(
                    &root_over_hashes(&hashes[..k]),
                    &root_over_hashes(&hashes[k..]),
                )
            }
        }
    }

    /// A log sized up front holds what it is about to replay without a
    /// reallocation — every vector's capacity is its length afterwards —
    /// and is the same tree as one grown by doubling.
    #[test]
    fn reserve_exact_sizes_every_vector_once() {
        for (before, leaves) in [(0usize, 0usize), (0, 1), (0, 1000), (5, 27), (64, 64)] {
            let data: Vec<Vec<u8>> = (0..before + leaves).map(|i| vec![i as u8; i % 7]).collect();
            let mut doubled = MerkleLog::new();
            data.iter().for_each(|leaf| {
                doubled.append(leaf);
            });
            let mut sized = MerkleLog::new();
            data[..before].iter().for_each(|leaf| {
                sized.append(leaf);
            });
            let bytes = data[before..].iter().map(Vec::len).sum();
            sized.reserve_exact(leaves, bytes);
            data[before..].iter().for_each(|leaf| {
                sized.append(leaf);
            });
            assert_eq!(sized.root(), doubled.root());
            assert_eq!(sized.right_edge(), doubled.right_edge());
            if before == 0 {
                assert_eq!(sized.leaves.bytes.capacity(), sized.leaves.bytes.len());
                assert_eq!(sized.leaves.ends.capacity(), sized.len());
                for level in &sized.levels {
                    assert_eq!(level.capacity(), level.len());
                }
            }
        }
    }

    #[test]
    fn empty_and_singleton_roots() {
        let log = MerkleLog::new();
        assert_eq!(log.root(), empty_root());
        let mut log = MerkleLog::new();
        log.append(b"only");
        assert_eq!(log.root(), leaf_hash(b"only"));
    }

    #[test]
    fn two_leaf_root_is_node_hash() {
        let mut log = MerkleLog::new();
        log.append(b"a");
        log.append(b"b");
        assert_eq!(log.root(), node_hash(&leaf_hash(b"a"), &leaf_hash(b"b")));
    }

    #[test]
    fn three_leaf_root_structure() {
        // RFC 6962: MTH({a,b,c}) = H(0x01 || MTH({a,b}) || MTH({c}))
        let mut log = MerkleLog::new();
        log.append(b"a");
        log.append(b"b");
        log.append(b"c");
        let expect = node_hash(
            &node_hash(&leaf_hash(b"a"), &leaf_hash(b"b")),
            &leaf_hash(b"c"),
        );
        assert_eq!(log.root(), expect);
    }

    #[test]
    fn inclusion_proofs_verify() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
            let log = build(n);
            let root = log.root();
            for i in 0..n {
                let proof = log.prove_inclusion(i, n).unwrap();
                assert!(
                    proof.verify(format!("leaf-{i}").as_bytes(), &root),
                    "n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn inclusion_proof_rejects_wrong_leaf() {
        let log = build(10);
        let root = log.root();
        let proof = log.prove_inclusion(4, 10).unwrap();
        assert!(!proof.verify(b"leaf-5", &root));
        assert!(!proof.verify(b"evil", &root));
    }

    #[test]
    fn inclusion_proof_rejects_wrong_root() {
        let log = build(10);
        let proof = log.prove_inclusion(4, 10).unwrap();
        let mut bad_root = log.root();
        bad_root[0] ^= 1;
        assert!(!proof.verify(b"leaf-4", &bad_root));
    }

    #[test]
    fn inclusion_proof_rejects_tampered_path() {
        let log = build(16);
        let root = log.root();
        let mut proof = log.prove_inclusion(7, 16).unwrap();
        proof.path[1][3] ^= 0xff;
        assert!(!proof.verify(b"leaf-7", &root));
    }

    #[test]
    fn inclusion_at_historical_sizes() {
        let log = build(20);
        for size in [1usize, 3, 8, 13, 20] {
            let root = log.root_of_prefix(size);
            for i in 0..size {
                let proof = log.prove_inclusion(i, size).unwrap();
                assert!(proof.verify(format!("leaf-{i}").as_bytes(), &root));
            }
        }
    }

    #[test]
    fn consistency_proofs_verify() {
        let log = build(33);
        for old in [1usize, 2, 3, 4, 7, 8, 9, 16, 32, 33] {
            for new in [old, old + 1, 16, 32, 33] {
                if new < old || new > 33 {
                    continue;
                }
                let proof = log.prove_consistency(old, new).unwrap();
                let old_root = log.root_of_prefix(old);
                let new_root = log.root_of_prefix(new);
                assert!(
                    proof.verify(&old_root, &new_root),
                    "consistency {old}->{new}"
                );
            }
        }
    }

    #[test]
    fn consistency_rejects_forked_history() {
        // Build two logs sharing a 5-leaf prefix, then diverge.
        let mut honest = build(5);
        let mut forked = build(5);
        for i in 5..12 {
            honest.append(format!("leaf-{i}").as_bytes());
            forked.append(format!("evil-{i}").as_bytes());
        }
        let proof = forked.prove_consistency(5, 12).unwrap();
        let old_root = honest.root_of_prefix(5);
        // The fork's proof verifies against its own roots...
        assert!(proof.verify(&old_root, &forked.root()));
        // ...but cannot link the honest old root to the honest new root.
        assert!(!proof.verify(&old_root, &honest.root()));
        // And an honest proof cannot validate the forked head.
        let honest_proof = honest.prove_consistency(5, 12).unwrap();
        assert!(!honest_proof.verify(&old_root, &forked.root()));
    }

    #[test]
    fn consistency_rejects_rewritten_prefix() {
        let log = build(16);
        let mut rewritten = MerkleLog::new();
        rewritten.append(b"tampered-0");
        for i in 1..16 {
            rewritten.append(format!("leaf-{i}").as_bytes());
        }
        let proof = rewritten.prove_consistency(8, 16).unwrap();
        // Proof for the rewritten log cannot connect the honest old root.
        assert!(!proof.verify(&log.root_of_prefix(8), &rewritten.root()));
    }

    #[test]
    fn equal_size_consistency() {
        let log = build(6);
        let proof = log.prove_consistency(6, 6).unwrap();
        assert!(proof.path.is_empty());
        assert!(proof.verify(&log.root(), &log.root()));
        let mut other = log.root();
        other[5] ^= 3;
        assert!(!proof.verify(&log.root(), &other));
    }

    #[test]
    fn cached_roots_match_naive_recompute() {
        // The level cache must be an invisible optimisation: every root and
        // prefix root equals the from-scratch fold over the leaf hashes.
        let mut log = MerkleLog::new();
        for i in 0..70usize {
            log.append(format!("leaf-{i}").as_bytes());
            let naive: Vec<Digest> = (0..=i)
                .map(|j| leaf_hash(format!("leaf-{j}").as_bytes()))
                .collect();
            assert_eq!(log.root(), root_over_hashes(&naive), "size {}", i + 1);
            if i.is_multiple_of(13) {
                for size in [1, i.div_ceil(2), i + 1] {
                    assert_eq!(
                        log.root_of_prefix(size),
                        root_over_hashes(&naive[..size]),
                        "prefix {size} of {}",
                        i + 1
                    );
                }
            }
        }
    }

    #[test]
    fn root_over_hashes_shapes() {
        // The oracle itself, against the node hash written out by hand.
        let a = [1u8; 32];
        let b = [2u8; 32];
        let c = [3u8; 32];
        assert_eq!(root_over_hashes(&[a]), a);
        assert_eq!(root_over_hashes(&[a, b]), node_hash(&a, &b));
        assert_eq!(
            root_over_hashes(&[a, b, c]),
            node_hash(&node_hash(&a, &b), &c)
        );
    }

    #[test]
    fn invalid_proof_requests() {
        let log = build(4);
        assert!(log.prove_inclusion(4, 4).is_none());
        assert!(log.prove_inclusion(0, 5).is_none());
        assert!(log.prove_consistency(0, 4).is_none());
        assert!(log.prove_consistency(3, 5).is_none());
    }

    #[test]
    fn right_edge_matches_binary_decomposition() {
        for n in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 13, 31, 32, 33, 70] {
            let log = build(n);
            let edge = log.right_edge();
            assert_eq!(edge.len(), n.count_ones() as usize, "size {n}");
            // Each peak is the root of its aligned complete subtree.
            let mut start = 0usize;
            for (peak, k) in edge
                .iter()
                .zip((0..usize::BITS).rev().filter(|k| n & (1 << k) != 0))
            {
                assert_eq!(*peak, log.range_root(start, 1 << k), "size {n} height {k}");
                start += 1 << k;
            }
        }
    }

    #[test]
    fn leaves_from_borrows_the_suffix() {
        let log = build(5);
        assert_eq!(log.leaves_from(0, usize::MAX).unwrap().count(), 5);
        assert_eq!(
            log.leaves_from(3, usize::MAX).unwrap().collect::<Vec<_>>(),
            vec![b"leaf-3".as_slice(), b"leaf-4"]
        );
        assert_eq!(log.leaves_from(5, usize::MAX).unwrap().count(), 0);
        assert!(log.leaves_from(6, usize::MAX).is_none());
        // A page is what fits the budget (six bytes a leaf here), and at
        // least one leaf however small the budget.
        assert_eq!(log.leaves_from(0, 12).unwrap().count(), 2);
        assert_eq!(log.leaves_from(1, 17).unwrap().count(), 2);
        assert_eq!(log.leaves_from(2, 0).unwrap().count(), 1);
        assert_eq!(log.leaves_from(4, 100).unwrap().count(), 1);
        assert_eq!(log.leaves_from(5, 0).unwrap().count(), 0);
    }

    #[test]
    fn compact_root_seeds_from_right_edge() {
        let empty = CompactRoot::from_right_edge(0, &[]).unwrap();
        assert_eq!(empty.root(), empty_root());
        for n in 1..=70usize {
            let log = build(n);
            let seeded = CompactRoot::from_right_edge(n as u64, &log.right_edge()).unwrap();
            assert_eq!(seeded.root(), log.root(), "seeded at {n}");
        }
        // A mismatched edge is rejected, not mis-folded.
        let log = build(6);
        assert!(CompactRoot::from_right_edge(7, &log.right_edge()).is_none());
        assert!(CompactRoot::from_right_edge(6, &log.right_edge()[1..]).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn inclusion_round_trips(n in 1usize..64, seed in any::<u64>()) {
            let log = build(n);
            let root = log.root();
            let i = (seed as usize) % n;
            let proof = log.prove_inclusion(i, n).unwrap();
            let leaf = format!("leaf-{i}");
            prop_assert!(proof.verify(leaf.as_bytes(), &root));
        }

        #[test]
        fn consistency_round_trips(old in 1usize..48, extra in 0usize..16) {
            let new = old + extra;
            let log = build(new);
            let proof = log.prove_consistency(old, new).unwrap();
            prop_assert!(proof.verify(
                &log.root_of_prefix(old),
                &log.root_of_prefix(new)
            ));
        }

        #[test]
        fn consistency_catches_mutation(old in 2usize..32, extra in 1usize..16) {
            let new = old + extra;
            let log = build(new);
            let mut proof = log.prove_consistency(old, new).unwrap();
            if !proof.path.is_empty() {
                proof.path[0][0] ^= 1;
                prop_assert!(!proof.verify(
                    &log.root_of_prefix(old),
                    &log.root_of_prefix(new)
                ));
            }
        }
    }
}
