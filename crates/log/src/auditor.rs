//! Client/third-party auditing across trust domains.
//!
//! §3.3: "the client can check that the digests match across all n trust
//! domains, ensuring that if at least one trust domain is honest … the
//! client will receive a digest of the correct code."
//!
//! The auditor tracks the latest verified checkpoint per domain, verifies
//! that each new checkpoint extends the previous one (consistency), verifies
//! signatures, and cross-checks digest histories across domains. Outcomes
//! are explicit: [`AuditOutcome::Consistent`], or a [`Misbehavior`] value
//! carrying the strongest available evidence.
//!
//! A domain's answer reaches the auditor one way: as a [`CheckpointBundle`]
//! ([`Auditor::observe_bundle`]), one checkpoint or many with the
//! consistency steps linking them. It costs one round-trip and — thanks to
//! the per-domain [`VerifiedPrefixCache`] — never re-verifies proofs at or
//! below the already-verified prefix.
//!
//! Every ingest path, relayed heads ([`Auditor::ingest_gossip`]) included,
//! verifies a signed checkpoint **once**: a checkpoint byte-identical —
//! body and signature — to one this auditor already verified under the
//! domain's pinned key costs a comparison, not a Schnorr verification.
//! Anything else (same body under other signature bytes included) is
//! unknown and verified in full — under the domain's pinned key as a
//! [`KeptKey`], so that once a few signatures have been verified under it
//! the auditor keeps a spaced table of that key (≈ 53 KB a domain, built
//! once) and every later verification for the domain costs a third of the
//! doublings.
//!
//! The cross-domain check ([`Auditor::cross_check`]) is incremental: each
//! checkpoint is judged against the other domains' at its size when it is
//! remembered, so an audit costs the same however many releases the
//! auditor has seen.
//!
//! What an auditor remembers of a domain is bounded: its latest verified
//! checkpoint, the checkpoints at the [`WINDOW_BELOW`] sizes ending at
//! that one's, and at most [`WINDOW_ABOVE`] relayed heads above it. It is
//! a cache of heads verified under the domain's pinned key, never an
//! authority: a head that has left it is simply unknown again, verified
//! in full if it comes back. The window is anchored at the latest
//! checkpoint, which a consistency proof backs, so heads a domain signs
//! itself cannot push its verified history out; what detection loses is
//! in GOSSIP.md's blind spots.

use crate::batch::{CheckpointBundle, VerifiedPrefixCache, MAX_BUNDLE_CHECKPOINTS};
use crate::checkpoint::{EquivocationProof, SignedCheckpoint};
use distrust_crypto::schnorr::{KeptKey, VerifyingKey};
use distrust_crypto::sha256::Digest;
use std::collections::{BTreeMap, BTreeSet};

/// Evidence of misbehavior discovered during an audit.
#[derive(Clone, Debug)]
pub enum Misbehavior {
    /// A domain signed two conflicting views of the same log prefix —
    /// transferable cryptographic proof against that domain.
    Equivocation {
        /// Index of the offending domain.
        domain: u32,
        /// The proof object third parties can verify.
        proof: EquivocationProof,
    },
    /// A checkpoint carried an invalid signature.
    BadSignature {
        /// Index of the offending domain.
        domain: u32,
        /// The rejected checkpoint.
        checkpoint: SignedCheckpoint,
    },
    /// A new checkpoint failed the consistency proof against the trusted
    /// prior checkpoint (history rewrite or truncation).
    InconsistentGrowth {
        /// Index of the offending domain.
        domain: u32,
        /// The previously trusted checkpoint.
        trusted: SignedCheckpoint,
        /// The checkpoint that failed to extend it.
        offered: SignedCheckpoint,
    },
    /// A checkpoint went backwards (smaller size than already verified).
    Rollback {
        /// Index of the offending domain.
        domain: u32,
        /// Previously verified size.
        trusted_size: u64,
        /// Offered (smaller) size.
        offered_size: u64,
    },
    /// Domains disagree about the digest history. Not attributable to a
    /// single domain without more evidence, but proves at least one of the
    /// quoted domains is lying (the paper's detection guarantee).
    CrossDomainDivergence {
        /// The conflicting signed checkpoints, by domain index.
        views: Vec<(u32, SignedCheckpoint)>,
    },
    /// A batched-audit bundle was structurally invalid (empty, descending
    /// sizes, step/checkpoint mismatch). Not transferable evidence by
    /// itself, but a served bundle a correct domain would never produce.
    MalformedBundle {
        /// Index of the offending domain.
        domain: u32,
        /// What was wrong with the bundle.
        reason: String,
    },
}

/// Result of feeding an audit round.
#[derive(Clone, Debug)]
pub enum AuditOutcome {
    /// Everything verified and all domains agree.
    Consistent,
    /// Evidence of misbehavior (strongest form available).
    Misbehavior(Box<Misbehavior>),
}

impl AuditOutcome {
    /// True when the audit found no problems.
    pub fn is_consistent(&self) -> bool {
        matches!(self, AuditOutcome::Consistent)
    }
}

/// Sizes at or below a domain's latest verified checkpoint whose
/// checkpoints an auditor keeps, that one's included: two bundles' worth,
/// so every checkpoint a domain's next answer can carry at or below the
/// size the auditor asks from is still known.
pub const WINDOW_BELOW: u64 = 2 * MAX_BUNDLE_CHECKPOINTS as u64;

/// Relayed heads above a domain's latest verified checkpoint an auditor
/// keeps: the newest, by size. An auditor that has verified no checkpoint
/// of the domain itself (a witness, a mesh node) keeps only these.
pub const WINDOW_ABOVE: usize = MAX_BUNDLE_CHECKPOINTS;

/// A map from log size to `V`, kept as a `Vec` sorted by size.
///
/// What an auditor remembers per domain — one entry per release, inside
/// a window that slides with the latest — arrives in size order (an
/// append) and leaves from the front, and a hash table's scattered
/// buckets keep its whole doubled capacity resident where a `Vec` touches
/// only what it holds. It grows by [`BY_SIZE_STEP`] entries at a time
/// rather than doubling: a doubled `Vec` of 168-byte entries sits at up
/// to twice its contents.
#[derive(Debug, PartialEq)]
struct BySize<V>(Vec<(u64, V)>);

/// Entries a full [`BySize`] makes room for (≈ 5 KiB of checkpoints): the
/// most spare capacity it ever carries, against one reallocation per 32
/// entries until the window is full, and none after.
const BY_SIZE_STEP: usize = 32;

impl<V> BySize<V> {
    fn position(&self, size: u64) -> Result<usize, usize> {
        self.0.binary_search_by_key(&size, |(s, _)| *s)
    }

    fn get(&self, size: &u64) -> Option<&V> {
        let at = self.position(*size).ok()?;
        self.0.get(at).map(|(_, value)| value)
    }

    fn insert(&mut self, size: u64, value: V) {
        match self.position(size) {
            Ok(at) => self.0[at].1 = value,
            Err(at) => {
                if self.0.len() == self.0.capacity() {
                    self.0.reserve_exact(BY_SIZE_STEP);
                }
                self.0.insert(at, (size, value));
            }
        }
    }
}

/// Per-domain audit state: the log public key and the latest verified
/// checkpoint with the window of checkpoints around it (for equivocation
/// hunting).
struct DomainState {
    /// The domain's pinned log key, with its table once it has one.
    key: KeptKey,
    latest: Option<SignedCheckpoint>,
    /// The correctly signed checkpoints seen inside the window anchored at
    /// `latest` (see [`WINDOW_BELOW`]), by size — equivocation is
    /// detected by finding two different heads at one size. Only ever
    /// holds checkpoints that passed [`SignedCheckpoint::verify`] under
    /// `key`, which is what [`Self::already_verified`] rests on.
    seen: BySize<SignedCheckpoint>,
    /// Highest fully verified prefix plus performed/skipped verification
    /// counters — what makes batched audits cheap on repeat.
    cache: VerifiedPrefixCache,
    /// Relayed heads ([`Auditor::ingest_gossip`]) whose signature was
    /// checked, valid or not.
    relayed_verified: u64,
    /// Relayed heads recognised as already verified and not checked again.
    relayed_skipped: u64,
}

impl DomainState {
    /// The one "verify a signed head once" rule, under every ingest path:
    /// `cp` is byte-identical — body **and** signature — to a checkpoint
    /// this auditor already verified under the domain's key, so verifying
    /// it again could only repeat the answer. The same body under
    /// different signature bytes is not known.
    fn already_verified(&self, cp: &SignedCheckpoint) -> bool {
        self.seen.get(&cp.body.size) == Some(cp)
    }

    /// The positions in `seen` of the entries outside the window anchored
    /// at `latest` (see [`WINDOW_BELOW`], [`WINDOW_ABOVE`]): those below
    /// it, then the oldest of those above it beyond the newest
    /// [`WINDOW_ABOVE`]. Without a latest, every entry is above it.
    fn outside_window(&self) -> [std::ops::Range<usize>; 2] {
        let seen = &self.seen.0;
        let latest = self.latest.as_ref().map(|cp| cp.body.size);
        let floor = latest.and_then(|l| l.checked_sub(WINDOW_BELOW));
        let below = floor.map_or(0, |f| seen.partition_point(|(s, _)| *s <= f));
        let above = latest.map_or(0, |l| seen.partition_point(|(s, _)| *s <= l));
        let excess = (seen.len() - above).saturating_sub(WINDOW_ABOVE);
        [0..below, above..above + excess]
    }

    /// The checkpoint-level prechecks of [`Auditor::observe_bundle`], in
    /// order: signature verification skipping checkpoints byte-identical
    /// to already-verified ones; equivocation inside the batch (two
    /// correctly signed heads for one size are transferable proof);
    /// equivocation against everything previously seen; structural
    /// ascending sizes; and rollback below the verified prefix. Returns
    /// the first misbehavior found, `None` when clean.
    fn precheck_checkpoint_batch(
        &mut self,
        domain: u32,
        cps: &[SignedCheckpoint],
    ) -> Option<Misbehavior> {
        // 1. Signatures, skipping checkpoints byte-identical to ones this
        //    auditor already verified (the common steady-state case); the
        //    rest in one call under the domain's key, counted up to the
        //    first that fails.
        let known: Vec<bool> = cps.iter().map(|cp| self.already_verified(cp)).collect();
        let unknown: Vec<&SignedCheckpoint> = cps
            .iter()
            .zip(&known)
            .filter_map(|(cp, known)| (!known).then_some(cp))
            .collect();
        let mut until_bad = SignedCheckpoint::verify_all_kept(&unknown, &mut self.key).err();
        for (cp, known) in cps.iter().zip(known) {
            if known {
                self.cache.note_skipped();
            } else if until_bad == Some(0) {
                return Some(Misbehavior::BadSignature {
                    domain,
                    checkpoint: cp.clone(),
                });
            } else {
                self.cache.note_signature();
                until_bad = until_bad.map(|n| n - 1);
            }
        }
        // 2. Equivocation inside the batch, in one pass: per size and log
        //    id, its first checkpoint and the first later one whose head
        //    differs. Of those pairs, the one whose first checkpoint comes
        //    first in the batch is reported — the first checkpoint that
        //    has a conflicting later one.
        let mut groups = BTreeMap::new();
        for (at, cp) in cps.iter().enumerate() {
            let key = (cp.body.size, &cp.body.log_id);
            let (_, first, conflict) = groups.entry(key).or_insert((at, cp, None));
            if conflict.is_none() && first.body.head != cp.body.head {
                *conflict = Some(cp);
            }
        }
        let conflicts = groups
            .into_values()
            .filter_map(|(at, a, b)| Some((at, a, b?)));
        if let Some((_, a, b)) = conflicts.min_by_key(|(at, ..)| *at) {
            return Some(Misbehavior::Equivocation {
                domain,
                proof: EquivocationProof {
                    a: a.clone(),
                    b: b.clone(),
                },
            });
        }
        // 3. Equivocation against history.
        for cp in cps {
            if let Some(prior) = self.seen.get(&cp.body.size) {
                if prior.body.head != cp.body.head && prior.body.log_id == cp.body.log_id {
                    return Some(Misbehavior::Equivocation {
                        domain,
                        proof: EquivocationProof {
                            a: prior.clone(),
                            b: cp.clone(),
                        },
                    });
                }
            }
        }
        // 4. Structure: ascending sizes. Same-size entries reaching this
        //    point agree on the head (conflicts were flagged above) and
        //    are treated as duplicates by the chain walks.
        for w in cps.windows(2) {
            if w[1].body.size < w[0].body.size {
                return Some(Misbehavior::MalformedBundle {
                    domain,
                    reason: "checkpoint sizes descending".into(),
                });
            }
        }
        // 5. Rollback: no checkpoint may be older than the verified
        //    prefix — a served checkpoint going backwards (a stale cached
        //    bundle, or a stale entry smuggled into an otherwise-fresh
        //    bundle).
        if let Some(trusted) = &self.latest {
            for cp in cps {
                if cp.body.size < trusted.body.size {
                    return Some(Misbehavior::Rollback {
                        domain,
                        trusted_size: trusted.body.size,
                        offered_size: cp.body.size,
                    });
                }
            }
        }
        None
    }
}

/// Every domain's checkpoint at one size, by domain index.
type Views = Vec<(u32, SignedCheckpoint)>;

/// A stateful cross-domain log auditor.
pub struct Auditor {
    domains: Vec<DomainState>,
    /// Sizes at which two domains' remembered checkpoints were found to
    /// disagree about the head, judged as each was remembered. A size
    /// stays here until [`Auditor::cross_check`] finds it agreeing: an
    /// entry of `seen` can be overwritten (a checkpoint under another
    /// `log_id` is no equivocation), so a verdict can change afterwards.
    divergent: BTreeSet<u64>,
    /// The smallest divergence whose checkpoints left a window while they
    /// still disagreed: judged as they left, and reported by every
    /// [`Auditor::cross_check`] from then on, as it would have been had
    /// they stayed (nothing can overwrite them any more).
    settled: Option<(u64, Views)>,
}

impl Auditor {
    /// Creates an auditor for `keys[i]` = domain `i`'s log key.
    pub fn new(keys: Vec<VerifyingKey>) -> Self {
        Self {
            domains: keys
                .into_iter()
                .map(|key| DomainState {
                    key: KeptKey::new(key),
                    latest: None,
                    seen: BySize(Vec::new()),
                    cache: VerifiedPrefixCache::new(),
                    relayed_verified: 0,
                    relayed_skipped: 0,
                })
                .collect(),
            divergent: BTreeSet::new(),
            settled: None,
        }
    }

    /// Every domain's remembered checkpoint at `size`.
    fn views_at(&self, size: u64) -> Views {
        let at = self.domains.iter().map(|d| d.seen.get(&size));
        at.enumerate()
            .filter_map(|(i, cp)| Some((i as u32, cp?.clone())))
            .collect()
    }

    /// Puts `checkpoint` into `domain`'s `seen` when it falls inside the
    /// window, forgets what has left the window, and judges the new
    /// checkpoint's size against every other domain's checkpoint there —
    /// the one way into `seen`, so that [`Self::cross_check`] never has
    /// to walk it. A divergent size that leaves the window is judged on
    /// its way out, and kept as settled if it still diverges.
    fn remember(&mut self, domain: usize, checkpoint: SignedCheckpoint) {
        let (size, head) = (checkpoint.body.size, checkpoint.body.head);
        let Some(state) = self.domains.get_mut(domain) else {
            return;
        };
        // lint:allow(trust-boundary): every caller has verified `checkpoint` under the domain's pinned key first (`observe_bundle`, and `keep_relayed` behind `ingest_gossip_heads`)
        state.seen.insert(size, checkpoint);
        let outside = state.outside_window();
        let leaving: Vec<u64> = outside
            .iter()
            .flat_map(|range| &state.seen.0[range.clone()])
            .map(|(s, _)| *s)
            .filter(|s| self.divergent.contains(s))
            .collect();
        for left in leaving {
            let views = self.views_at(left);
            let disagree = views
                .iter()
                .any(|(_, cp)| cp.body.head != views[0].1.body.head);
            if disagree && self.settled.as_ref().is_none_or(|(s, _)| left < *s) {
                self.settled = Some((left, views));
            }
        }
        let seen = &mut self.domains[domain].seen;
        let [below, above] = outside;
        seen.0.drain(above);
        seen.0.drain(below);
        if seen.get(&size).is_none() {
            // Outside the window itself: verified, and forgotten.
            return;
        }
        let disagrees = self
            .domains
            .iter()
            .filter_map(|d| d.seen.get(&size))
            .any(|other| other.body.head != head);
        if disagrees {
            self.divergent.insert(size);
        }
    }

    /// What a relayed head that verified can still say: the equivocation
    /// proof when this auditor holds another head for its size, otherwise
    /// nothing — it is remembered, to be compared against from now on, if
    /// it falls inside the window.
    fn keep_relayed(&mut self, domain: u32, checkpoint: &SignedCheckpoint) -> AuditOutcome {
        let state = self.domains.get(domain as usize);
        match state.map(|d| d.seen.get(&checkpoint.body.size)) {
            Some(Some(prior))
                if prior.body.head != checkpoint.body.head
                    && prior.body.log_id == checkpoint.body.log_id =>
            {
                let proof = EquivocationProof {
                    a: prior.clone(),
                    b: checkpoint.clone(),
                };
                AuditOutcome::Misbehavior(Box::new(Misbehavior::Equivocation { domain, proof }))
            }
            Some(Some(_)) => AuditOutcome::Consistent,
            Some(None) => {
                self.remember(domain as usize, checkpoint.clone());
                AuditOutcome::Consistent
            }
            // No key is pinned for `domain`, so nothing verified under it.
            None => AuditOutcome::Misbehavior(Box::new(Misbehavior::BadSignature {
                domain,
                checkpoint: checkpoint.clone(),
            })),
        }
    }

    /// Number of domains tracked.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// The latest verified checkpoint for a domain.
    pub fn latest(&self, domain: u32) -> Option<&SignedCheckpoint> {
        self.domains.get(domain as usize)?.latest.as_ref()
    }

    /// Ingests a whole [`CheckpointBundle`] from `domain` — the one way a
    /// domain's answer reaches this auditor's state, whether it carries
    /// one checkpoint or many — without re-verifying anything at or below
    /// the already-verified prefix (see [`VerifiedPrefixCache`]).
    ///
    /// Checks, in order: signatures on every checkpoint not already
    /// verified byte-for-byte; equivocation both *inside* the bundle and
    /// against all previously seen checkpoints (yielding a transferable
    /// [`Misbehavior::Equivocation`] proof); structural validity
    /// (ascending sizes); rollback of any checkpoint below the trusted
    /// size; and one consistency-proof verification per size transition
    /// above the verified prefix, whose step must link exactly the two
    /// sizes it joins.
    pub fn observe_bundle(&mut self, domain: u32, bundle: &CheckpointBundle) -> AuditOutcome {
        let misb = |m: Misbehavior| AuditOutcome::Misbehavior(Box::new(m));
        let Some(state) = self.domains.get_mut(domain as usize) else {
            return misb(Misbehavior::MalformedBundle {
                domain,
                reason: "unknown domain index".into(),
            });
        };
        let cps = &bundle.checkpoints;
        if cps.is_empty() {
            return misb(Misbehavior::MalformedBundle {
                domain,
                reason: "bundle carries no checkpoints".into(),
            });
        }
        // Before any of them costs a verification: decoding refuses such a
        // bundle, this is the same refusal for one built in process.
        if cps.len() > MAX_BUNDLE_CHECKPOINTS {
            return misb(Misbehavior::MalformedBundle {
                domain,
                reason: format!("more than {MAX_BUNDLE_CHECKPOINTS} checkpoints"),
            });
        }
        // 1–5. The checkpoint-level prechecks: signatures (with the
        //      byte-identical skip), equivocation inside the bundle and
        //      against history, ascending sizes, and rollback below the
        //      verified prefix.
        if let Some(m) = state.precheck_checkpoint_batch(domain, cps) {
            return misb(m);
        }
        let last = cps.last().expect("non-empty");
        // 6. Chain verification above the verified prefix: one consistency
        //    step per size transition, in order.
        let mut cur: Option<SignedCheckpoint> = state.latest.clone();
        let mut next_step = 0usize;
        for cp in cps {
            let Some(prev) = &cur else {
                // First observation ever: nothing to link from.
                cur = Some(cp.clone());
                continue;
            };
            if cp.body.size == prev.body.size {
                // Exactly the verified prefix (the rollback sweep above
                // excluded anything older): the head was already
                // cross-checked through the equivocation hunt; never
                // re-verify.
                state.cache.note_skipped();
                continue;
            }
            // The empty tree is a prefix of every tree: growth from it
            // needs no step (RFC 6962 defines none from size 0).
            if prev.body.size > 0 {
                let expanded = bundle.proof.step(next_step);
                next_step += 1;
                let ok = match expanded {
                    Some(p) => {
                        state.cache.note_consistency();
                        p.old_size == prev.body.size
                            && p.new_size == cp.body.size
                            && p.verify(&prev.body.head, &cp.body.head)
                    }
                    None => false,
                };
                if !ok {
                    return misb(Misbehavior::InconsistentGrowth {
                        domain,
                        trusted: prev.clone(),
                        offered: cp.clone(),
                    });
                }
            }
            cur = Some(cp.clone());
        }
        // 7. Commit.
        state.cache.record(last.body.size, last.body.head);
        state.latest = Some(last.clone());
        for cp in cps {
            self.remember(domain as usize, cp.clone());
        }
        AuditOutcome::Consistent
    }

    /// The verified-prefix cache for a domain: highest verified size and
    /// the performed/skipped verification counters.
    pub fn prefix_cache(&self, domain: u32) -> Option<&VerifiedPrefixCache> {
        self.domains.get(domain as usize).map(|d| &d.cache)
    }

    /// Ingests a checkpoint relayed by *another client* (gossip).
    ///
    /// A malicious domain can mount a split-view attack: show client A one
    /// history and client B another, each internally consistent. Neither
    /// client alone can detect it — but the two signed checkpoints
    /// together are an equivocation proof. Exchanging checkpoints
    /// out-of-band (exactly how Certificate Transparency closes the same
    /// gap) and feeding them here turns the split view into transferable
    /// evidence.
    ///
    /// Unlike [`Auditor::observe_bundle`], gossip makes no freshness or growth
    /// demands: the relaying client may legitimately be behind, so only
    /// signature validity and same-size-different-head conflicts matter.
    ///
    /// A head this auditor has already verified byte for byte — what a
    /// bulletin board relays on every audit after the first — costs a
    /// comparison ([`Auditor::relayed_skipped`]); an unknown one is
    /// verified once ([`Auditor::relayed_verified`]). A head that fails
    /// verification says nothing about the domain — whoever relayed it may
    /// have made it up — so `BadSignature` here names the head, and
    /// callers relaying for strangers drop it as noise.
    pub fn ingest_gossip(&mut self, domain: u32, checkpoint: SignedCheckpoint) -> AuditOutcome {
        let mut outcomes = self.ingest_gossip_heads(&[(domain, &checkpoint)]);
        outcomes.pop().expect("one outcome per head")
    }

    /// [`Self::ingest_gossip`] for every head of an envelope at once, one
    /// outcome per head in the order given and the same outcome, state and
    /// counters as ingesting them one by one — but the heads of one domain
    /// this auditor has not verified before go through one
    /// [`SignedCheckpoint::verify_all`] under that domain's key. A board
    /// poisoned with forged heads gets no discount: from the first head
    /// that fails, the rest of that domain's are checked one at a time.
    pub fn ingest_gossip_heads(&mut self, heads: &[(u32, &SignedCheckpoint)]) -> Vec<AuditOutcome> {
        // Per head: `None` when known byte for byte, else whether it
        // verifies. An unknown domain index has no key to verify under.
        let mut verified: Vec<Option<bool>> = heads.iter().map(|_| Some(false)).collect();
        for (domain, state) in self.domains.iter_mut().enumerate() {
            let mut unknown: Vec<(&SignedCheckpoint, &mut Option<bool>)> = Vec::new();
            for (&(of, checkpoint), verdict) in heads.iter().zip(&mut verified) {
                if of as usize != domain {
                    continue;
                }
                if state.already_verified(checkpoint) {
                    state.relayed_skipped += 1;
                    *verdict = None;
                } else {
                    state.relayed_verified += 1;
                    unknown.push((checkpoint, verdict));
                }
            }
            let cps: Vec<&SignedCheckpoint> = unknown.iter().map(|(cp, _)| *cp).collect();
            let first_bad = SignedCheckpoint::verify_all_kept(&cps, &mut state.key).err();
            for (i, (checkpoint, verdict)) in unknown.into_iter().enumerate() {
                *verdict = Some(match first_bad {
                    Some(bad) if i == bad => false,
                    Some(bad) if i > bad => {
                        SignedCheckpoint::verify_all_kept(&[checkpoint], &mut state.key).is_ok()
                    }
                    _ => true,
                });
            }
        }
        let judged = heads.iter().zip(verified);
        judged
            .map(|(&(domain, checkpoint), verified)| match verified {
                None => AuditOutcome::Consistent,
                Some(true) => self.keep_relayed(domain, checkpoint),
                Some(false) => AuditOutcome::Misbehavior(Box::new(Misbehavior::BadSignature {
                    domain,
                    checkpoint: checkpoint.clone(),
                })),
            })
            .collect()
    }

    /// Signature checks performed on relayed heads
    /// ([`Auditor::ingest_gossip`]), summed over domains. Kept apart from
    /// the [`VerifiedPrefixCache`] counters, which describe what the
    /// domains' own audit answers cost.
    pub fn relayed_verified(&self) -> u64 {
        self.domains.iter().map(|d| d.relayed_verified).sum()
    }

    /// Relayed heads recognised as already verified and not checked again,
    /// summed over domains.
    pub fn relayed_skipped(&self) -> u64 {
        self.domains.iter().map(|d| d.relayed_skipped).sum()
    }

    /// Exports the latest verified checkpoints for gossiping to peers.
    pub fn gossip_payload(&self) -> Vec<(u32, SignedCheckpoint)> {
        self.domains
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.latest.clone().map(|cp| (i as u32, cp)))
            .collect()
    }

    /// Cross-checks the verified checkpoints across all domains. The paper
    /// requires all `n` domains to report the *same* digest history; any
    /// divergence is flagged.
    ///
    /// Comparison is grouped by checkpoint size: every checkpoint each
    /// domain has presented (relayed heads included) is bucketed by its
    /// announced log size, and all checkpoints within a size bucket must
    /// share the same head. Domains lagging behind (no checkpoint at a
    /// given size) are not flagged — being behind is consistent;
    /// disagreeing at the same size is not. The smallest divergent size is
    /// reported, with every domain's checkpoint at it. Nothing is checked
    /// until two domains have a verified latest checkpoint.
    ///
    /// Each checkpoint was judged as it was remembered, so this re-judges
    /// only the sizes found divergent then: its cost does not grow with
    /// the releases the auditor has seen. A divergence whose checkpoints
    /// left the window still disagreeing is reported from what they were
    /// as they left.
    pub fn cross_check(&mut self) -> AuditOutcome {
        if self.domains.iter().filter(|d| d.latest.is_some()).count() < 2 {
            return AuditOutcome::Consistent;
        }
        let domains = &self.domains;
        self.divergent.retain(|&size| {
            let mut heads = domains.iter().filter_map(|d| d.seen.get(&size));
            let first = heads.next().map(|cp| cp.body.head);
            heads.any(|cp| Some(cp.body.head) != first)
        });
        let live = self.divergent.first().copied();
        let views = match (&self.settled, live) {
            (Some((settled, views)), live) if live.is_none_or(|l| *settled < l) => views.clone(),
            (_, Some(size)) => self.views_at(size),
            (_, None) => return AuditOutcome::Consistent,
        };
        AuditOutcome::Misbehavior(Box::new(Misbehavior::CrossDomainDivergence { views }))
    }

    /// Domains whose pinned key's table this auditor has built (see
    /// [`KeptKey`]): a one-off ≈ 53 KB each, never per release.
    pub fn kept_tables(&self) -> usize {
        self.domains.iter().filter(|d| d.key.has_table()).count()
    }

    /// Checkpoints this auditor remembers, summed over domains: at most
    /// [`WINDOW_BELOW`] + [`WINDOW_ABOVE`] a domain, however many releases
    /// or relayed heads it has met.
    pub fn remembered(&self) -> usize {
        self.domains.iter().map(|d| d.seen.0.len()).sum()
    }
}

/// Convenience: checks that all domains report exactly the same digest for
/// the current code — the simple "do all the attested measurements match"
/// check from §4.1 (deployment without updates).
pub fn digests_match(digests: &[Digest]) -> bool {
    match digests.split_first() {
        None => true,
        Some((first, rest)) => rest.iter().all(|d| d == first),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::batch::ProofBundle;
    use crate::checkpoint::{log_id, CheckpointBody};
    use crate::merkle::{ConsistencyProof, MerkleLog};
    use distrust_crypto::schnorr::SigningKey;

    struct Domain {
        sk: SigningKey,
        log: MerkleLog,
        lid: [u8; 32],
        time: u64,
    }

    impl Domain {
        fn new(i: u32) -> Self {
            Self {
                sk: SigningKey::derive(b"auditor tests", &i.to_le_bytes()),
                log: MerkleLog::new(),
                lid: log_id(b"dep", i),
                time: 0,
            }
        }

        fn checkpoint(&mut self) -> SignedCheckpoint {
            self.time += 1;
            SignedCheckpoint::sign(
                CheckpointBody {
                    log_id: self.lid,
                    size: self.log.len() as u64,
                    head: self.log.root(),
                    logical_time: self.time,
                },
                &self.sk,
            )
        }
    }

    fn auditor_for(domains: &[Domain]) -> Auditor {
        Auditor::new(domains.iter().map(|d| d.sk.verifying_key()).collect())
    }

    /// Feeds `domain`'s checkpoint `cp` to `auditor` the one way a domain's
    /// answer goes in: a bundle of that checkpoint alone, with `proof`
    /// (from the auditor's verified size to `cp`'s) as its only step when
    /// given.
    pub(crate) fn step(
        auditor: &mut Auditor,
        domain: u32,
        cp: SignedCheckpoint,
        proof: Option<&ConsistencyProof>,
    ) -> AuditOutcome {
        let bundle = CheckpointBundle {
            checkpoints: vec![cp],
            proof: ProofBundle::from_proofs(proof.cloned().as_slice()),
        };
        auditor.observe_bundle(domain, &bundle)
    }

    /// False when `outcome` is an equivocation whose proof does not
    /// convict the domain it names under that domain's `key`.
    fn convicts(outcome: &AuditOutcome, key: impl Fn(u32) -> VerifyingKey) -> bool {
        match outcome {
            AuditOutcome::Misbehavior(m) => match &**m {
                Misbehavior::Equivocation { domain, proof } => proof.verify(&key(*domain)),
                _ => true,
            },
            AuditOutcome::Consistent => true,
        }
    }

    #[test]
    fn honest_growth_is_consistent() {
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        let cp1 = d.checkpoint();
        assert!(step(&mut auditor, 0, cp1, None).is_consistent());
        d.log.append(b"v2");
        let cp2 = d.checkpoint();
        let proof = d.log.prove_consistency(1, 2).unwrap();
        assert!(step(&mut auditor, 0, cp2, Some(&proof)).is_consistent());
    }

    #[test]
    fn growth_without_proof_flagged() {
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        let cp1 = d.checkpoint();
        step(&mut auditor, 0, cp1, None);
        d.log.append(b"v2");
        let cp2 = d.checkpoint();
        match step(&mut auditor, 0, cp2, None) {
            AuditOutcome::Misbehavior(m) => {
                assert!(matches!(*m, Misbehavior::InconsistentGrowth { .. }))
            }
            other => panic!("expected misbehavior, got {other:?}"),
        }
    }

    #[test]
    fn history_rewrite_flagged() {
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        d.log.append(b"v2");
        let cp = d.checkpoint();
        let _ = step(&mut auditor, 0, cp, None);
        // Rebuild the log with a different history of the same length + 1.
        let mut forged = MerkleLog::new();
        forged.append(b"evil-1");
        forged.append(b"evil-2");
        forged.append(b"evil-3");
        let forged_cp = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: d.lid,
                size: 3,
                head: forged.root(),
                logical_time: 99,
            },
            &d.sk,
        );
        let bogus_proof = forged.prove_consistency(2, 3).unwrap();
        match step(&mut auditor, 0, forged_cp, Some(&bogus_proof)) {
            AuditOutcome::Misbehavior(m) => {
                assert!(matches!(*m, Misbehavior::InconsistentGrowth { .. }))
            }
            other => panic!("expected misbehavior, got {other:?}"),
        }
    }

    #[test]
    fn rollback_flagged() {
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        d.log.append(b"v2");
        let cp2 = d.checkpoint();
        step(&mut auditor, 0, cp2, None);
        // Offer a checkpoint for size 1.
        let old = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: d.lid,
                size: 1,
                head: d.log.root_of_prefix(1),
                logical_time: 100,
            },
            &d.sk,
        );
        match step(&mut auditor, 0, old, None) {
            AuditOutcome::Misbehavior(m) => {
                assert!(matches!(*m, Misbehavior::Rollback { .. }))
            }
            other => panic!("expected rollback, got {other:?}"),
        }
    }

    #[test]
    fn equivocation_yields_transferable_proof() {
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        let cp_honest = d.checkpoint();
        step(&mut auditor, 0, cp_honest, None);
        // The domain signs a different head for the same size.
        let cp_fork = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: d.lid,
                size: 1,
                head: [0xee; 32],
                logical_time: 50,
            },
            &d.sk,
        );
        match step(&mut auditor, 0, cp_fork, None) {
            AuditOutcome::Misbehavior(m) => match *m {
                Misbehavior::Equivocation { domain, proof } => {
                    assert_eq!(domain, 0);
                    assert!(proof.verify(&d.sk.verifying_key()));
                }
                other => panic!("expected equivocation, got {other:?}"),
            },
            other => panic!("expected misbehavior, got {other:?}"),
        }
    }

    #[test]
    fn bad_signature_flagged() {
        let d = Domain::new(0);
        let stranger = SigningKey::derive(b"stranger", b"");
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        let cp = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: d.lid,
                size: 1,
                head: [1; 32],
                logical_time: 1,
            },
            &stranger,
        );
        match step(&mut auditor, 0, cp, None) {
            AuditOutcome::Misbehavior(m) => {
                assert!(matches!(*m, Misbehavior::BadSignature { .. }))
            }
            other => panic!("expected bad signature, got {other:?}"),
        }
    }

    /// What a decoder would have refused is refused by `verify`, by name:
    /// a checkpoint whose signature's `R` is no point at all (`x = 1`, and
    /// `1 + 4` has no square root) or lies in the cofactor torsion
    /// (`x = 0`: the order-3 point `(0, 2)`) decodes, fails verification,
    /// and is this domain's `BadSignature` on every path that takes one.
    #[test]
    fn signature_bytes_that_are_no_point_of_g1_decode_and_are_a_bad_signature() {
        use distrust_crypto::fp::Fp;
        use distrust_wire::codec::{Decode, Encode};
        assert!(Fp::from_u64(1 + 4).sqrt().is_none());
        let mut d = Domain::new(0);
        d.log.append(b"v1");
        let genuine = d.checkpoint();
        for x in [1u8, 0] {
            let mut spoiled = genuine.clone();
            spoiled.signature[..48].fill(0);
            (spoiled.signature[0], spoiled.signature[47]) = (0x80, x);
            let decoded = SignedCheckpoint::from_wire(&spoiled.to_wire()).expect("decodes");
            assert_eq!(decoded, spoiled);
            assert!(!decoded.verify(&d.sk.verifying_key()));
            let mut auditor = auditor_for(std::slice::from_ref(&d));
            for outcome in [
                step(&mut auditor, 0, decoded.clone(), None),
                auditor.ingest_gossip(0, decoded),
            ] {
                match outcome {
                    AuditOutcome::Misbehavior(m) => {
                        assert!(matches!(*m, Misbehavior::BadSignature { domain: 0, .. }))
                    }
                    other => panic!("expected a bad signature, got {other:?}"),
                }
            }
            assert!(auditor.latest(0).is_none());
        }
    }

    #[test]
    fn cross_domain_divergence_detected() {
        let mut d0 = Domain::new(0);
        let mut d1 = Domain::new(1);
        let mut auditor = Auditor::new(vec![d0.sk.verifying_key(), d1.sk.verifying_key()]);
        d0.log.append(b"v1");
        d1.log.append(b"v1-evil");
        let cp0 = d0.checkpoint();
        let cp1 = d1.checkpoint();
        assert!(step(&mut auditor, 0, cp0, None).is_consistent());
        assert!(step(&mut auditor, 1, cp1, None).is_consistent());
        match auditor.cross_check() {
            AuditOutcome::Misbehavior(m) => match *m {
                Misbehavior::CrossDomainDivergence { views } => {
                    assert_eq!(views.len(), 2);
                }
                other => panic!("expected divergence, got {other:?}"),
            },
            other => panic!("expected misbehavior, got {other:?}"),
        }
    }

    #[test]
    fn agreeing_domains_cross_check_clean() {
        let mut d0 = Domain::new(0);
        let mut d1 = Domain::new(1);
        let mut auditor = Auditor::new(vec![d0.sk.verifying_key(), d1.sk.verifying_key()]);
        for leaf in [b"v1".as_slice(), b"v2"] {
            d0.log.append(leaf);
            d1.log.append(leaf);
        }
        let cp0 = d0.checkpoint();
        let cp1 = d1.checkpoint();
        step(&mut auditor, 0, cp0, None);
        step(&mut auditor, 1, cp1, None);
        assert!(auditor.cross_check().is_consistent());
    }

    #[test]
    fn lagging_domain_not_flagged() {
        // Domain 1 has seen fewer updates but agrees on the shared prefix.
        let mut d0 = Domain::new(0);
        let mut d1 = Domain::new(1);
        let mut auditor = Auditor::new(vec![d0.sk.verifying_key(), d1.sk.verifying_key()]);
        d0.log.append(b"v1");
        d0.log.append(b"v2");
        d1.log.append(b"v1");
        let cp0 = d0.checkpoint();
        let cp1 = d1.checkpoint();
        step(&mut auditor, 0, cp0, None);
        step(&mut auditor, 1, cp1, None);
        // Sizes differ (2 vs 1) so no same-size comparison exists; clean.
        assert!(auditor.cross_check().is_consistent());
    }

    #[test]
    fn gossip_detects_split_view() {
        // A domain shows client A history "0xaa" and client B history
        // "0xbb" at the same size. Each client alone is satisfied; gossip
        // between them exposes the equivocation.
        let d = Domain::new(0);
        let make_cp = |head: [u8; 32]| {
            SignedCheckpoint::sign(
                CheckpointBody {
                    log_id: d.lid,
                    size: 3,
                    head,
                    logical_time: 3,
                },
                &d.sk,
            )
        };
        let mut auditor_a = auditor_for(std::slice::from_ref(&d));
        let mut auditor_b = auditor_for(std::slice::from_ref(&d));
        assert!(step(&mut auditor_a, 0, make_cp([0xaa; 32]), None).is_consistent());
        assert!(step(&mut auditor_b, 0, make_cp([0xbb; 32]), None).is_consistent());
        // Client B relays its view to client A.
        let payload = auditor_b.gossip_payload();
        assert_eq!(payload.len(), 1);
        match auditor_a.ingest_gossip(0, payload[0].1.clone()) {
            AuditOutcome::Misbehavior(m) => match *m {
                Misbehavior::Equivocation { proof, .. } => {
                    assert!(proof.verify(&d.sk.verifying_key()));
                }
                other => panic!("expected equivocation, got {other:?}"),
            },
            other => panic!("expected misbehavior, got {other:?}"),
        }
    }

    #[test]
    fn gossip_tolerates_lagging_peers() {
        // An older-but-consistent checkpoint from a peer is NOT flagged.
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        let old_cp = d.checkpoint();
        d.log.append(b"v2");
        let new_cp = d.checkpoint();
        let proof = d.log.prove_consistency(1, 2).unwrap();
        assert!(step(&mut auditor, 0, old_cp.clone(), None).is_consistent());
        assert!(step(&mut auditor, 0, new_cp, Some(&proof)).is_consistent());
        // Peer is still at size 1 with the same head: fine.
        assert!(auditor.ingest_gossip(0, old_cp).is_consistent());
    }

    #[test]
    fn gossip_rejects_forged_checkpoints() {
        let d = Domain::new(0);
        let stranger = SigningKey::derive(b"stranger", b"");
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        let forged = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: d.lid,
                size: 1,
                head: [9; 32],
                logical_time: 1,
            },
            &stranger,
        );
        match auditor.ingest_gossip(0, forged) {
            AuditOutcome::Misbehavior(m) => {
                assert!(matches!(*m, Misbehavior::BadSignature { .. }))
            }
            other => panic!("expected bad signature, got {other:?}"),
        }
        // A forged checkpoint must not frame the domain: no equivocation
        // state was recorded.
        assert!(auditor.cross_check().is_consistent());
    }

    #[test]
    fn bundle_smuggling_stale_checkpoint_flagged_as_rollback() {
        // A served checkpoint older than the verified prefix is a
        // Rollback, alone or hidden inside an otherwise-fresh bundle.
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        d.log.append(b"v2");
        let cp2 = d.checkpoint();
        assert!(step(&mut auditor, 0, cp2.clone(), None).is_consistent());
        let stale = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: d.lid,
                size: 1,
                head: d.log.root_of_prefix(1),
                logical_time: 50,
            },
            &d.sk,
        );
        let bundle = CheckpointBundle {
            checkpoints: vec![stale, cp2],
            proof: ProofBundle::default(),
        };
        match auditor.observe_bundle(0, &bundle) {
            AuditOutcome::Misbehavior(m) => assert!(matches!(
                *m,
                Misbehavior::Rollback {
                    trusted_size: 2,
                    offered_size: 1,
                    ..
                }
            )),
            other => panic!("expected rollback, got {other:?}"),
        }
    }

    #[test]
    fn a_bundle_past_the_limit_is_refused_before_any_signature_is_checked() {
        use distrust_wire::codec::{Decode, DecodeError, Encode};
        // Correctly signed under the domain's own key, ascending: nothing
        // wrong with it but its length — which is the attack, each entry
        // being a verification the client would otherwise owe.
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        let checkpoints: Vec<SignedCheckpoint> = (0..=MAX_BUNDLE_CHECKPOINTS)
            .map(|_| {
                d.log.append(b"release");
                d.checkpoint()
            })
            .collect();
        let mut bundle = CheckpointBundle {
            checkpoints,
            proof: ProofBundle::default(),
        };
        match auditor.observe_bundle(0, &bundle) {
            AuditOutcome::Misbehavior(m) => {
                assert!(matches!(*m, Misbehavior::MalformedBundle { domain: 0, .. }))
            }
            other => panic!("expected a malformed bundle, got {other:?}"),
        }
        let cache = auditor.prefix_cache(0).unwrap();
        assert_eq!((cache.signatures_verified(), cache.skipped()), (0, 0));
        assert!(auditor.latest(0).is_none());
        assert_eq!(
            CheckpointBundle::from_wire(&bundle.to_wire()),
            Err(DecodeError::Invalid("checkpoint bundle length"))
        );
        // One fewer is a bundle like any other, on both paths.
        bundle.checkpoints.pop();
        assert_eq!(CheckpointBundle::from_wire(&bundle.to_wire()), Ok(bundle));
    }

    #[test]
    fn bundle_with_duplicate_checkpoint_is_tolerated() {
        // A re-served checkpoint (same size, same head) is accepted, and
        // so is a bundle containing the duplicate — only conflicting heads
        // are evidence.
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        let cp = d.checkpoint();
        let again = d.checkpoint(); // same size/head, fresh logical time
        let bundle = CheckpointBundle {
            checkpoints: vec![cp, again],
            proof: ProofBundle::default(),
        };
        assert!(auditor.observe_bundle(0, &bundle).is_consistent());
        assert_eq!(auditor.latest(0).unwrap().body.size, 1);
    }

    /// A consistency step is evidence for the two sizes it names and no
    /// others: a genuine 8 → 12 step does not link the 12-leaf head to a
    /// checkpoint that claims it at size 10.
    #[test]
    fn a_proof_step_between_other_sizes_is_inconsistent_growth() {
        let mut d = Domain::new(0);
        for i in 0..12 {
            d.log.append(format!("leaf {i}").as_bytes());
        }
        let at = |size, head| {
            let body = CheckpointBody {
                log_id: d.lid,
                size,
                head,
                logical_time: size,
            };
            SignedCheckpoint::sign(body, &d.sk)
        };
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        let trusted = at(8, d.log.root_of_prefix(8));
        assert!(step(&mut auditor, 0, trusted, None).is_consistent());
        let genuine = d.log.prove_consistency(8, 12).unwrap();
        assert!(genuine.verify(&d.log.root_of_prefix(8), &d.log.root()));
        match step(&mut auditor, 0, at(10, d.log.root()), Some(&genuine)) {
            AuditOutcome::Misbehavior(m) => match *m {
                Misbehavior::InconsistentGrowth {
                    domain: 0,
                    trusted,
                    offered,
                } => assert_eq!((trusted.body.size, offered.body.size), (8, 10)),
                other => panic!("expected inconsistent growth, got {other:?}"),
            },
            other => panic!("expected inconsistent growth, got {other:?}"),
        }
        assert_eq!(auditor.latest(0).unwrap().body.size, 8);
    }

    /// Of two conflicting groups in one bundle, the pair reported is the
    /// first checkpoint that has a conflicting later one — size 5's first,
    /// though size 7's conflict comes earlier in the bundle — against the
    /// first later head that differs from it: not the one repeating it,
    /// and not size 5's third head.
    #[test]
    fn an_in_bundle_equivocation_names_the_first_checkpoint_with_a_later_conflict() {
        let d = Domain::new(0);
        let at = |size, head, logical_time| {
            let body = CheckpointBody {
                log_id: d.lid,
                size,
                head: [head; 32],
                logical_time,
            };
            SignedCheckpoint::sign(body, &d.sk)
        };
        let (first, conflict) = (at(5, 1, 1), at(5, 4, 5));
        let bundle = CheckpointBundle {
            checkpoints: vec![
                first.clone(),
                at(7, 2, 2),
                at(7, 3, 3),
                at(5, 1, 4),
                conflict.clone(),
                at(5, 6, 6),
            ],
            proof: ProofBundle::default(),
        };
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        match auditor.observe_bundle(0, &bundle) {
            AuditOutcome::Misbehavior(m) => match *m {
                Misbehavior::Equivocation { domain: 0, proof } => {
                    assert_eq!(
                        proof,
                        EquivocationProof {
                            a: first,
                            b: conflict
                        }
                    );
                    assert!(proof.verify(&d.sk.verifying_key()));
                }
                other => panic!("expected equivocation, got {other:?}"),
            },
            other => panic!("expected equivocation, got {other:?}"),
        }
        assert!(auditor.latest(0).is_none());
    }

    mod verify_once {
        use super::*;
        use proptest::prelude::*;

        /// What the skip rule and the window are tested against: an
        /// auditor of domain 0 alone that recognises nothing, verifies
        /// every signature it is shown, forgets nothing, and takes
        /// [`Auditor::observe_bundle`]'s checks in the order its rustdoc
        /// gives them — for the bundles the proptest sends, which are
        /// never empty or over the cap.
        struct Reference {
            key: VerifyingKey,
            latest: Option<SignedCheckpoint>,
            /// Every head that verified, by size.
            seen: BTreeMap<u64, SignedCheckpoint>,
            /// Signatures verified.
            checks: u64,
        }

        fn misbehaved(m: Misbehavior) -> AuditOutcome {
            AuditOutcome::Misbehavior(Box::new(m))
        }

        impl Reference {
            fn new(key: VerifyingKey) -> Self {
                Self {
                    key,
                    latest: None,
                    seen: BTreeMap::new(),
                    checks: 0,
                }
            }

            fn verifies(&mut self, cp: &SignedCheckpoint) -> bool {
                self.checks += 1;
                cp.verify(&self.key)
            }

            /// The proof `cp` and the head held at its size make, when
            /// they conflict.
            fn against_history(&self, cp: &SignedCheckpoint) -> Option<EquivocationProof> {
                let prior = self.seen.get(&cp.body.size)?;
                let conflict =
                    prior.body.log_id == cp.body.log_id && prior.body.head != cp.body.head;
                conflict.then(|| EquivocationProof {
                    a: prior.clone(),
                    b: cp.clone(),
                })
            }

            fn observe_bundle(&mut self, bundle: &CheckpointBundle) -> AuditOutcome {
                let (domain, cps) = (0, &bundle.checkpoints);
                if let Some(bad) = cps.iter().find(|cp| !self.verifies(cp)) {
                    let checkpoint = bad.clone();
                    return misbehaved(Misbehavior::BadSignature { domain, checkpoint });
                }
                for (i, a) in cps.iter().enumerate() {
                    let conflict = cps[i + 1..].iter().find(|b| {
                        (a.body.size, a.body.log_id) == (b.body.size, b.body.log_id)
                            && a.body.head != b.body.head
                    });
                    if let Some(b) = conflict {
                        let (a, b) = (a.clone(), b.clone());
                        let proof = EquivocationProof { a, b };
                        return misbehaved(Misbehavior::Equivocation { domain, proof });
                    }
                }
                if let Some(proof) = cps.iter().find_map(|cp| self.against_history(cp)) {
                    return misbehaved(Misbehavior::Equivocation { domain, proof });
                }
                if cps.windows(2).any(|w| w[1].body.size < w[0].body.size) {
                    let reason = "checkpoint sizes descending".into();
                    return misbehaved(Misbehavior::MalformedBundle { domain, reason });
                }
                if let Some(trusted) = &self.latest {
                    let trusted_size = trusted.body.size;
                    if let Some(stale) = cps.iter().find(|cp| cp.body.size < trusted_size) {
                        let offered_size = stale.body.size;
                        return misbehaved(Misbehavior::Rollback {
                            domain,
                            trusted_size,
                            offered_size,
                        });
                    }
                }
                // One step per size transition above the latest, none from
                // the empty tree.
                let mut steps = (0..).map(|i| bundle.proof.step(i));
                let mut prev = self.latest.clone();
                for cp in cps {
                    match &prev {
                        Some(trusted) if trusted.body.size == cp.body.size => continue,
                        Some(trusted) if trusted.body.size > 0 => {
                            let linked = steps.next().flatten().is_some_and(|p| {
                                (p.old_size, p.new_size) == (trusted.body.size, cp.body.size)
                                    && p.verify(&trusted.body.head, &cp.body.head)
                            });
                            if !linked {
                                return misbehaved(Misbehavior::InconsistentGrowth {
                                    domain,
                                    trusted: trusted.clone(),
                                    offered: cp.clone(),
                                });
                            }
                        }
                        _ => {}
                    }
                    prev = Some(cp.clone());
                }
                self.latest = cps.last().cloned();
                for cp in cps {
                    self.seen.insert(cp.body.size, cp.clone());
                }
                AuditOutcome::Consistent
            }

            fn ingest_gossip(&mut self, domain: u32, checkpoint: SignedCheckpoint) -> AuditOutcome {
                if domain != 0 || !self.verifies(&checkpoint) {
                    return misbehaved(Misbehavior::BadSignature { domain, checkpoint });
                }
                if let Some(proof) = self.against_history(&checkpoint) {
                    return misbehaved(Misbehavior::Equivocation { domain, proof });
                }
                self.seen.entry(checkpoint.body.size).or_insert(checkpoint);
                AuditOutcome::Consistent
            }
        }

        /// An honest domain with one signed epoch per append, serving
        /// bundles the way the framework does.
        struct Chain {
            domain: Domain,
            epochs: Vec<SignedCheckpoint>,
        }

        impl Chain {
            fn new(appends: usize) -> Self {
                let mut chain = Self {
                    domain: Domain::new(0),
                    epochs: Vec::new(),
                };
                (0..appends).for_each(|_| chain.append());
                chain
            }

            fn append(&mut self) {
                let leaf = format!("leaf {}", self.epochs.len());
                self.domain.log.append(leaf.as_bytes());
                let cp = self.domain.checkpoint();
                self.epochs.push(cp);
            }

            fn bundle_for(&self, verified: u64) -> CheckpointBundle {
                let mut checkpoints: Vec<SignedCheckpoint> = self
                    .epochs
                    .iter()
                    .filter(|cp| cp.body.size > verified)
                    .cloned()
                    .collect();
                if checkpoints.is_empty() {
                    checkpoints.push(self.epochs.last().expect("non-empty").clone());
                }
                let mut sizes: Vec<usize> = Vec::new();
                if verified >= 1 {
                    sizes.push(verified as usize);
                }
                sizes.extend(checkpoints.iter().map(|cp| cp.body.size as usize));
                sizes.dedup();
                let proof = self
                    .domain
                    .log
                    .prove_consistency_range(&sizes)
                    .expect("honest range");
                CheckpointBundle { checkpoints, proof }
            }

            /// `cp` as an honest party, a forger without the key, a
            /// bit-flipper, or the equivocating domain itself would relay
            /// it.
            fn variant(&self, cp: &SignedCheckpoint, kind: u8, bit: u16) -> SignedCheckpoint {
                let mut cp = cp.clone();
                match kind % 4 {
                    0 => {}
                    1 => {
                        let stranger = SigningKey::derive(b"stranger", b"");
                        cp = SignedCheckpoint::sign(cp.body, &stranger);
                    }
                    2 => {
                        let bit = bit as usize % (cp.signature.len() * 8);
                        cp.signature[bit / 8] ^= 1 << (bit % 8);
                    }
                    _ => {
                        cp.body.head[0] ^= 0xff;
                        cp = SignedCheckpoint::sign(cp.body, &self.domain.sk);
                    }
                }
                cp
            }
        }

        fn checks(auditor: &Auditor) -> u64 {
            auditor.relayed_verified() + auditor.domains[0].cache.signatures_verified()
        }

        #[test]
        fn a_relayed_head_is_verified_once_then_compared() {
            let chain = Chain::new(2);
            let mut auditor = auditor_for(std::slice::from_ref(&chain.domain));
            assert!(auditor
                .observe_bundle(0, &chain.bundle_for(0))
                .is_consistent());
            // Both epochs came through the bundle: relaying them costs
            // comparisons, however often a board repeats them.
            for _ in 0..3 {
                for cp in &chain.epochs {
                    assert!(auditor.ingest_gossip(0, cp.clone()).is_consistent());
                }
            }
            assert_eq!(
                (auditor.relayed_verified(), auditor.relayed_skipped()),
                (0, 6)
            );

            // A head first met through gossip is verified there, once, and
            // is then known to every other path as well.
            let mut fresh = auditor_for(std::slice::from_ref(&chain.domain));
            let head = chain.epochs[1].clone();
            assert!(fresh.ingest_gossip(0, head.clone()).is_consistent());
            assert!(fresh.ingest_gossip(0, head.clone()).is_consistent());
            assert_eq!((fresh.relayed_verified(), fresh.relayed_skipped()), (1, 1));
            assert!(step(&mut fresh, 0, head, None).is_consistent());
            let cache = fresh.prefix_cache(0).unwrap();
            assert_eq!((cache.signatures_verified(), cache.skipped()), (0, 1));
        }

        #[test]
        fn a_known_body_under_other_signature_bytes_is_verified_not_skipped() {
            let chain = Chain::new(1);
            let genuine = chain.epochs[0].clone();
            let mut auditor = auditor_for(std::slice::from_ref(&chain.domain));
            assert!(step(&mut auditor, 0, genuine.clone(), None).is_consistent());
            for (i, byte) in [0usize, 47, 48, 79].into_iter().enumerate() {
                let mut tampered = genuine.clone();
                tampered.signature[byte] ^= 1;
                match auditor.ingest_gossip(0, tampered.clone()) {
                    AuditOutcome::Misbehavior(m) => {
                        assert!(matches!(*m, Misbehavior::BadSignature { .. }))
                    }
                    other => panic!("flipped signature byte {byte} accepted: {other:?}"),
                }
                assert_eq!(
                    auditor.relayed_verified(),
                    i as u64 + 1,
                    "byte {byte} skipped"
                );
                match step(&mut auditor, 0, tampered, None) {
                    AuditOutcome::Misbehavior(m) => {
                        assert!(matches!(*m, Misbehavior::BadSignature { .. }))
                    }
                    other => panic!("flipped signature byte {byte} accepted: {other:?}"),
                }
            }
            assert_eq!(auditor.relayed_skipped(), 0);
            assert_eq!(auditor.domains[0].seen.get(&1), Some(&genuine));
            assert_eq!(auditor.latest(0), Some(&genuine));
        }

        #[test]
        fn a_known_size_under_another_head_still_yields_the_proof() {
            let chain = Chain::new(1);
            let mut auditor = auditor_for(std::slice::from_ref(&chain.domain));
            assert!(step(&mut auditor, 0, chain.epochs[0].clone(), None).is_consistent());
            let fork = chain.variant(&chain.epochs[0], 3, 0);
            match auditor.ingest_gossip(0, fork) {
                AuditOutcome::Misbehavior(m) => match *m {
                    Misbehavior::Equivocation { proof, .. } => {
                        assert!(proof.verify(&chain.domain.sk.verifying_key()))
                    }
                    other => panic!("expected equivocation, got {other:?}"),
                },
                other => panic!("expected misbehavior, got {other:?}"),
            }
            assert_eq!(
                (auditor.relayed_verified(), auditor.relayed_skipped()),
                (1, 0)
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The skip is exact: over arbitrary interleavings of bundles,
            /// one-checkpoint bundles and gossip of honest, repeated,
            /// stale, forged, bit-flipped and equivocating checkpoints, an
            /// auditor that recognises what it has verified answers every
            /// call exactly as the [`Reference`] that verifies everything,
            /// and ends holding exactly the same checkpoints. So is the
            /// window: the reference forgets nothing, and on this traffic,
            /// which stays inside the window, the bounded auditor answers
            /// every call as it does. So is the batch: a whole envelope's
            /// heads through one `ingest_gossip_heads` (one `verify_all`
            /// per domain, a stranger's domain index among them) against
            /// the reference taking them one by one. Every equivocation
            /// either returns convicts the domain under its key.
            #[test]
            fn skipping_known_checkpoints_changes_no_outcome(
                ops in proptest::collection::vec((0u8..5, any::<u8>(), any::<u8>(), any::<u16>()), 1..24),
            ) {
                let mut chain = Chain::new(1);
                let key = chain.domain.sk.verifying_key();
                let mut auditor = Auditor::new(vec![key]);
                let mut reference = Reference::new(key);

                for (op, pick, kind, bit) in ops {
                    let picked = chain.epochs[pick as usize % chain.epochs.len()].clone();
                    let verified = auditor.latest(0).map_or(0, |cp| cp.body.size);
                    // Up to nine heads, either side of the key-table
                    // threshold, every third claimed for a domain nobody
                    // pinned a key for.
                    let envelope: Vec<(u32, SignedCheckpoint)> = (0..=pick % 9)
                        .map(|j| {
                            let at = (pick as usize + j as usize) % chain.epochs.len();
                            let cp = chain.variant(&chain.epochs[at], kind.wrapping_add(j), bit);
                            (if (kind ^ j) % 3 == 0 { 7 } else { 0 }, cp)
                        })
                        .collect();
                    let (outcomes, expected) = match op {
                        0 => {
                            let mut bundle = chain.bundle_for(verified);
                            let last = bundle.checkpoints.pop().expect("non-empty");
                            bundle.checkpoints.push(chain.variant(&last, kind, bit));
                            (
                                vec![auditor.observe_bundle(0, &bundle)],
                                vec![reference.observe_bundle(&bundle)],
                            )
                        }
                        1 => {
                            let cp = chain.variant(&picked, kind, bit);
                            (
                                vec![auditor.ingest_gossip(0, cp.clone())],
                                vec![reference.ingest_gossip(0, cp)],
                            )
                        }
                        2 => {
                            let cp = chain.variant(&picked, kind, bit);
                            let proof = (verified >= 1 && cp.body.size > verified)
                                .then(|| {
                                    chain.domain.log.prove_consistency(
                                        verified as usize,
                                        cp.body.size as usize,
                                    )
                                })
                                .flatten();
                            let one = CheckpointBundle {
                                checkpoints: vec![cp.clone()],
                                proof: ProofBundle::from_proofs(proof.as_slice()),
                            };
                            (
                                vec![step(&mut auditor, 0, cp, proof.as_ref())],
                                vec![reference.observe_bundle(&one)],
                            )
                        }
                        4 => {
                            let heads: Vec<_> = envelope.iter().map(|(d, cp)| (*d, cp)).collect();
                            let one_by_one = envelope.iter().cloned();
                            (
                                auditor.ingest_gossip_heads(&heads),
                                one_by_one.map(|(d, cp)| reference.ingest_gossip(d, cp)).collect(),
                            )
                        }
                        _ => {
                            chain.append();
                            (Vec::new(), Vec::new())
                        }
                    };
                    prop_assert_eq!(format!("{outcomes:?}"), format!("{expected:?}"));
                    prop_assert!(outcomes.iter().all(|o| convicts(o, |_| key)));
                }
                prop_assert!(chain.epochs.len() <= WINDOW_ABOVE.min(WINDOW_BELOW as usize));
                let kept: Vec<(u64, SignedCheckpoint)> = reference.seen.into_iter().collect();
                prop_assert_eq!(&auditor.domains[0].seen.0, &kept);
                prop_assert_eq!(auditor.latest(0), reference.latest.as_ref());
                prop_assert!(checks(&auditor) <= reference.checks);
            }
        }
    }

    mod window {
        use super::*;

        /// Domain `d`'s checkpoint of `log` at `size`, with `head` in place
        /// of the real one when given.
        fn signed(
            d: &Domain,
            log: &MerkleLog,
            size: u64,
            head: Option<Digest>,
        ) -> SignedCheckpoint {
            let body = CheckpointBody {
                log_id: d.lid,
                size,
                head: head.unwrap_or_else(|| log.root_of_prefix(size as usize)),
                logical_time: size,
            };
            SignedCheckpoint::sign(body, &d.sk)
        }

        fn sizes(auditor: &Auditor, domain: usize) -> Vec<u64> {
            auditor.domains[domain]
                .seen
                .0
                .iter()
                .map(|(s, _)| *s)
                .collect()
        }

        fn grown(log: &MerkleLog, from: u64, to: u64) -> ConsistencyProof {
            log.prove_consistency(from as usize, to as usize)
                .expect("honest growth")
        }

        /// The window slides with the latest verified checkpoint: what
        /// falls below it is forgotten — and is unknown again, verified
        /// if it comes back, no longer evidence, still a rollback in a
        /// bundle — and relayed heads above it are capped at the newest
        /// [`WINDOW_ABOVE`].
        #[test]
        fn the_window_slides_with_the_latest_and_caps_relayed_heads() {
            let mut d = Domain::new(0);
            (0..400).for_each(|i| {
                d.log.append(format!("leaf {i}").as_bytes());
            });
            let log = d.log.clone();
            let mut auditor = auditor_for(std::slice::from_ref(&d));
            let at = |size| signed(&d, &log, size, None);
            assert!(step(&mut auditor, 0, at(100), None).is_consistent());
            for size in [50, 150, 300] {
                assert!(auditor.ingest_gossip(0, at(size)).is_consistent());
            }
            assert_eq!(sizes(&auditor, 0), [50, 100, 150, 300]);
            let proof = grown(&log, 100, 250);
            assert!(step(&mut auditor, 0, at(250), Some(&proof)).is_consistent());
            assert_eq!(sizes(&auditor, 0), [150, 250, 300]);

            // Size 100 has left: the genuine head is verified again and
            // not kept, a second head there proves nothing, and a bundle
            // carrying either is a rollback.
            assert!(auditor.ingest_gossip(0, at(100)).is_consistent());
            assert_eq!(auditor.relayed_verified(), 4);
            let fork = signed(&d, &log, 100, Some([0xee; 32]));
            assert!(auditor.ingest_gossip(0, fork.clone()).is_consistent());
            assert_eq!(sizes(&auditor, 0), [150, 250, 300]);
            let bundle = CheckpointBundle {
                checkpoints: vec![fork, at(250)],
                proof: ProofBundle::default(),
            };
            match auditor.observe_bundle(0, &bundle) {
                AuditOutcome::Misbehavior(m) => assert!(matches!(
                    *m,
                    Misbehavior::Rollback {
                        trusted_size: 250,
                        offered_size: 100,
                        ..
                    }
                )),
                other => panic!("expected rollback, got {other:?}"),
            }

            // Inside the window a second head is still the proof.
            let fork = signed(&d, &log, 150, Some([0xee; 32]));
            match auditor.ingest_gossip(0, fork) {
                AuditOutcome::Misbehavior(m) => {
                    assert!(matches!(*m, Misbehavior::Equivocation { domain: 0, .. }))
                }
                other => panic!("expected equivocation, got {other:?}"),
            }

            // Seventy heads above the latest: the newest sixty-four stay.
            let heads: Vec<SignedCheckpoint> = (251..=320).map(at).collect();
            let relayed: Vec<_> = heads.iter().map(|cp| (0, cp)).collect();
            let outcomes = auditor.ingest_gossip_heads(&relayed);
            assert!(outcomes.iter().all(AuditOutcome::is_consistent));
            let above: Vec<u64> = (257..=320).collect();
            assert_eq!(sizes(&auditor, 0), [[150, 250].as_slice(), &above].concat());
            assert_eq!(auditor.remembered(), 2 + WINDOW_ABOVE);

            // A latest further ahead keeps the sizes within reach of it.
            let proof = grown(&log, 250, 400);
            assert!(step(&mut auditor, 0, at(400), Some(&proof)).is_consistent());
            let kept: Vec<u64> = (400 - WINDOW_BELOW + 1..=320).chain([400]).collect();
            assert_eq!(sizes(&auditor, 0), kept);

            // A size no log reaches is still a size: kept above, nothing
            // overflows.
            let far = signed(&d, &log, u64::MAX, Some([7; 32]));
            assert!(auditor.ingest_gossip(0, far).is_consistent());
            assert_eq!(sizes(&auditor, 0), [kept, vec![u64::MAX]].concat());
        }

        /// A divergence whose checkpoints leave the window is judged as
        /// they leave and reported from then on: one domain's latest
        /// moving on does not make two domains agree.
        #[test]
        fn a_divergence_that_leaves_the_window_is_still_reported() {
            let (mut d0, mut d1) = (Domain::new(0), Domain::new(1));
            for i in 0..200 {
                d0.log.append(format!("leaf {i}").as_bytes());
                d1.log.append(format!("other leaf {i}").as_bytes());
            }
            let mut auditor = Auditor::new(vec![d0.sk.verifying_key(), d1.sk.verifying_key()]);
            assert!(step(&mut auditor, 0, signed(&d0, &d0.log, 5, None), None).is_consistent());
            assert!(step(&mut auditor, 1, signed(&d1, &d1.log, 5, None), None).is_consistent());
            let views = |outcome: AuditOutcome| match outcome {
                AuditOutcome::Misbehavior(m) => match *m {
                    Misbehavior::CrossDomainDivergence { views } => views
                        .iter()
                        .map(|(d, cp)| (*d, cp.body.size))
                        .collect::<Vec<_>>(),
                    other => panic!("expected divergence, got {other:?}"),
                },
                other => panic!("expected divergence, got {other:?}"),
            };
            assert_eq!(views(auditor.cross_check()), [(0, 5), (1, 5)]);
            for (d, domain) in [(1, &d1), (0, &d0)] {
                let proof = grown(&domain.log, 5, 200);
                let cp = signed(domain, &domain.log, 200, None);
                assert!(step(&mut auditor, d, cp, Some(&proof)).is_consistent());
                assert_eq!(views(auditor.cross_check()), [(0, 5), (1, 5)]);
            }
            assert_eq!(auditor.remembered(), 2);
        }
    }

    mod incremental_cross_check {
        use super::*;
        use proptest::prelude::*;

        /// Sizes the two histories run to.
        const SIZES: u64 = 5;

        /// Two histories that agree on their first leaf and on nothing
        /// after it.
        fn histories() -> [MerkleLog; 2] {
            let mut logs = [MerkleLog::new(), MerkleLog::new()];
            for i in 0..SIZES {
                for (h, log) in logs.iter_mut().enumerate() {
                    let tag = if i == 0 { 0 } else { h };
                    log.append(format!("leaf {i} of history {tag}").as_bytes());
                }
            }
            logs
        }

        /// Domain `d`'s checkpoint of `history` at `size`, under its own
        /// log id or (`alias`) another — a checkpoint the equivocation
        /// checks do not compare with the first, so it can overwrite it.
        fn signed(d: u32, history: &MerkleLog, size: u64, alias: bool) -> SignedCheckpoint {
            let deployment: &[u8] = if alias { b"alias" } else { b"dep" };
            let body = CheckpointBody {
                log_id: log_id(deployment, d),
                size,
                head: history.root_of_prefix(size as usize),
                logical_time: size,
            };
            SignedCheckpoint::sign(body, &Domain::new(d).sk)
        }

        fn key_of(d: u32) -> VerifyingKey {
            Domain::new(d).sk.verifying_key()
        }

        fn auditor_of(n: u32) -> Auditor {
            Auditor::new((0..n).map(key_of).collect())
        }

        /// [`Auditor::cross_check`] as it was before it became
        /// incremental, rebuilding the buckets from every remembered
        /// checkpoint on each call — the reference the incremental check
        /// is tested against. (It walked a hash map, so which divergent
        /// size it reported was the map's iteration order; here it is the
        /// smallest.)
        fn cross_check_by_rebuilding(auditor: &Auditor) -> AuditOutcome {
            if auditor
                .domains
                .iter()
                .filter(|d| d.latest.is_some())
                .count()
                < 2
            {
                return AuditOutcome::Consistent;
            }
            let mut by_size: BTreeMap<u64, Views> = BTreeMap::new();
            for (i, d) in auditor.domains.iter().enumerate() {
                for (size, cp) in &d.seen.0 {
                    by_size
                        .entry(*size)
                        .or_default()
                        .push((i as u32, cp.clone()));
                }
            }
            let divergent = by_size.into_values().find(|group| {
                group
                    .iter()
                    .any(|(_, cp)| cp.body.head != group[0].1.body.head)
            });
            match divergent {
                Some(views) => {
                    AuditOutcome::Misbehavior(Box::new(Misbehavior::CrossDomainDivergence {
                        views,
                    }))
                }
                None => AuditOutcome::Consistent,
            }
        }

        /// Both checks, which must agree; returns the verdict.
        fn cross_checked(auditor: &mut Auditor) -> AuditOutcome {
            let reference = cross_check_by_rebuilding(auditor);
            let outcome = auditor.cross_check();
            assert_eq!(format!("{outcome:?}"), format!("{reference:?}"));
            outcome
        }

        fn divergent_size(outcome: AuditOutcome) -> Option<u64> {
            match outcome {
                AuditOutcome::Consistent => None,
                AuditOutcome::Misbehavior(m) => match *m {
                    Misbehavior::CrossDomainDivergence { views } => Some(views[0].1.body.size),
                    other => panic!("expected divergence, got {other:?}"),
                },
            }
        }

        /// What the proptest meets only by chance, in order: a divergence
        /// first met while fewer than two domains had a latest
        /// checkpoint, with a domain known only from gossip, is reported
        /// once two have one — at the smallest divergent size; overwrites
        /// under another log id end it size by size, and another starts
        /// one.
        #[test]
        fn divergence_survives_the_early_return_and_follows_overwrites() {
            let [honest, other] = histories();
            let mut auditor = auditor_of(3);
            for size in [3, 2] {
                let head = signed(2, &other, size, false);
                assert!(auditor.ingest_gossip(2, head).is_consistent());
            }
            assert!(step(&mut auditor, 0, signed(0, &honest, 2, false), None).is_consistent());
            let proof = honest.prove_consistency(2, 3);
            assert!(step(
                &mut auditor,
                0,
                signed(0, &honest, 3, false),
                proof.as_ref()
            )
            .is_consistent());
            assert_eq!(divergent_size(cross_checked(&mut auditor)), None);
            assert!(step(&mut auditor, 1, signed(1, &honest, 3, false), None).is_consistent());
            assert_eq!(divergent_size(cross_checked(&mut auditor)), Some(2));

            // Domain 2 itself, under another log id, on the honest history.
            assert!(step(&mut auditor, 2, signed(2, &honest, 2, true), None).is_consistent());
            assert_eq!(divergent_size(cross_checked(&mut auditor)), Some(3));
            assert!(
                step(&mut auditor, 2, signed(2, &honest, 3, true), proof.as_ref()).is_consistent()
            );
            assert_eq!(divergent_size(cross_checked(&mut auditor)), None);

            // A bundle re-serving domain 1's size under another log id and
            // head passes every per-domain check, and diverges.
            let bundle = CheckpointBundle {
                checkpoints: vec![signed(1, &other, 3, true)],
                proof: Default::default(),
            };
            assert!(auditor.observe_bundle(1, &bundle).is_consistent());
            assert_eq!(divergent_size(cross_checked(&mut auditor)), Some(3));
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The incremental check answers every call exactly as the
            /// rebuilding one, over arbitrary interleavings of
            /// one-checkpoint bundles, longer bundles and gossip on two to
            /// four domains, of either history, under either log id (so
            /// entries get overwritten), with domains met only through
            /// gossip, and with the check called after some operations and
            /// not others. Every equivocation any of them returns convicts
            /// the domain it names under that domain's key.
            #[test]
            fn the_incremental_cross_check_agrees_with_rebuilding(
                n in 2u32..=4,
                ops in proptest::collection::vec((0u8..3, any::<u8>(), any::<u8>(), any::<bool>()), 1..32),
            ) {
                let histories = histories();
                let mut auditor = auditor_of(n);
                for (op, pick, variant, check) in ops {
                    let d = u32::from(pick) % n;
                    let history = &histories[usize::from(variant & 1)];
                    let alias = variant & 2 != 0;
                    let size = 1 + u64::from(variant >> 2) % SIZES;
                    let verified = auditor.latest(d).map_or(0, |cp| cp.body.size);
                    let outcomes = match op {
                        0 => {
                            let proof = (verified >= 1 && size > verified)
                                .then(|| history.prove_consistency(verified as usize, size as usize))
                                .flatten();
                            vec![step(&mut auditor, d, signed(d, history, size, alias), proof.as_ref())]
                        }
                        1 => {
                            let sizes: Vec<u64> = if size > verified {
                                (verified + 1..=size).collect()
                            } else {
                                vec![size]
                            };
                            let linked: Vec<usize> = (verified >= 1)
                                .then_some(verified)
                                .into_iter()
                                .chain(sizes.iter().copied())
                                .map(|s| s as usize)
                                .collect();
                            let bundle = CheckpointBundle {
                                checkpoints: sizes.iter().map(|&s| signed(d, history, s, alias)).collect(),
                                proof: history.prove_consistency_range(&linked).unwrap_or_default(),
                            };
                            vec![auditor.observe_bundle(d, &bundle)]
                        }
                        _ => {
                            // A board's relay: this head, and the next
                            // domain's of the other history.
                            let next = (d + 1) % n;
                            let heads = [
                                (d, signed(d, history, size, alias)),
                                (next, signed(next, &histories[usize::from(!variant & 1)], size, !alias)),
                            ];
                            let heads: Vec<_> = heads.iter().map(|(d, cp)| (*d, cp)).collect();
                            auditor.ingest_gossip_heads(&heads)
                        }
                    };
                    prop_assert!(outcomes.iter().all(|o| convicts(o, key_of)));
                    if check {
                        let reference = format!("{:?}", cross_check_by_rebuilding(&auditor));
                        prop_assert_eq!(format!("{:?}", auditor.cross_check()), reference);
                    }
                }
                let reference = format!("{:?}", cross_check_by_rebuilding(&auditor));
                prop_assert_eq!(format!("{:?}", auditor.cross_check()), reference);
            }
        }
    }

    #[test]
    fn digest_match_helper() {
        assert!(digests_match(&[]));
        assert!(digests_match(&[[1; 32]]));
        assert!(digests_match(&[[1; 32], [1; 32], [1; 32]]));
        assert!(!digests_match(&[[1; 32], [2; 32]]));
    }
}
