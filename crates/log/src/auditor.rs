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
//! Checkpoints can be ingested one at a time ([`Auditor::observe`], the
//! per-step path) or as a whole [`CheckpointBundle`]
//! ([`Auditor::observe_bundle`], the batched path): identical detection
//! semantics, but the batched path costs one round-trip and — thanks to
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

use crate::batch::{CheckpointBundle, VerifiedPrefixCache, MAX_BUNDLE_CHECKPOINTS};
use crate::checkpoint::{EquivocationProof, SignedCheckpoint};
use crate::merkle::ConsistencyProof;
use distrust_crypto::schnorr::{KeptKey, VerifyingKey};
use distrust_crypto::sha256::Digest;
use std::collections::BTreeSet;

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

/// A map from log size to `V`, kept as a `Vec` sorted by size.
///
/// What an auditor remembers per domain — one entry per release, for as
/// long as it lives — arrives in size order (an append), and a hash
/// table's scattered buckets keep its whole doubled capacity resident
/// where a `Vec` touches only what it holds. It grows by
/// [`BY_SIZE_STEP`] entries at a time rather than doubling: this is the
/// one structure of a client that grows for ever, and a doubled `Vec` of
/// 168-byte entries sits at up to twice its contents.
#[derive(Debug, PartialEq)]
struct BySize<V>(Vec<(u64, V)>);

/// Entries a full [`BySize`] makes room for (≈ 5 KiB of checkpoints): the
/// most spare capacity it ever carries, against one reallocation per 32
/// releases.
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

    #[cfg(test)]
    fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, value)| value)
    }
}

/// Per-domain audit state: the log public key and the latest verified
/// checkpoint with all checkpoints ever accepted (for equivocation hunting).
struct DomainState {
    /// The domain's pinned log key, with its table once it has one.
    key: KeptKey,
    latest: Option<SignedCheckpoint>,
    /// All correctly signed checkpoints seen, by size — equivocation is
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
    /// The reference the skip rule is tested against: an auditor that
    /// recognises nothing and verifies every signature it is shown.
    #[cfg(test)]
    verify_everything: bool,
}

impl DomainState {
    /// The one "verify a signed head once" rule, under every ingest path:
    /// `cp` is byte-identical — body **and** signature — to a checkpoint
    /// this auditor already verified under the domain's key, so verifying
    /// it again could only repeat the answer. The same body under
    /// different signature bytes is not known.
    fn already_verified(&self, cp: &SignedCheckpoint) -> bool {
        #[cfg(test)]
        if self.verify_everything {
            return false;
        }
        self.seen.get(&cp.body.size) == Some(cp)
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
        // 2. Equivocation inside the batch.
        for (i, a) in cps.iter().enumerate() {
            for b in &cps[i + 1..] {
                if a.body.size == b.body.size
                    && a.body.log_id == b.body.log_id
                    && a.body.head != b.body.head
                {
                    return Some(Misbehavior::Equivocation {
                        domain,
                        proof: EquivocationProof {
                            a: a.clone(),
                            b: b.clone(),
                        },
                    });
                }
            }
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
        //    prefix — exactly what the per-step path flags when a served
        //    checkpoint goes backwards (a stale cached bundle, or a stale
        //    entry smuggled into an otherwise-fresh bundle).
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

/// A stateful cross-domain log auditor.
pub struct Auditor {
    domains: Vec<DomainState>,
    /// Sizes at which two domains' remembered checkpoints were found to
    /// disagree about the head, judged as each was remembered. A size
    /// stays here until [`Auditor::cross_check`] finds it agreeing: an
    /// entry of `seen` can be overwritten (a checkpoint under another
    /// `log_id` is no equivocation), so a verdict can change afterwards.
    divergent: BTreeSet<u64>,
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
                    #[cfg(test)]
                    verify_everything: false,
                })
                .collect(),
            divergent: BTreeSet::new(),
        }
    }

    /// Puts `checkpoint` into `domain`'s `seen` and judges its size
    /// against every other domain's checkpoint there — the one way into
    /// `seen`, so that [`Self::cross_check`] never has to walk it.
    fn remember(&mut self, domain: usize, checkpoint: SignedCheckpoint) {
        let (size, head) = (checkpoint.body.size, checkpoint.body.head);
        let Some(state) = self.domains.get_mut(domain) else {
            return;
        };
        state.seen.insert(size, checkpoint);
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
    /// nothing — it is remembered, to be compared against from now on.
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

    /// Ingests one signed checkpoint from `domain`, with a consistency
    /// proof against the previously verified checkpoint when one exists
    /// (`proof` may be `None` for a first observation).
    pub fn observe(
        &mut self,
        domain: u32,
        checkpoint: SignedCheckpoint,
        proof: Option<&ConsistencyProof>,
    ) -> AuditOutcome {
        let Some(state) = self.domains.get_mut(domain as usize) else {
            return AuditOutcome::Misbehavior(Box::new(Misbehavior::BadSignature {
                domain,
                checkpoint,
            }));
        };
        if state.already_verified(&checkpoint) {
            // Re-serving the latest verified checkpoint (the steady
            // state) falls through the checks below to `Consistent`; an
            // older known one is still a rollback.
            state.cache.note_skipped();
        } else if SignedCheckpoint::verify_all_kept(&[&checkpoint], &mut state.key).is_err() {
            return AuditOutcome::Misbehavior(Box::new(Misbehavior::BadSignature {
                domain,
                checkpoint,
            }));
        } else {
            state.cache.note_signature();
        }
        // Equivocation hunt: same size, different head, both signed.
        if let Some(prior) = state.seen.get(&checkpoint.body.size) {
            if prior.body.head != checkpoint.body.head
                && prior.body.log_id == checkpoint.body.log_id
            {
                let proof = EquivocationProof {
                    a: prior.clone(),
                    b: checkpoint.clone(),
                };
                return AuditOutcome::Misbehavior(Box::new(Misbehavior::Equivocation {
                    domain,
                    proof,
                }));
            }
        }
        if let Some(trusted) = &state.latest {
            if checkpoint.body.size < trusted.body.size {
                return AuditOutcome::Misbehavior(Box::new(Misbehavior::Rollback {
                    domain,
                    trusted_size: trusted.body.size,
                    offered_size: checkpoint.body.size,
                }));
            }
            if checkpoint.body.size == trusted.body.size {
                // Same size: heads must match (the equivocation check above
                // already caught the conflicting case for stored sizes).
                if checkpoint.body.head != trusted.body.head {
                    let proof = EquivocationProof {
                        a: trusted.clone(),
                        b: checkpoint.clone(),
                    };
                    return AuditOutcome::Misbehavior(Box::new(Misbehavior::Equivocation {
                        domain,
                        proof,
                    }));
                }
            } else {
                // Growth requires a valid consistency proof — except from
                // size 0: the empty tree is a prefix of every tree, so
                // growth from it is vacuously consistent (RFC 6962 defines
                // no proof for old_size = 0).
                let ok = trusted.body.size == 0
                    || match proof {
                        Some(p) => {
                            state.cache.note_consistency();
                            p.old_size == trusted.body.size
                                && p.new_size == checkpoint.body.size
                                && p.verify(&trusted.body.head, &checkpoint.body.head)
                        }
                        None => false,
                    };
                if !ok {
                    return AuditOutcome::Misbehavior(Box::new(Misbehavior::InconsistentGrowth {
                        domain,
                        trusted: trusted.clone(),
                        offered: checkpoint.clone(),
                    }));
                }
            }
        }
        state
            .cache
            .record(checkpoint.body.size, checkpoint.body.head);
        state.latest = Some(checkpoint.clone());
        self.remember(domain as usize, checkpoint);
        AuditOutcome::Consistent
    }

    /// Ingests a whole [`CheckpointBundle`] from `domain` — the batched
    /// equivalent of calling [`Auditor::observe`] once per checkpoint with
    /// the pairwise consistency proofs, with identical accept/flag
    /// behaviour, but without re-verifying anything at or below the
    /// already-verified prefix (see [`VerifiedPrefixCache`]).
    ///
    /// Checks, in order: signatures on every checkpoint not already
    /// verified byte-for-byte; equivocation both *inside* the bundle and
    /// against all previously seen checkpoints (yielding a transferable
    /// [`Misbehavior::Equivocation`] proof, exactly as in the per-step
    /// path); structural validity (strictly ascending sizes); rollback of
    /// the freshest checkpoint below the trusted size; and one
    /// consistency-proof verification per size transition above the
    /// verified prefix.
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
    /// Unlike [`Auditor::observe`], gossip makes no freshness or growth
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
    /// the releases the auditor has seen.
    pub fn cross_check(&mut self) -> AuditOutcome {
        if self.domains.iter().filter(|d| d.latest.is_some()).count() < 2 {
            return AuditOutcome::Consistent;
        }
        let domains = &self.domains;
        let views_at = |size: u64| -> Vec<(u32, &SignedCheckpoint)> {
            let at = domains.iter().map(|d| d.seen.get(&size));
            at.enumerate()
                .filter_map(|(i, cp)| Some((i as u32, cp?)))
                .collect()
        };
        self.divergent.retain(|&size| {
            let views = views_at(size);
            views
                .iter()
                .any(|(_, cp)| cp.body.head != views[0].1.body.head)
        });
        match self.divergent.first() {
            Some(&size) => {
                AuditOutcome::Misbehavior(Box::new(Misbehavior::CrossDomainDivergence {
                    views: views_at(size)
                        .into_iter()
                        .map(|(i, cp)| (i, cp.clone()))
                        .collect(),
                }))
            }
            None => AuditOutcome::Consistent,
        }
    }

    /// [`Self::cross_check`] as it was before it became incremental,
    /// rebuilding the buckets from every remembered checkpoint on each
    /// call — the reference the incremental check is tested against. (It
    /// walked a hash map, so which divergent size it reported was the
    /// map's iteration order; here it is the smallest.)
    #[cfg(test)]
    fn cross_check_by_rebuilding(&self) -> AuditOutcome {
        let mut views: Vec<(u32, &SignedCheckpoint)> = Vec::new();
        for (i, d) in self.domains.iter().enumerate() {
            if let Some(cp) = &d.latest {
                views.push((i as u32, cp));
            }
        }
        if views.len() < 2 {
            return AuditOutcome::Consistent;
        }
        let mut by_size: std::collections::BTreeMap<u64, Vec<(u32, &SignedCheckpoint)>> =
            std::collections::BTreeMap::new();
        for (i, d) in self.domains.iter().enumerate() {
            for cp in d.seen.values() {
                by_size
                    .entry(cp.body.size)
                    .or_default()
                    .push((i as u32, cp));
            }
        }
        for (_, group) in by_size {
            if group.len() < 2 {
                continue;
            }
            let head0 = group[0].1.body.head;
            if group.iter().any(|(_, cp)| cp.body.head != head0) {
                return AuditOutcome::Misbehavior(Box::new(Misbehavior::CrossDomainDivergence {
                    views: group.into_iter().map(|(i, cp)| (i, cp.clone())).collect(),
                }));
            }
        }
        AuditOutcome::Consistent
    }

    /// Domains whose pinned key's table this auditor has built (see
    /// [`KeptKey`]): a one-off ≈ 53 KB each, never per release.
    pub fn kept_tables(&self) -> usize {
        self.domains.iter().filter(|d| d.key.has_table()).count()
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
mod tests {
    use super::*;
    use crate::checkpoint::{log_id, CheckpointBody};
    use crate::merkle::MerkleLog;
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

    #[test]
    fn honest_growth_is_consistent() {
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        let cp1 = d.checkpoint();
        assert!(auditor.observe(0, cp1, None).is_consistent());
        d.log.append(b"v2");
        let cp2 = d.checkpoint();
        let proof = d.log.prove_consistency(1, 2).unwrap();
        assert!(auditor.observe(0, cp2, Some(&proof)).is_consistent());
    }

    #[test]
    fn growth_without_proof_flagged() {
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        let cp1 = d.checkpoint();
        auditor.observe(0, cp1, None);
        d.log.append(b"v2");
        let cp2 = d.checkpoint();
        match auditor.observe(0, cp2, None) {
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
        let _ = auditor.observe(0, cp, None);
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
        match auditor.observe(0, forged_cp, Some(&bogus_proof)) {
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
        auditor.observe(0, cp2, None);
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
        match auditor.observe(0, old, None) {
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
        auditor.observe(0, cp_honest, None);
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
        match auditor.observe(0, cp_fork, None) {
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
        match auditor.observe(0, cp, None) {
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
        use crate::batch::{CheckpointBundle, ProofBundle};
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
            let bundle = CheckpointBundle {
                checkpoints: vec![decoded.clone()],
                proof: ProofBundle::default(),
            };
            let mut auditor = auditor_for(std::slice::from_ref(&d));
            for outcome in [
                auditor.observe(0, decoded.clone(), None),
                auditor.observe_bundle(0, &bundle),
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
        assert!(auditor.observe(0, cp0, None).is_consistent());
        assert!(auditor.observe(1, cp1, None).is_consistent());
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
        auditor.observe(0, cp0, None);
        auditor.observe(1, cp1, None);
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
        auditor.observe(0, cp0, None);
        auditor.observe(1, cp1, None);
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
        assert!(auditor_a
            .observe(0, make_cp([0xaa; 32]), None)
            .is_consistent());
        assert!(auditor_b
            .observe(0, make_cp([0xbb; 32]), None)
            .is_consistent());
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
        assert!(auditor.observe(0, old_cp.clone(), None).is_consistent());
        assert!(auditor.observe(0, new_cp, Some(&proof)).is_consistent());
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
        use crate::batch::{CheckpointBundle, ProofBundle};
        // The per-step path flags any served checkpoint older than the
        // verified prefix as Rollback; a stale entry hidden inside an
        // otherwise-fresh bundle must be flagged identically.
        let mut d = Domain::new(0);
        let mut auditor = auditor_for(std::slice::from_ref(&d));
        d.log.append(b"v1");
        d.log.append(b"v2");
        let cp2 = d.checkpoint();
        assert!(auditor.observe(0, cp2.clone(), None).is_consistent());
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
        use crate::batch::{CheckpointBundle, ProofBundle};
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
        use crate::batch::{CheckpointBundle, ProofBundle};
        // A re-served checkpoint (same size, same head) is accepted by
        // the per-step path; a bundle containing the duplicate must be
        // too — only conflicting heads are evidence.
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

    mod verify_once {
        use super::*;
        use crate::batch::CheckpointBundle;
        use proptest::prelude::*;

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
            assert!(fresh.observe(0, head, None).is_consistent());
            let cache = fresh.prefix_cache(0).unwrap();
            assert_eq!((cache.signatures_verified(), cache.skipped()), (0, 1));
        }

        #[test]
        fn a_known_body_under_other_signature_bytes_is_verified_not_skipped() {
            let chain = Chain::new(1);
            let genuine = chain.epochs[0].clone();
            let mut auditor = auditor_for(std::slice::from_ref(&chain.domain));
            assert!(auditor.observe(0, genuine.clone(), None).is_consistent());
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
                match auditor.observe(0, tampered, None) {
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
            assert!(auditor
                .observe(0, chain.epochs[0].clone(), None)
                .is_consistent());
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

            /// The skip is exact: over arbitrary interleavings of bundle,
            /// per-step and gossip ingest of honest, repeated, stale,
            /// forged, bit-flipped and equivocating checkpoints, an
            /// auditor that recognises what it has verified answers every
            /// call exactly as one that verifies everything, and ends
            /// holding exactly the same checkpoints. So is the batch: a
            /// whole envelope's heads through one `ingest_gossip_heads`
            /// (one `verify_all` per domain, a stranger's domain index
            /// among them) against the reference taking them one by one.
            #[test]
            fn skipping_known_checkpoints_changes_no_outcome(
                ops in proptest::collection::vec((0u8..5, any::<u8>(), any::<u8>(), any::<u16>()), 1..24),
            ) {
                let mut chain = Chain::new(1);
                let keys = vec![chain.domain.sk.verifying_key()];
                let mut skipping = Auditor::new(keys.clone());
                let mut reference = Auditor::new(keys);
                reference.domains[0].verify_everything = true;

                for (op, pick, kind, bit) in ops {
                    let picked = chain.epochs[pick as usize % chain.epochs.len()].clone();
                    let verified = skipping.latest(0).map_or(0, |cp| cp.body.size);
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
                    let outcomes: Vec<String> = [&mut skipping, &mut reference]
                        .into_iter()
                        .enumerate()
                        .map(|(one_by_one, auditor)| match op {
                            4 if one_by_one == 0 => {
                                let heads: Vec<_> = envelope.iter().map(|(d, cp)| (*d, cp)).collect();
                                format!("{:?}", auditor.ingest_gossip_heads(&heads))
                            }
                            4 => {
                                let heads = envelope.iter().cloned();
                                let outcomes: Vec<_> =
                                    heads.map(|(d, cp)| auditor.ingest_gossip(d, cp)).collect();
                                format!("{outcomes:?}")
                            }
                            0 => {
                                let mut bundle = chain.bundle_for(verified);
                                let last = bundle.checkpoints.pop().expect("non-empty");
                                bundle.checkpoints.push(chain.variant(&last, kind, bit));
                                format!("{:?}", auditor.observe_bundle(0, &bundle))
                            }
                            1 => {
                                let cp = chain.variant(&picked, kind, bit);
                                format!("{:?}", auditor.ingest_gossip(0, cp))
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
                                format!("{:?}", auditor.observe(0, cp, proof.as_ref()))
                            }
                            _ => String::new(),
                        })
                        .collect();
                    prop_assert_eq!(&outcomes[0], &outcomes[1]);
                    if op == 3 {
                        chain.append();
                    }
                }
                prop_assert_eq!(&skipping.domains[0].seen, &reference.domains[0].seen);
                prop_assert_eq!(skipping.latest(0), reference.latest(0));
                prop_assert!(checks(&skipping) <= checks(&reference));
            }
        }
    }

    mod incremental_cross_check {
        use super::*;
        use crate::batch::CheckpointBundle;
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

        fn auditor_of(n: u32) -> Auditor {
            Auditor::new((0..n).map(|d| Domain::new(d).sk.verifying_key()).collect())
        }

        /// Both checks, which must agree; returns the verdict.
        fn cross_checked(auditor: &mut Auditor) -> AuditOutcome {
            let reference = auditor.cross_check_by_rebuilding();
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
            assert!(auditor
                .observe(0, signed(0, &honest, 2, false), None)
                .is_consistent());
            let proof = honest.prove_consistency(2, 3);
            assert!(auditor
                .observe(0, signed(0, &honest, 3, false), proof.as_ref())
                .is_consistent());
            assert_eq!(divergent_size(cross_checked(&mut auditor)), None);
            assert!(auditor
                .observe(1, signed(1, &honest, 3, false), None)
                .is_consistent());
            assert_eq!(divergent_size(cross_checked(&mut auditor)), Some(2));

            // Domain 2 itself, under another log id, on the honest history.
            assert!(auditor
                .observe(2, signed(2, &honest, 2, true), None)
                .is_consistent());
            assert_eq!(divergent_size(cross_checked(&mut auditor)), Some(3));
            assert!(auditor
                .observe(2, signed(2, &honest, 3, true), proof.as_ref())
                .is_consistent());
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
            /// rebuilding one, over arbitrary interleavings of per-step,
            /// bundle and gossip ingest on two to four domains, of either
            /// history, under either log id (so entries get overwritten),
            /// with domains met only through gossip, and with the check
            /// called after some operations and not others.
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
                    match op {
                        0 => {
                            let proof = (verified >= 1 && size > verified)
                                .then(|| history.prove_consistency(verified as usize, size as usize))
                                .flatten();
                            auditor.observe(d, signed(d, history, size, alias), proof.as_ref());
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
                            auditor.observe_bundle(d, &bundle);
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
                            auditor.ingest_gossip_heads(&heads);
                        }
                    }
                    if check {
                        let reference = format!("{:?}", auditor.cross_check_by_rebuilding());
                        prop_assert_eq!(format!("{:?}", auditor.cross_check()), reference);
                    }
                }
                let reference = format!("{:?}", auditor.cross_check_by_rebuilding());
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
