//! Trust-gated, pipelined multi-domain sessions — the client surface the
//! paper actually argues for.
//!
//! §3.3's contract is *verify, then split trust*: a client should only use
//! a distributed-trust deployment after auditing it. The bare
//! [`DeploymentClient`] has no gate of its own (its raw
//! [`DeploymentClient::exchange`] sends any request frame, audited or
//! not) and would make multi-domain interaction a chore (a sequential
//! per-domain loop, so one slow domain serializes the whole operation). A
//! [`Session`] is the way to reach an application, and fixes both by
//! construction:
//!
//! * **Trust gating** — a [`TrustPolicy`] the session enforces: the
//!   batched audit runs before the first application call and is refreshed
//!   when stale, and domains that failed it are refused.
//! * **Pipelined fan-out** — [`Session::fanout`] puts every domain's
//!   request in flight before reading any response (one round-trip for the
//!   whole deployment instead of `n`), with broadcast or per-domain
//!   payloads, and returns structured per-domain [`DomainOutcome`]s
//!   instead of failing at the first error.
//! * **Quorum policies** — [`QuorumPolicy`] is evaluated inside the
//!   session, so threshold signing returns as soon as `t` partials arrive
//!   and key-backup recovery tolerates dead domains, without each app
//!   reimplementing the logic.
//! * **One bound on silence** — every wait for a domain, the gating
//!   audit's included, goes through the client's one collector and lasts
//!   at most [`SILENCE`]. A domain silent that long fails the call at
//!   hand and is refused by that round's audit, so a `t`-of-`n` call
//!   goes ahead on the rest; silence is never evidence, and the next
//!   audit the domain answers trusts it again.

use crate::client::{AuditReport, ClientError, DeploymentClient, Taken, CONVICTED, SILENCE};
use crate::protocol::{Request, Response};
use distrust_crypto::bls;
use distrust_crypto::sha256::Digest;
use distrust_gossip::evidence::EvidenceBundle;
use distrust_gossip::witness::CosignedHeads;
use distrust_wire::codec::Encode;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How many per-domain successes a fan-out needs before it is satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuorumPolicy {
    /// Every targeted domain must answer successfully. The fan-out still
    /// collects every response (slow domains bound the latency, but they
    /// bound it once, not `n` times as a sequential loop would, and a
    /// silent one for at most [`SILENCE`]).
    All,
    /// Satisfied as soon as this many domains answer **successfully**
    /// (an [`DomainOutcome::Ok`]); responses still in flight are
    /// abandoned. Failed domains do not count, but collection continues
    /// past them while unanswered domains remain.
    Threshold(usize),
}

/// What a session demands before it lets application traffic through.
///
/// The default policy ([`TrustPolicy::audited`]) runs the batched audit
/// before the first call of the session and trusts, for the rest of the
/// session, exactly the domains that passed it.
#[derive(Clone, Debug)]
pub struct TrustPolicy {
    /// Audit before the first application call (and refuse all calls if
    /// the audit collects misbehavior evidence or no domain passes).
    pub audit_before_use: bool,
    /// Maximum audit staleness, measured in application-call rounds
    /// ("epochs" of session activity): after this many rounds since the
    /// last audit, the next call re-audits first. `0` re-audits before
    /// every round; `u64::MAX` audits once per session.
    pub max_staleness: u64,
    /// Trust only domains whose TEE quote verified end-to-end. Excludes
    /// trust domain 0, which has no secure hardware — policies requiring
    /// attestation are for apps whose quorums live entirely in 1..n.
    pub require_attested: bool,
    /// Digest the running application code must match, computed by the
    /// client from published source (§3.3's "the developer open-sources
    /// her code"). Domains reporting any other digest are refused.
    pub pinned_app_digest: Option<Digest>,
    /// The witness quorum's group public key (from
    /// `FeldmanCommitments::public_key`), prepared once: accept a head
    /// vector cosigned under it ([`Session::install_cosigned_head`]) in
    /// place of the batched audit, without building the key's
    /// Miller-loop lines for every vector. `None` (the default) keeps the
    /// audit-based gate.
    pub witnessed: Option<bls::PreparedPublicKey>,
}

impl Default for TrustPolicy {
    fn default() -> Self {
        Self::audited()
    }
}

impl TrustPolicy {
    /// Audit once, before the first call; trust the domains that pass.
    pub fn audited() -> Self {
        Self {
            audit_before_use: true,
            max_staleness: u64::MAX,
            require_attested: false,
            pinned_app_digest: None,
            witnessed: None,
        }
    }

    /// [`Self::audited`], plus every domain must be running exactly
    /// `digest`.
    pub fn pinned(digest: Digest) -> Self {
        Self {
            pinned_app_digest: Some(digest),
            ..Self::audited()
        }
    }

    /// No gating at all — every domain is trusted blindly. For tooling
    /// and tests that deliberately talk to unaudited or misbehaving
    /// deployments; applications should not use this.
    pub fn open() -> Self {
        Self {
            audit_before_use: false,
            max_staleness: u64::MAX,
            require_attested: false,
            pinned_app_digest: None,
            witnessed: None,
        }
    }

    /// Witness-quorum gating: trust one aggregated cosignature from a
    /// threshold witness quorum instead of auditing every domain. The
    /// client trusts that enough witnesses honestly verified each
    /// domain's checkpoint transition — and witnesses check heads only,
    /// so a cosigned head vouches for nothing else. The session refuses
    /// application traffic until a cosigned head is installed
    /// ([`Session::install_cosigned_head`]) or a full audit passes as a
    /// fallback; a policy that also asks about code (attestation, a pin)
    /// is answered only by that audit. The key is prepared here, once.
    pub fn witnessed(quorum_pk: bls::PublicKey) -> Self {
        Self {
            witnessed: Some(bls::PreparedPublicKey::new(quorum_pk)),
            ..Self::audited()
        }
    }

    /// Re-audit after `rounds` application-call rounds.
    pub fn with_max_staleness(mut self, rounds: u64) -> Self {
        self.max_staleness = rounds;
        self
    }

    /// Require an end-to-end-verified TEE quote per trusted domain.
    pub fn with_require_attested(mut self) -> Self {
        self.require_attested = true;
        self
    }
}

/// The payloads of one fan-out: one blob for everyone, or one per domain.
#[derive(Clone, Debug)]
pub enum FanoutPayloads {
    /// Every domain receives the same payload, encoded once.
    Broadcast(Vec<u8>),
    /// Domain `d` receives `payloads[d]` (length must equal the
    /// deployment's domain count; non-targeted entries are ignored).
    /// Secret-sharing apps need this: each domain's share differs.
    PerDomain(Vec<Vec<u8>>),
}

/// One application fan-out: method, payload(s), quorum, and (optionally)
/// a subset of domains to target. Every fan-out waits at most
/// [`SILENCE`] for the domains it asks.
#[derive(Clone, Debug)]
pub struct FanoutCall {
    /// Method selector passed to the guest.
    pub method: u64,
    /// Broadcast or per-domain payloads.
    pub payloads: FanoutPayloads,
    /// When the fan-out counts as satisfied.
    pub quorum: QuorumPolicy,
    /// Domains to target; `None` targets the whole deployment.
    pub targets: Option<Vec<u32>>,
}

impl FanoutCall {
    /// Same payload to every domain; quorum [`QuorumPolicy::All`].
    pub fn broadcast(method: u64, payload: Vec<u8>) -> Self {
        Self {
            method,
            payloads: FanoutPayloads::Broadcast(payload),
            quorum: QuorumPolicy::All,
            targets: None,
        }
    }

    /// Per-domain payloads (index = domain); quorum [`QuorumPolicy::All`].
    pub fn per_domain(method: u64, payloads: Vec<Vec<u8>>) -> Self {
        Self {
            method,
            payloads: FanoutPayloads::PerDomain(payloads),
            quorum: QuorumPolicy::All,
            targets: None,
        }
    }

    /// Sets the quorum policy.
    pub fn quorum(mut self, quorum: QuorumPolicy) -> Self {
        self.quorum = quorum;
        self
    }

    /// Restricts the fan-out to a subset of domains (retry rounds, reads
    /// from specific replicas).
    pub fn targets(mut self, targets: Vec<u32>) -> Self {
        self.targets = Some(targets);
        self
    }
}

/// What one domain did with its fan-out request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DomainOutcome {
    /// The application answered; its outbox bytes.
    Ok(Vec<u8>),
    /// The domain answered with an application error (trap, oversized
    /// payload, …). The connection is fine.
    AppError(String),
    /// The connection was lost before this domain answered — distinct
    /// from [`Self::AppError`]: nothing came back, and any other requests
    /// in flight on the same connection died with it.
    ConnectionLost(String),
    /// The request could not be sent or the response was unusable
    /// (connect failure, decode error, unexpected variant), or the domain
    /// stayed silent for [`SILENCE`].
    Failed(String),
    /// The session's trust policy refused this domain; no request was
    /// sent.
    Untrusted(String),
    /// The quorum was satisfied before this domain answered; its response
    /// will be discarded when it arrives.
    Abandoned,
    /// The fan-out did not target this domain.
    NotTargeted,
}

impl DomainOutcome {
    /// `true` for [`Self::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, Self::Ok(_))
    }
}

/// Structured result of one fan-out: a per-domain outcome (index =
/// domain), never a first-error bail-out.
#[derive(Debug)]
pub struct FanoutReport {
    /// Outcome per domain, index-ordered over the whole deployment.
    pub outcomes: Vec<DomainOutcome>,
    /// The quorum policy this fan-out ran under.
    pub quorum: QuorumPolicy,
    /// Whether the quorum was satisfied.
    pub satisfied: bool,
    /// Domains the quorum required.
    pub required: usize,
}

impl FanoutReport {
    /// Successful domains and their response payloads, domain-ordered.
    pub fn successes(&self) -> impl Iterator<Item = (u32, &[u8])> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(d, o)| match o {
                DomainOutcome::Ok(payload) => Some((d as u32, payload.as_slice())),
                _ => None,
            })
    }

    /// Number of successful domains.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }

    /// Domains whose responses were abandoned when the quorum was
    /// satisfied early — the natural retry set when app-level validation
    /// rejects some of the successes.
    pub fn abandoned(&self) -> Vec<u32> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(d, o)| matches!(o, DomainOutcome::Abandoned).then_some(d as u32))
            .collect()
    }

    /// The outcome for one domain.
    pub fn outcome(&self, domain: u32) -> Option<&DomainOutcome> {
        self.outcomes.get(domain as usize)
    }

    /// Errors unless the quorum was satisfied.
    pub fn require(&self) -> Result<(), ClientError> {
        if self.satisfied {
            Ok(())
        } else {
            Err(ClientError::QuorumNotMet {
                satisfied: self.ok_count(),
                required: self.required,
            })
        }
    }
}

/// A trust-gated window of application traffic against one deployment.
///
/// Obtained from [`DeploymentClient::session`]. The session audits before
/// the first application call (per its [`TrustPolicy`]), refuses domains
/// that failed the audit, and fans application calls out to all domains
/// with every request in flight before any response is read.
///
/// ```no_run
/// use distrust_core::client::DeploymentClient;
/// use distrust_core::session::{FanoutCall, QuorumPolicy, TrustPolicy};
/// # fn demo(client: &mut DeploymentClient) -> Result<(), distrust_core::ClientError> {
/// let mut session = client.session(TrustPolicy::audited());
/// // The audit has not run yet — it runs before the first call, and the
/// // call is refused if it fails.
/// let report = session.fanout(
///     &FanoutCall::broadcast(1, b"payload".to_vec()).quorum(QuorumPolicy::Threshold(2)),
/// )?;
/// for (domain, payload) in report.successes() {
///     println!("domain {domain} answered {payload:?}");
/// }
/// # Ok(())
/// # }
/// ```
pub struct Session<'c> {
    client: &'c mut DeploymentClient,
    policy: TrustPolicy,
    /// Per-domain refusal reason; `None` = trusted. Written by [`gate`]
    /// and, between gates, by [`Session::ingest_evidence`].
    refusals: Vec<Option<String>>,
    last_report: Option<AuditReport>,
    /// The last gate — audit or cosigned head — passed.
    passed: bool,
    rounds_since_audit: u64,
    /// How many aggregated-cosignature verifications this session has
    /// performed — observable so tests (and cost accounting) can assert
    /// the witnessed fast path did exactly one.
    cosign_verifications: u64,
    /// What the threshold calls ([`Session::fanout_collect`]) of each
    /// method have seen, kept apart so that one method's refusals and
    /// latencies do not rank domains or time hedges for another.
    rankings: HashMap<u64, Ranking>,
}

/// What a session's threshold calls of one method have seen.
struct Ranking {
    /// What the last call saw of each domain: the order in which the
    /// next asks them.
    seen: Vec<Seen>,
    /// The slowest answer a call has counted; twice it, held between
    /// `SILENCE / 16` and `SILENCE / 2`, is how long the asked domains
    /// have before every spare is asked.
    slowest: Option<Duration>,
}

/// What a session last saw of one domain in a threshold call
/// ([`Session::fanout_collect`]), in the order the next call asks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Seen {
    /// Its answer counted.
    Counted,
    /// The call had what it needed before this domain answered.
    Abandoned,
    /// Never asked.
    Unasked,
    /// It failed, was still silent at the call's hedge point, or its
    /// answer was refused by the call's checks (caught lying).
    Failed,
}

/// The session's one trust decision, for both gates. `audit` is what
/// established trust: a gating audit's report, or `None` for a cosigned
/// head vector whose aggregate verified — which vouches for heads only,
/// so a policy asking about code refuses every domain under it.
/// `convicted[d]` says whether the client holds evidence against domain
/// `d`. Returns the per-domain refusals (`None` = trusted), or `Err` when
/// the gate fails outright.
fn gate(
    policy: &TrustPolicy,
    audit: Option<&AuditReport>,
    convicted: &[bool],
) -> Result<Vec<Option<String>>, String> {
    // Cryptographic misbehavior evidence (equivocation, rollback) is
    // not a per-domain nuance: the deployment is lying to somebody.
    // Refuse everything.
    if let Some(report) = audit.filter(|r| !r.misbehavior.is_empty()) {
        return Err(format!(
            "audit collected misbehavior evidence: {:?}",
            report.misbehavior
        ));
    }

    // A conviction outlives the session that learned of it: whatever
    // this gate saw, a convicted domain stays refused.
    let refusals: Vec<Option<String>> = convicted
        .iter()
        .enumerate()
        .map(|(i, &convicted)| {
            if convicted {
                return Some(CONVICTED.to_string());
            }
            let Some(report) = audit else {
                return if policy.require_attested {
                    Some("policy requires attestation; a cosigned head attests nothing".to_string())
                } else if policy.pinned_app_digest.is_some() {
                    Some("a cosigned head names no code".to_string())
                } else {
                    None
                };
            };
            let Some(d) = report.domains.get(i) else {
                return Some("audit returned no status".to_string());
            };
            if let Some(failure) = &d.failure {
                Some(format!("audit failed: {failure}"))
            } else if d.status.is_none() {
                Some("audit returned no status".to_string())
            } else if policy.require_attested && !d.attested {
                Some("policy requires attestation; domain did not attest".to_string())
            } else if policy
                .pinned_app_digest
                .is_some_and(|pin| d.status.as_ref().is_some_and(|s| s.app_digest != pin))
            {
                Some("running code digest differs from pinned digest".to_string())
            } else {
                None
            }
        })
        .collect();

    // The trusted survivors must agree among themselves on the running
    // code digest — if they diverge, the client cannot tell who is
    // honest, which is exactly the paper's detection condition.
    let digests: Vec<Digest> = audit
        .map_or(&[][..], |r| &r.domains)
        .iter()
        .zip(&refusals)
        .filter(|(_, r)| r.is_none())
        .filter_map(|(d, _)| d.status.as_ref().map(|s| s.app_digest))
        .collect();
    if !distrust_log::digests_match(&digests) {
        return Err("trusted domains disagree on the running code digest".to_string());
    }

    // A gate that leaves nothing usable is a failed gate: the session
    // refuses application traffic outright.
    if refusals.iter().all(|r| r.is_some()) {
        let reasons: Vec<String> = refusals
            .iter()
            .enumerate()
            .filter_map(|(d, r)| r.as_ref().map(|r| format!("domain {d}: {r}")))
            .collect();
        return Err(format!(
            "no domain passed the trust policy ({})",
            reasons.join("; ")
        ));
    }
    Ok(refusals)
}

impl<'c> Session<'c> {
    /// Wraps a client in a trust-gated session. No I/O happens here; the
    /// gating audit runs lazily, before the first application call. A
    /// domain the client already holds evidence against starts refused:
    /// a conviction outlives the session that learned of it, whatever
    /// gate — audit or cosigned head — the next session passes.
    pub fn new(client: &'c mut DeploymentClient, policy: TrustPolicy) -> Self {
        let refusals = (0..client.descriptor().domains.len() as u32)
            .map(|d| client.convicted(d).then(|| CONVICTED.to_string()))
            .collect();
        Self {
            client,
            policy,
            refusals,
            last_report: None,
            passed: false,
            rounds_since_audit: 0,
            cosign_verifications: 0,
            rankings: HashMap::new(),
        }
    }

    /// Number of trust domains in the deployment.
    pub fn domain_count(&self) -> usize {
        self.client.descriptor().domains.len()
    }

    /// The policy this session enforces.
    pub fn policy(&self) -> &TrustPolicy {
        &self.policy
    }

    /// The report of the most recent gating audit, if one has run.
    pub fn last_audit(&self) -> Option<&AuditReport> {
        self.last_report.as_ref()
    }

    /// Domains the current trust state accepts.
    pub fn trusted_domains(&self) -> Vec<u32> {
        self.refusals
            .iter()
            .enumerate()
            .filter_map(|(d, r)| r.is_none().then_some(d as u32))
            .collect()
    }

    /// How many aggregated-cosignature verifications the session has
    /// performed. A witnessed thin client's first application call costs
    /// exactly one.
    pub fn cosign_verifications(&self) -> u64 {
        self.cosign_verifications
    }

    /// Escape hatch to the underlying (un-gated) client — audits, gossip,
    /// log queries, update pushes.
    pub fn client(&mut self) -> &mut DeploymentClient {
        self.client
    }

    /// Forces a fresh gating audit now (normally it runs lazily). Returns
    /// the report on success; errs if the audit leaves no usable domain.
    pub fn refresh_trust(&mut self) -> Result<&AuditReport, ClientError> {
        self.run_audit()?;
        Ok(self.last_report.as_ref().expect("audit just ran"))
    }

    /// Runs the gating audit and recomputes per-domain trust.
    fn run_audit(&mut self) -> Result<(), ClientError> {
        let report = self.client.audit(self.policy.pinned_app_digest.as_ref());
        let verdict = gate(&self.policy, Some(&report), &self.convictions());
        self.last_report = Some(report);
        self.settle(verdict)
    }

    /// Which domains the client holds transferable evidence against.
    fn convictions(&self) -> Vec<bool> {
        (0..self.domain_count() as u32)
            .map(|d| self.client.convicted(d))
            .collect()
    }

    /// Takes a gate's verdict as the session's trust state. A failed gate
    /// refuses every domain until the next one passes.
    fn settle(&mut self, verdict: Result<Vec<Option<String>>, String>) -> Result<(), ClientError> {
        self.rounds_since_audit = 0;
        self.passed = verdict.is_ok();
        match verdict {
            Ok(refusals) => self.refusals = refusals,
            Err(why) => {
                self.refusals = vec![Some(why.clone()); self.domain_count()];
                return Err(ClientError::AuditFailed(why));
            }
        }
        Ok(())
    }

    /// Ensures the trust state is fresh enough for one more call round,
    /// auditing (or re-auditing) if the policy demands it. Until a gate —
    /// audit or cosigned head — has passed, after one fails, and once it
    /// is stale, every round re-audits: the session keeps refusing, and
    /// keeps checking, until an audit passes.
    fn ensure_trust(&mut self) -> Result<(), ClientError> {
        if !self.policy.audit_before_use {
            return Ok(());
        }
        if !self.passed || self.rounds_since_audit > self.policy.max_staleness {
            self.run_audit()?;
        }
        Ok(())
    }

    /// Why `domain` is currently refused, if it is.
    fn refusal(&self, domain: u32) -> Option<&String> {
        self.refusals.get(domain as usize).and_then(|r| r.as_ref())
    }

    /// Installs a witness-cosigned head vector as this session's trust
    /// basis, verifying **one** aggregated BLS signature in place of the
    /// full batched audit.
    ///
    /// Requires a [`TrustPolicy::witnessed`] policy. A vector that covers
    /// this deployment's domains and verifies under the quorum key goes
    /// through the same `gate` as an audit: convicted domains stay
    /// refused, and a policy requiring attestation or a pinned digest
    /// fails it. Any refusal leaves the session refusing until the
    /// fallback audit passes.
    pub fn install_cosigned_head(&mut self, cosigned: &CosignedHeads) -> Result<(), ClientError> {
        let Some(quorum_pk) = self.policy.witnessed.clone() else {
            return Err(ClientError::Unexpected(
                "install_cosigned_head requires a witnessed trust policy".into(),
            ));
        };
        let n = self.domain_count();
        let verdict = if cosigned.heads.len() != n {
            Err(format!(
                "cosigned head vector covers {} domains; deployment has {n}",
                cosigned.heads.len()
            ))
        } else {
            self.cosign_verifications += 1;
            if cosigned.verify(&quorum_pk) {
                gate(&self.policy, None, &self.convictions())
            } else {
                Err("cosigned head vector failed aggregated signature verification".into())
            }
        };
        self.settle(verdict)
    }

    /// Ingests a transferable misbehavior bundle delivered out of band
    /// (gossip from a peer, a witness's evidence pool, a relay). If the
    /// proof verifies against the deployment's pinned checkpoint key for
    /// the accused domain, that domain is refused for the rest of the
    /// session — effective immediately, even between two fan-outs of an
    /// already-audited session, and re-derived by every later gate from
    /// the client's evidence. Returns whether the evidence verified.
    pub fn ingest_evidence(&mut self, bundle: &EvidenceBundle) -> bool {
        if !self.client.ingest_evidence(bundle) {
            return false;
        }
        if let Some(slot) = self.refusals.get_mut(bundle.domain as usize) {
            *slot = Some(CONVICTED.to_string());
        }
        true
    }

    /// Trust-gated single-domain application call. Prefer
    /// [`Self::fanout`] for anything touching more than one domain.
    pub fn call(
        &mut self,
        domain: u32,
        method: u64,
        payload: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        self.ensure_trust()?;
        if let Some(reason) = self.refusal(domain) {
            return Err(ClientError::Untrusted {
                domain,
                reason: reason.clone(),
            });
        }
        self.rounds_since_audit += 1;
        self.client.call(domain, method, payload)
    }

    /// Pipelined fan-out: sends the call to every (targeted, trusted)
    /// domain before reading any response, then collects responses until
    /// the quorum is satisfied or [`SILENCE`] has passed.
    ///
    /// Returns `Err` only when the trust gate refuses the whole operation
    /// (failed audit, or no targeted domain trusted); per-domain failures
    /// land in the report's [`DomainOutcome`]s. Call
    /// [`FanoutReport::require`] to turn an unsatisfied quorum into an
    /// error.
    pub fn fanout(&mut self, call: &FanoutCall) -> Result<FanoutReport, ClientError> {
        self.ensure_trust()?;
        let n = self.domain_count();
        if let FanoutPayloads::PerDomain(payloads) = &call.payloads {
            if payloads.len() != n {
                return Err(ClientError::Unexpected(format!(
                    "per-domain fan-out needs one payload per domain: \
                     deployment has {n}, got {} (payloads are indexed by \
                     domain, even when targeting a subset)",
                    payloads.len()
                )));
            }
        }
        // Validate every target before Phase 1 sends anything: bailing out
        // mid-send would leave responses in flight that nothing collects
        // or abandons, desynchronising those connections. Duplicates are
        // dropped — one domain must not be able to satisfy a multi-domain
        // quorum by being listed twice.
        let mut targets: Vec<u32> = match &call.targets {
            Some(t) => t.clone(),
            None => (0..n as u32).collect(),
        };
        if let Some(&bad) = targets.iter().find(|&&d| d as usize >= n) {
            return Err(ClientError::NoSuchDomain(bad));
        }
        let mut seen = vec![false; n];
        targets.retain(|&d| !std::mem::replace(&mut seen[d as usize], true));
        let mut outcomes = vec![DomainOutcome::NotTargeted; n];

        // The broadcast frame is encoded exactly once.
        let broadcast_wire = match &call.payloads {
            FanoutPayloads::Broadcast(payload) => Some(
                Request::AppCall {
                    method: call.method,
                    payload: payload.clone(),
                }
                .to_wire(),
            ),
            FanoutPayloads::PerDomain(_) => None,
        };

        // Phase 1: every request in flight before any response is read.
        let mut pending: Vec<u32> = Vec::with_capacity(targets.len());
        let mut trusted_targets = 0usize;
        for &d in &targets {
            if let Some(reason) = self.refusal(d) {
                outcomes[d as usize] = DomainOutcome::Untrusted(reason.clone());
                continue;
            }
            trusted_targets += 1;
            let per_domain_wire;
            let wire: &[u8] = match (&broadcast_wire, &call.payloads) {
                (Some(w), _) => w,
                (None, FanoutPayloads::PerDomain(payloads)) => {
                    per_domain_wire = Request::AppCall {
                        method: call.method,
                        payload: payloads[d as usize].clone(),
                    }
                    .to_wire();
                    &per_domain_wire
                }
                (None, FanoutPayloads::Broadcast(_)) => unreachable!("encoded above"),
            };
            match self.client.send_raw(d, wire) {
                Ok(()) => pending.push(d),
                Err(e) => outcomes[d as usize] = Self::error_outcome(e),
            }
        }
        if trusted_targets == 0 {
            return Err(self.none_trusted(&targets));
        }
        // A round is counted only once requests went out: a fan-out
        // refused above cost the trust state nothing.
        self.rounds_since_audit += 1;

        // Phase 2: collect until the quorum is satisfied. `All` counts
        // every *targeted* domain — a target the trust gate refused still
        // counts against satisfaction, so all-or-nothing apps cannot
        // silently under-deliver (a backup that skipped a refused domain
        // would quietly lower its own recovery margin).
        let required = match call.quorum {
            QuorumPolicy::All => targets.len(),
            QuorumPolicy::Threshold(t) => t,
        };
        // The collector waits on every pending domain at once under a
        // `Threshold` quorum and stops once it is met; the stragglers left
        // in `pending` are abandoned (drained off the wire on the
        // connection's next use; the domains a retry round may re-ask,
        // [`FanoutReport::abandoned`]). A domain silent for [`SILENCE`]
        // fails this round instead of stalling it.
        let until = Instant::now() + SILENCE;
        let settle = |d: u32, answer| {
            outcomes[d as usize] = Self::response_outcome(answer);
            if outcomes[d as usize].is_ok() {
                Taken::Counted
            } else {
                Taken::Uncounted
            }
        };
        let satisfied = self
            .client
            .gather(&mut pending, call.quorum, until, None, settle);
        for d in pending {
            outcomes[d as usize] = DomainOutcome::Abandoned;
        }

        Ok(FanoutReport {
            outcomes,
            quorum: call.quorum,
            satisfied: satisfied >= required,
            required,
        })
    }

    /// Threshold collection with app-level validation: asks trusted
    /// domains for `method`/`payload` until `need` answers pass validation
    /// or no domain is left to ask.
    ///
    /// A warm call asks only `need` domains, the best the session ranks
    /// for `method`: in the order its last call of `method` saw them,
    /// those whose answers counted, then those abandoned, then those never
    /// asked, then those that failed, were still silent at a hedge point
    /// or were caught lying. A domain that fails or whose answer is
    /// refused is replaced at once by the next-ranked domain not yet
    /// asked, and if `need` answers have not counted by the **hedge
    /// point** every domain not yet asked is asked. The hedge point is the
    /// latest request plus twice the slowest answer the session's calls
    /// of `method` have counted, but never less than `SILENCE / 16` past
    /// it — a warm answer of a millisecond or two would otherwise leave
    /// the scheduler's jitter to decide whether every spare is asked — and
    /// never more than `SILENCE / 2`; until one answer of `method` has
    /// counted, every trusted domain is asked at once. Each domain asked has the
    /// full [`SILENCE`] from its own request, so a minority that fails,
    /// lies or goes silent cannot stop the call, and a healthy deployment
    /// answers each warm call with `need` requests instead of `n`.
    /// Rankings and hedge points are kept per method: a call whose every
    /// answer is refused (a recovery with a wrong token) ranks no domain
    /// down for another method.
    ///
    /// A domain can answer successfully at the transport level and still
    /// fail validation — such answers do not count. Validation has two
    /// stages. `validate` looks at one answer on its own (a reply that
    /// does not parse, a refused recovery attempt). Once `need` values are
    /// held, `jointly` is handed the batch, each value beside the domain
    /// that gave it, and removes what a check of the values *together*
    /// rejects (partial signatures whose aggregate does not verify have a
    /// culprit among them, which is only then worth finding); a caller
    /// with nothing to check jointly passes `|_| {}`. The domains it
    /// removes are caught lying, and are replaced as a failed domain is.
    /// A domain whose answer was read is never asked again; one whose
    /// answer was abandoned when the batch filled is asked again only once
    /// no domain is left that was never asked. Returns the values held at
    /// the end, possibly fewer than `need` when the deployment cannot
    /// provide them; the caller decides whether that is fatal.
    pub fn fanout_collect<T>(
        &mut self,
        method: u64,
        payload: Vec<u8>,
        need: usize,
        mut validate: impl FnMut(u32, &[u8]) -> Option<T>,
        mut jointly: impl FnMut(&mut Vec<(u32, T)>),
    ) -> Result<Vec<T>, ClientError> {
        // Chosen only among the domains this round's gate trusts, the
        // best-ranked last so that `pop` takes it.
        self.ensure_trust()?;
        let n = self.domain_count();
        let mut spares = self.trusted_domains();
        if spares.is_empty() {
            return Err(self.none_trusted(&(0..n as u32).collect::<Vec<_>>()));
        }
        let mut rank = self.rankings.remove(&method).unwrap_or(Ranking {
            seen: vec![Seen::Unasked; n],
            slowest: None,
        });
        spares.sort_by_key(|&d| Reverse((rank.seen[d as usize], d)));
        self.rounds_since_audit += 1;

        let wire = Request::AppCall { method, payload }.to_wire();
        // `None`: no answer to time a hedge by yet, so every domain is
        // asked at once.
        let hedge_after = rank
            .slowest
            .map(|slowest| (2 * slowest).clamp(SILENCE / 16, SILENCE / 2));
        let mut broadcast = hedge_after.is_none();
        let start = Instant::now();
        let (mut until, mut hedge) = (start + SILENCE, None);
        let mut sent_at = vec![start; n];
        let mut held: Vec<(u32, T)> = Vec::with_capacity(need);
        let (mut pending, mut abandoned, mut late) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            // Enough asked to fill the batch if each answers: never-asked
            // domains first, abandoned ones once none of those is left.
            let mut sent = false;
            while broadcast || pending.len() + held.len() < need {
                if spares.is_empty() {
                    spares = std::mem::take(&mut abandoned);
                }
                let Some(d) = spares.pop() else { break };
                match self.client.send_raw(d, &wire) {
                    Ok(()) => {
                        sent_at[d as usize] = Instant::now();
                        pending.push(d);
                        sent = true;
                    }
                    Err(_) => rank.seen[d as usize] = Seen::Failed,
                }
            }
            if pending.is_empty() {
                break;
            }
            if sent {
                // The newest request has the full bound, so one sent late
                // is never judged silent before it could answer; the hedge
                // point stays well inside it.
                let now = Instant::now();
                until = now + SILENCE;
                hedge = hedge_after.map(|wait| now + wait);
            }
            let replaceable = !spares.is_empty() || !abandoned.is_empty();
            let outstanding = need - held.len();
            let quorum = QuorumPolicy::Threshold(outstanding);
            let wake = hedge.filter(|_| !broadcast && replaceable);
            let counted = self
                .client
                .gather(&mut pending, quorum, until, wake, |d, answer| {
                    let value = match Self::response_outcome(answer) {
                        DomainOutcome::Ok(payload) => validate(d, &payload),
                        _ => None,
                    };
                    let Some(value) = value else {
                        rank.seen[d as usize] = Seen::Failed;
                        // Replaced now, not at the hedge point.
                        return if replaceable {
                            Taken::Return
                        } else {
                            Taken::Uncounted
                        };
                    };
                    rank.slowest = rank.slowest.max(Some(sent_at[d as usize].elapsed()));
                    held.push((d, value));
                    Taken::Counted
                });
            if counted < outstanding {
                // An answer to replace, the hedge point, or nobody left.
                if wake.is_some_and(|hedge| hedge <= Instant::now()) {
                    // Silent past it: ranked with the failed, unless its
                    // answer still comes and counts.
                    late.extend_from_slice(&pending);
                    broadcast = true;
                }
                continue;
            }
            // The batch is full; the answers still owed were abandoned.
            for &d in &pending {
                rank.seen[d as usize] = Seen::Abandoned;
            }
            abandoned.append(&mut pending);
            // What `jointly` removes was caught lying; what it keeps is
            // ranked as counted below.
            for &(d, _) in &held {
                rank.seen[d as usize] = Seen::Failed;
            }
            jointly(&mut held);
            if held.len() >= need {
                break;
            }
        }
        for &d in &late {
            rank.seen[d as usize] = Seen::Failed;
        }
        for &(d, _) in &held {
            rank.seen[d as usize] = Seen::Counted;
        }
        self.rankings.insert(method, rank);
        Ok(held.into_iter().map(|(_, value)| value).collect())
    }

    /// Why a call to `targets` was refused as a whole: none is trusted.
    fn none_trusted(&self, targets: &[u32]) -> ClientError {
        let reasons: Vec<String> = targets
            .iter()
            .filter_map(|&d| self.refusal(d).map(|r| format!("domain {d}: {r}")))
            .collect();
        ClientError::AuditFailed(format!(
            "no targeted domain passed the trust policy ({})",
            reasons.join("; ")
        ))
    }

    fn response_outcome(result: Result<Response, ClientError>) -> DomainOutcome {
        match result {
            Ok(Response::AppResult { payload }) => DomainOutcome::Ok(payload),
            Ok(Response::AppError(e)) => DomainOutcome::AppError(e),
            Ok(other) => DomainOutcome::Failed(format!("unexpected response: {other:?}")),
            Err(e) => Self::error_outcome(e),
        }
    }

    fn error_outcome(e: ClientError) -> DomainOutcome {
        match e {
            ClientError::ConnectionLost(e) => DomainOutcome::ConnectionLost(e.to_string()),
            other => DomainOutcome::Failed(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::DomainAudit;
    use crate::protocol::DomainStatus;
    use distrust_log::auditor::Misbehavior;

    const APP: Digest = [0xa1; 32];
    const OTHER: Digest = [0xee; 32];

    /// What one row expects of the gate.
    enum Expect {
        /// The gate passes and refuses no domain.
        Trusts,
        /// The gate passes and refuses exactly this domain, for this reason.
        Refuses(usize, &'static str),
        /// The gate fails outright with a reason containing this text.
        Fails(&'static str),
    }

    /// Name, policy, basis, convictions, expectation.
    type Row = (
        &'static str,
        TrustPolicy,
        Option<AuditReport>,
        [bool; 3],
        Expect,
    );

    /// A clean audit of three attested domains running [`APP`], edited.
    fn audit(edit: impl FnOnce(&mut AuditReport)) -> Option<AuditReport> {
        let domains = (0..3)
            .map(|index| DomainAudit {
                index,
                attested: true,
                status: Some(DomainStatus {
                    domain_index: index,
                    app_digest: APP,
                    app_version: 1,
                    log_size: 1,
                    log_head: [0; 32],
                    framework_measurement: [0; 32],
                }),
                failure: None,
            })
            .collect();
        let mut report = AuditReport {
            domains,
            digests_agree: true,
            misbehavior: Vec::new(),
            app_digest: Some(APP),
        };
        edit(&mut report);
        Some(report)
    }

    fn set_digest(report: &mut AuditReport, domain: usize, digest: Digest) {
        if let Some(status) = &mut report.domains[domain].status {
            status.app_digest = digest;
        }
    }

    /// One row per refusal reason, under each basis (an audit report, or
    /// a cosigned head: `None`) where it applies.
    #[test]
    fn the_gate_refuses_each_domain_for_its_reason() {
        let attested = TrustPolicy::audited().with_require_attested();
        let none = [false; 3];
        let rows: Vec<Row> = vec![
            (
                "clean audit",
                TrustPolicy::audited(),
                audit(|_| {}),
                none,
                Expect::Trusts,
            ),
            (
                "verified cosigned head",
                TrustPolicy::audited(),
                None,
                none,
                Expect::Trusts,
            ),
            (
                "convicted (audit)",
                TrustPolicy::audited(),
                audit(|_| {}),
                [false, true, false],
                Expect::Refuses(1, CONVICTED),
            ),
            (
                "convicted (cosigned)",
                TrustPolicy::audited(),
                None,
                [false, true, false],
                Expect::Refuses(1, CONVICTED),
            ),
            (
                "audit failure",
                TrustPolicy::audited(),
                audit(|r| r.domains[2].failure = Some("quote did not verify".into())),
                none,
                Expect::Refuses(2, "audit failed: quote did not verify"),
            ),
            (
                "no status",
                TrustPolicy::audited(),
                audit(|r| r.domains[2].status = None),
                none,
                Expect::Refuses(2, "audit returned no status"),
            ),
            (
                "not attested (audit)",
                attested.clone(),
                audit(|r| r.domains[0].attested = false),
                none,
                Expect::Refuses(0, "policy requires attestation; domain did not attest"),
            ),
            (
                "attests nothing (cosigned)",
                attested,
                None,
                none,
                Expect::Fails(
                    "domain 0: policy requires attestation; a cosigned head attests nothing",
                ),
            ),
            (
                "pin mismatch (audit)",
                TrustPolicy::pinned(APP),
                audit(|r| set_digest(r, 1, OTHER)),
                none,
                Expect::Refuses(1, "running code digest differs from pinned digest"),
            ),
            (
                "names no code (cosigned)",
                TrustPolicy::pinned(APP),
                None,
                none,
                Expect::Fails("domain 0: a cosigned head names no code"),
            ),
            (
                "survivors disagree",
                TrustPolicy::audited(),
                audit(|r| set_digest(r, 1, OTHER)),
                none,
                Expect::Fails("trusted domains disagree on the running code digest"),
            ),
            (
                "misbehavior evidence",
                TrustPolicy::audited(),
                audit(|r| {
                    r.misbehavior.push(Misbehavior::Rollback {
                        domain: 1,
                        trusted_size: 5,
                        offered_size: 4,
                    })
                }),
                none,
                Expect::Fails("audit collected misbehavior evidence"),
            ),
            (
                "all refused (audit)",
                TrustPolicy::audited(),
                audit(|r| r.domains.iter_mut().for_each(|d| d.status = None)),
                none,
                Expect::Fails(
                    "no domain passed the trust policy (domain 0: audit returned no status",
                ),
            ),
            (
                "all refused (cosigned)",
                TrustPolicy::audited(),
                None,
                [true; 3],
                Expect::Fails("no domain passed the trust policy (domain 0: transferable"),
            ),
        ];
        for (name, policy, report, convicted, expect) in rows {
            let verdict = gate(&policy, report.as_ref(), &convicted);
            match (expect, verdict) {
                (Expect::Trusts, Ok(refusals)) => {
                    assert_eq!(refusals, vec![None; 3], "{name}")
                }
                (Expect::Refuses(domain, reason), Ok(refusals)) => {
                    let mut want = vec![None; 3];
                    want[domain] = Some(reason.to_string());
                    assert_eq!(refusals, want, "{name}");
                }
                (Expect::Fails(reason), Err(why)) => {
                    assert!(why.contains(reason), "{name}: {why}")
                }
                (_, verdict) => panic!("{name}: unexpected verdict {verdict:?}"),
            }
        }
    }
}
