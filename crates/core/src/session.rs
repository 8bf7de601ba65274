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

use crate::client::{AuditReport, ClientError, DeploymentClient};
use crate::protocol::{Request, Response};
use distrust_crypto::bls;
use distrust_crypto::sha256::Digest;
use distrust_gossip::evidence::EvidenceBundle;
use distrust_gossip::witness::CosignedHeads;
use distrust_wire::codec::Encode;
use std::time::{Duration, Instant};

/// How many per-domain successes a fan-out needs before it is satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuorumPolicy {
    /// Every targeted domain must answer successfully. The fan-out still
    /// collects every response (slow domains bound the latency, but they
    /// bound it once, not `n` times as a sequential loop would).
    All,
    /// Satisfied as soon as this many domains answer **successfully**
    /// (an [`DomainOutcome::Ok`]); responses still in flight are
    /// abandoned. Failed domains do not count, but collection continues
    /// past them while unanswered domains remain.
    Threshold(usize),
}

/// Witness-quorum trust: accept one threshold-cosigned head vector in
/// place of the full batched audit.
///
/// A thin client under this policy verifies exactly **one** aggregated
/// BLS signature over the per-domain checkpoint heads — the work the
/// witness quorum already did on its behalf — instead of auditing all
/// `n` domains itself. The trust assumption shifts accordingly: the
/// client trusts that at least `t` of the witnesses honestly verified
/// each domain's checkpoint transition.
#[derive(Clone, Copy, Debug)]
pub struct WitnessedTrust {
    /// The witness quorum's group public key (from
    /// `FeldmanCommitments::public_key`). One signature under this key
    /// vouches for the whole head vector.
    pub quorum_pk: bls::PublicKey,
    /// The threshold `t` the quorum was generated with — recorded for
    /// reporting; the aggregated signature verifies (or not) regardless.
    pub t: usize,
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
    /// Accept a threshold-cosigned head vector
    /// ([`Session::install_cosigned_head`]) in place of the batched
    /// audit. `None` (the default) keeps the audit-based gate.
    pub witnessed: Option<WitnessedTrust>,
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
    /// `t`-of-`n` witness quorum instead of auditing every domain. The
    /// session refuses application traffic until a cosigned head is
    /// installed ([`Session::install_cosigned_head`]) or a full audit
    /// passes as a fallback.
    pub fn witnessed(quorum_pk: bls::PublicKey, t: usize) -> Self {
        Self {
            witnessed: Some(WitnessedTrust { quorum_pk, t }),
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

/// One application fan-out: method, payload(s), quorum, deadline, and
/// (optionally) a subset of domains to target.
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
    /// Wall-clock budget for the whole fan-out. A domain that accepted
    /// its request but has not answered when the budget runs out is given
    /// up on ([`DomainOutcome::Failed`], its response abandoned on the
    /// wire) instead of stalling the collection — without a budget, a
    /// hung-but-connected domain blocks an [`QuorumPolicy::All`] quorum
    /// forever. `None` (the default) waits indefinitely.
    pub deadline: Option<Duration>,
}

impl FanoutCall {
    /// Same payload to every domain; quorum [`QuorumPolicy::All`].
    pub fn broadcast(method: u64, payload: Vec<u8>) -> Self {
        Self {
            method,
            payloads: FanoutPayloads::Broadcast(payload),
            quorum: QuorumPolicy::All,
            targets: None,
            deadline: None,
        }
    }

    /// Per-domain payloads (index = domain); quorum [`QuorumPolicy::All`].
    pub fn per_domain(method: u64, payloads: Vec<Vec<u8>>) -> Self {
        Self {
            method,
            payloads: FanoutPayloads::PerDomain(payloads),
            quorum: QuorumPolicy::All,
            targets: None,
            deadline: None,
        }
    }

    /// Sets the quorum policy.
    pub fn quorum(mut self, quorum: QuorumPolicy) -> Self {
        self.quorum = quorum;
        self
    }

    /// Sets the fan-out's wall-clock budget (see [`FanoutCall::deadline`]).
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
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
    /// (connect failure, decode error, unexpected variant).
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

/// How long the quorum collector waits on one domain before moving to the
/// next, initially; doubles (up to [`POLL_MAX`]) whenever a full sweep of
/// pending domains makes no progress.
const POLL_START: Duration = Duration::from_micros(500);
/// Ceiling for the per-domain poll interval.
const POLL_MAX: Duration = Duration::from_millis(50);

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
    /// Per-domain refusal reason; `None` = trusted. Meaningful once
    /// `audited` (or immediately, for an open policy).
    refusals: Vec<Option<String>>,
    last_report: Option<AuditReport>,
    audited: bool,
    /// The last gating audit failed outright; every subsequent call
    /// re-audits (and keeps refusing) until one passes.
    gate_failed: bool,
    rounds_since_audit: u64,
    /// Per-domain refusal from out-of-band misbehavior evidence
    /// ([`Session::ingest_evidence`]). Unlike `refusals`, which every
    /// audit recomputes, a poisoned entry survives re-audits: a
    /// cryptographic conviction does not expire because a later audit
    /// round looked clean.
    poisoned: Vec<Option<String>>,
    /// The accepted cosigned head vector, when the policy is witnessed.
    cosigned: Option<CosignedHeads>,
    /// How many aggregated-cosignature verifications this session has
    /// performed — observable so tests (and cost accounting) can assert
    /// the witnessed fast path did exactly one.
    cosign_verifications: u64,
}

impl<'c> Session<'c> {
    /// Wraps a client in a trust-gated session. No I/O happens here; the
    /// gating audit runs lazily, before the first application call.
    pub fn new(client: &'c mut DeploymentClient, policy: TrustPolicy) -> Self {
        let n = client.descriptor().domains.len();
        Self {
            client,
            policy,
            refusals: vec![None; n],
            last_report: None,
            audited: false,
            gate_failed: false,
            rounds_since_audit: 0,
            poisoned: vec![None; n],
            cosigned: None,
            cosign_verifications: 0,
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
            .zip(&self.poisoned)
            .enumerate()
            .filter_map(|(d, (r, p))| (r.is_none() && p.is_none()).then_some(d as u32))
            .collect()
    }

    /// How many aggregated-cosignature verifications the session has
    /// performed. A witnessed thin client's first application call costs
    /// exactly one.
    pub fn cosign_verifications(&self) -> u64 {
        self.cosign_verifications
    }

    /// The cosigned head vector the session currently trusts, if any.
    pub fn cosigned_head(&self) -> Option<&CosignedHeads> {
        self.cosigned.as_ref()
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
        self.audited = true;
        self.gate_failed = true; // cleared on the success path below
        self.rounds_since_audit = 0;

        // Cryptographic misbehavior evidence (equivocation, rollback) is
        // not a per-domain nuance: the deployment is lying to somebody.
        // Refuse everything.
        if !report.misbehavior.is_empty() {
            let why = format!(
                "audit collected misbehavior evidence: {:?}",
                report.misbehavior
            );
            self.refusals = vec![Some(why.clone()); self.refusals.len()];
            self.last_report = Some(report);
            return Err(ClientError::AuditFailed(why));
        }

        let mut refusals = Vec::with_capacity(report.domains.len());
        for d in &report.domains {
            let reason = if let Some(failure) = &d.failure {
                Some(format!("audit failed: {failure}"))
            } else if d.status.is_none() {
                Some("audit returned no status".to_string())
            } else if self.policy.require_attested && !d.attested {
                Some("policy requires attestation; domain did not attest".to_string())
            } else if self
                .policy
                .pinned_app_digest
                .is_some_and(|pin| d.status.as_ref().is_some_and(|s| s.app_digest != pin))
            {
                Some("running code digest differs from pinned digest".to_string())
            } else {
                None
            };
            refusals.push(reason);
        }

        // The trusted survivors must agree among themselves on the running
        // code digest — if they diverge, the client cannot tell who is
        // honest, which is exactly the paper's detection condition.
        let digests: Vec<Digest> = report
            .domains
            .iter()
            .zip(&refusals)
            .filter(|(_, r)| r.is_none())
            .filter_map(|(d, _)| d.status.as_ref().map(|s| s.app_digest))
            .collect();
        if !distrust_log::digests_match(&digests) {
            let why = "trusted domains disagree on the running code digest".to_string();
            self.refusals = vec![Some(why.clone()); refusals.len()];
            self.last_report = Some(report);
            return Err(ClientError::AuditFailed(why));
        }

        // An audit that leaves nothing usable is a failed audit: the
        // session refuses application traffic outright.
        if refusals.iter().all(|r| r.is_some()) {
            let reasons: Vec<String> = refusals
                .iter()
                .enumerate()
                .filter_map(|(d, r)| r.as_ref().map(|r| format!("domain {d}: {r}")))
                .collect();
            self.refusals = refusals.clone();
            self.last_report = Some(report);
            return Err(ClientError::AuditFailed(format!(
                "no domain passed the trust policy ({})",
                reasons.join("; ")
            )));
        }

        self.refusals = refusals;
        self.last_report = Some(report);
        self.gate_failed = false;
        Ok(())
    }

    /// Ensures the trust state is fresh enough for one more call round,
    /// auditing (or re-auditing) if the policy demands it. After a failed
    /// gate, every round re-audits: the session keeps refusing — and
    /// keeps checking — until an audit passes.
    ///
    /// Under a witnessed policy an installed cosigned head
    /// ([`Session::install_cosigned_head`]) satisfies the gate without
    /// any audit traffic — that installation already marked the session
    /// audited, so the freshness check below passes until the head goes
    /// stale. A stale (or never-installed) witnessed session falls back
    /// to the full batched audit rather than refusing outright.
    fn ensure_trust(&mut self) -> Result<(), ClientError> {
        if !self.policy.audit_before_use {
            return Ok(());
        }
        if !self.audited || self.gate_failed || self.rounds_since_audit > self.policy.max_staleness
        {
            // Whatever cosigned head the session held no longer carries
            // the gate; a fresh one can be installed after the audit.
            self.cosigned = None;
            self.run_audit()?;
        }
        Ok(())
    }

    /// Why `domain` is currently refused, if it is. Evidence poisoning
    /// is checked first: a convicted domain stays refused no matter what
    /// the latest audit (or an installed cosigned head) says about it.
    fn refusal(&self, domain: u32) -> Option<&String> {
        self.poisoned
            .get(domain as usize)
            .and_then(|p| p.as_ref())
            .or_else(|| self.refusals.get(domain as usize).and_then(|r| r.as_ref()))
    }

    /// Installs a witness-cosigned head vector as this session's trust
    /// basis, verifying **one** aggregated BLS signature in place of the
    /// full batched audit.
    ///
    /// Requires a [`TrustPolicy::witnessed`] policy; checks that the
    /// vector covers exactly this deployment's domains and that the
    /// aggregated signature verifies under the quorum public key. On
    /// success every domain the vector covers is trusted — except
    /// domains already poisoned by transferable misbehavior evidence,
    /// which stay refused.
    pub fn install_cosigned_head(&mut self, cosigned: &CosignedHeads) -> Result<(), ClientError> {
        let Some(witnessed) = self.policy.witnessed else {
            return Err(ClientError::Unexpected(
                "install_cosigned_head requires a witnessed trust policy".into(),
            ));
        };
        let n = self.domain_count();
        if cosigned.heads.len() != n {
            return Err(ClientError::AuditFailed(format!(
                "cosigned head vector covers {} domains; deployment has {n}",
                cosigned.heads.len()
            )));
        }
        self.cosign_verifications += 1;
        if !cosigned.verify(&witnessed.quorum_pk) {
            self.gate_failed = true;
            return Err(ClientError::AuditFailed(
                "cosigned head vector failed aggregated signature verification".into(),
            ));
        }
        self.cosigned = Some(cosigned.clone());
        self.refusals = vec![None; n];
        self.audited = true;
        self.gate_failed = false;
        self.rounds_since_audit = 0;
        Ok(())
    }

    /// Ingests a transferable misbehavior bundle delivered out of band
    /// (gossip from a peer, a witness's evidence pool, a relay). If the
    /// proof verifies against the deployment's pinned checkpoint key for
    /// the accused domain, that domain is refused for the rest of the
    /// session — effective immediately, even between two fan-outs of an
    /// already-audited session. Returns whether the evidence verified.
    pub fn ingest_evidence(&mut self, bundle: &EvidenceBundle) -> bool {
        if !self.client.ingest_evidence(bundle) {
            return false;
        }
        if let Some(slot) = self.poisoned.get_mut(bundle.domain as usize) {
            *slot = Some("transferable equivocation evidence held against this domain".to_string());
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
    /// the quorum is satisfied.
    ///
    /// Returns `Err` only when the trust gate refuses the whole operation
    /// (failed audit, or no targeted domain trusted); per-domain failures
    /// land in the report's [`DomainOutcome`]s. Call
    /// [`FanoutReport::require`] to turn an unsatisfied quorum into an
    /// error.
    pub fn fanout(&mut self, call: &FanoutCall) -> Result<FanoutReport, ClientError> {
        self.ensure_trust()?;
        self.rounds_since_audit += 1;
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
            let reasons: Vec<String> = targets
                .iter()
                .filter_map(|&d| self.refusal(d).map(|r| format!("domain {d}: {r}")))
                .collect();
            return Err(ClientError::AuditFailed(format!(
                "no targeted domain passed the trust policy ({})",
                reasons.join("; ")
            )));
        }

        // Phase 2: collect until the quorum is satisfied. `All` counts
        // every *targeted* domain — a target the trust gate refused still
        // counts against satisfaction, so all-or-nothing apps cannot
        // silently under-deliver (a backup that skipped a refused domain
        // would quietly lower its own recovery margin).
        let required = match call.quorum {
            QuorumPolicy::All => targets.len(),
            QuorumPolicy::Threshold(t) => t,
        };
        let mut satisfied_count = 0usize;

        // Round-robin over pending domains with short timeouts so one
        // straggler cannot block a quorum the others already satisfy.
        // `Threshold` exits as soon as the quorum is met, abandoning
        // stragglers; `All` (and an unreachable quorum) keeps collecting
        // so the report carries every domain's actual answer. A deadline,
        // when set, bounds the whole collection: domains still silent at
        // expiry are given one final non-blocking read, then failed and
        // their responses abandoned — a hung-but-connected domain costs
        // the budget, never an indefinite stall.
        let deadline_at = call.deadline.map(|budget| Instant::now() + budget);
        let early_exit = matches!(call.quorum, QuorumPolicy::Threshold(_));
        let mut poll = POLL_START;
        while !pending.is_empty() {
            if early_exit && satisfied_count >= required {
                // Quorum satisfied with responses still in flight:
                // abandon them (drained off the wire on the connection's
                // next use). These are the domains a retry round may
                // re-ask ([`FanoutReport::abandoned`]).
                for d in pending.drain(..) {
                    self.client.abandon_response(d);
                    outcomes[d as usize] = DomainOutcome::Abandoned;
                }
                break;
            }
            let expired = deadline_at.is_some_and(|at| Instant::now() >= at);
            if expired {
                // Budget exhausted: one last non-blocking look at each
                // straggler (its answer may already be buffered), then
                // give up on whoever stayed silent.
                for d in pending.drain(..) {
                    match self.client.try_recv_raw(d, Duration::ZERO) {
                        Ok(Some(response)) => {
                            let outcome = Self::response_outcome(Ok(response));
                            if outcome.is_ok() {
                                satisfied_count += 1;
                            }
                            outcomes[d as usize] = outcome;
                        }
                        Ok(None) => {
                            self.client.abandon_response(d);
                            outcomes[d as usize] = DomainOutcome::Failed(
                                "fanout deadline exceeded before the domain answered".into(),
                            );
                        }
                        Err(e) => outcomes[d as usize] = Self::error_outcome(e),
                    }
                }
                break;
            }
            let mut progressed = false;
            let mut still_pending = Vec::with_capacity(pending.len());
            for d in pending {
                if early_exit && satisfied_count >= required {
                    still_pending.push(d);
                    continue;
                }
                let wait = match deadline_at {
                    Some(at) => poll.min(at.saturating_duration_since(Instant::now())),
                    None => poll,
                };
                match self.client.try_recv_raw(d, wait) {
                    Ok(Some(response)) => {
                        progressed = true;
                        let outcome = Self::response_outcome(Ok(response));
                        if outcome.is_ok() {
                            satisfied_count += 1;
                        }
                        outcomes[d as usize] = outcome;
                    }
                    Ok(None) => still_pending.push(d),
                    Err(e) => {
                        progressed = true;
                        outcomes[d as usize] = Self::error_outcome(e);
                    }
                }
            }
            pending = still_pending;
            if !progressed {
                poll = (poll * 2).min(POLL_MAX);
            }
        }

        Ok(FanoutReport {
            outcomes,
            quorum: call.quorum,
            satisfied: satisfied_count >= required,
            required,
        })
    }

    /// Threshold collection with app-level validation: broadcasts
    /// `method`/`payload` under [`QuorumPolicy::Threshold`] and keeps
    /// collecting until `need` responses pass validation or no domain is
    /// left to ask.
    ///
    /// A domain can answer successfully at the transport level and still
    /// fail validation — such answers do not count. Validation has two
    /// stages. `validate` looks at one answer on its own (a reply that
    /// does not parse, a refused recovery attempt). Once `need` values are
    /// held, `jointly` is handed the batch and removes what a check of the
    /// values *together* rejects (partial signatures whose aggregate does
    /// not verify have a culprit among them, which is only then worth
    /// finding); a caller with nothing to check jointly passes `|_| {}`.
    /// While fewer than `need` values are held, the next round re-asks
    /// only the domains whose responses were abandoned when the previous
    /// quorum was satisfied early — a domain whose answer was read is
    /// never asked again. Returns the values held at the end, possibly
    /// fewer than `need` when the deployment cannot provide them; the
    /// caller decides whether that is fatal.
    pub fn fanout_collect<T>(
        &mut self,
        method: u64,
        payload: Vec<u8>,
        need: usize,
        mut validate: impl FnMut(u32, &[u8]) -> Option<T>,
        mut jointly: impl FnMut(&mut Vec<T>),
    ) -> Result<Vec<T>, ClientError> {
        let mut collected = Vec::with_capacity(need);
        let mut targets: Option<Vec<u32>> = None; // None = all domains
        loop {
            let outstanding = need - collected.len();
            let mut call = FanoutCall::broadcast(method, payload.clone())
                .quorum(QuorumPolicy::Threshold(outstanding));
            if let Some(t) = &targets {
                call = call.targets(t.clone());
            }
            let report = self.fanout(&call)?;
            for (d, resp) in report.successes() {
                if collected.len() >= need {
                    break;
                }
                if let Some(value) = validate(d, resp) {
                    collected.push(value);
                }
            }
            if collected.len() >= need {
                jointly(&mut collected);
            }
            // Only domains whose answers were abandoned (quorum met
            // before they replied) are worth re-asking; everyone else has
            // already answered or failed.
            let retry = report.abandoned();
            if collected.len() >= need || retry.is_empty() {
                return Ok(collected);
            }
            targets = Some(retry);
        }
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
