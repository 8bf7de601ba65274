//! The client/auditor library — the paper's user-side guarantee (§3.3):
//! "For each of the n trust domains, the client can obtain a digest of the
//! code that is currently running and a history of digests corresponding
//! to code that ran previously. The client can check that the digests
//! match across all n trust domains."

use crate::framework::framework_measurement;
use crate::protocol::{
    AttestationBinding, BundleAttestation, DomainStatus, Request, Response, UpdateNotice,
};
use crate::session::QuorumPolicy;
use distrust_crypto::schnorr::VerifyingKey;
use distrust_crypto::sha256::Digest;
use distrust_gossip::envelope::{GossipEnvelope, GossipHead};
use distrust_gossip::evidence::{EvidenceBundle, EvidencePool};
use distrust_log::auditor::{AuditOutcome, Auditor, Misbehavior};
use distrust_log::MerkleLog;
use distrust_tee::vendor::{VendorKind, VendorRoots};
use distrust_tee::KnownDevice;
use distrust_wire::codec::{Decode, Encode};
use distrust_wire::pipeline::PipelinedClient;
use distrust_wire::sys::{self, PollFd};
use distrust_wire::transport::TcpTransport;
use rand::RngCore;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// The longest the client waits on a trust domain: to connect, and for
/// the answers a call owes. A domain still silent then is given up on for
/// that call only. It loses its connection, which owes answers that may
/// never come, and an audit fails it with a reason naming this bound. But
/// silence is not evidence: nothing is convicted, the next call
/// reconnects, and the next audit it answers trusts it again. Two seconds
/// is over 16 times the slowest honest answer in a debug build (a 3-of-5
/// signing fan-out, ≈ 0.1 s), and a `Threshold` call stops waiting once
/// its quorum has answered. A warm threshold call
/// ([`crate::session::Session::fanout_collect`]) waits far less for a
/// domain that goes silent: at its hedge point, twice the slowest answer
/// the session has counted but never more than half this bound after its
/// latest request, it asks every spare domain, each request given this
/// whole bound from its sending.
pub const SILENCE: Duration = Duration::from_secs(2);

/// A connection carrying more abandoned-but-undrained responses than this
/// is reset instead of reused: the straggling server behind it owes so
/// many answers that a fresh connection is cheaper than draining them.
const MAX_ABANDONED_PER_CONN: u64 = 32;

/// Why a domain this client holds transferable evidence against is
/// refused, by an audit and by every session.
pub(crate) const CONVICTED: &str = "transferable equivocation evidence held against this domain";

/// What [`DeploymentClient::gather`] does after handing its caller an
/// answer.
pub(crate) enum Taken {
    /// The answer counts toward the quorum.
    Counted,
    /// It does not count; collecting goes on.
    Uncounted,
    /// Return now. The domains not yet settled stay pending, their
    /// answers still owed: the caller has something to do first (reissue
    /// to a lost connection) and collects again under the same deadline.
    Return,
}

/// What a client needs to know about one trust domain.
#[derive(Clone, Debug)]
pub struct DomainInfo {
    /// Domain index (0 = the developer's unattested domain).
    pub index: u32,
    /// Where to connect.
    pub addr: SocketAddr,
    /// Expected secure-hardware vendor; `None` for trust domain 0.
    pub vendor: Option<VendorKind>,
    /// Pinned checkpoint-signing key.
    pub checkpoint_key: VerifyingKey,
}

/// Everything a client needs to audit and use a deployment. Distributed
/// out of band (the paper's open-source publication channel).
#[derive(Clone, Debug)]
pub struct DeploymentDescriptor {
    /// Application name.
    pub app_name: String,
    /// Developer's release-signing public key.
    pub developer_key: VerifyingKey,
    /// Pinned vendor attestation roots.
    pub vendor_roots: VendorRoots,
    /// The trust domains, index-ordered (0 first).
    pub domains: Vec<DomainInfo>,
}

impl DeploymentDescriptor {
    /// The framework measurement every TEE-backed domain must attest.
    pub fn expected_measurement(&self) -> Digest {
        framework_measurement(&self.developer_key, &self.app_name)
    }
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (typically: the domain could not be reached at
    /// all — connect refused, no route).
    Io(std::io::Error),
    /// An *established* pipelined connection to the domain was lost
    /// (disconnect, framing violation). Distinct from [`Self::App`]: the
    /// domain did not answer this request, and any other requests that
    /// were in flight on the same connection are gone with it. The client
    /// reconnects on the next use.
    ConnectionLost(distrust_wire::TransportError),
    /// The domain let [`SILENCE`] pass without answering. It is given up
    /// on for this call, and its connection is dropped; it is not
    /// convicted of anything.
    Silent,
    /// Could not decode the response.
    Decode(distrust_wire::DecodeError),
    /// The domain answered, but not with the expected variant.
    Unexpected(String),
    /// The domain reported an application error.
    App(String),
    /// The domain rejected an update.
    UpdateRejected(String),
    /// Unknown domain index.
    NoSuchDomain(u32),
    /// The session's trust policy refuses this domain (it failed the most
    /// recent audit, or never passed one).
    Untrusted {
        /// The refused domain.
        domain: u32,
        /// Why the trust policy refuses it.
        reason: String,
    },
    /// The trust-gating audit failed outright: no usable domain survived
    /// it, or misbehavior evidence was collected. App calls are refused
    /// until an audit passes.
    AuditFailed(String),
    /// A fan-out finished without satisfying its quorum policy.
    QuorumNotMet {
        /// Domains that satisfied the policy's success criterion.
        satisfied: usize,
        /// Domains the policy required.
        required: usize,
    },
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::ConnectionLost(e) => write!(f, "connection lost: {e}"),
            Self::Silent => write!(f, "no answer before the SILENCE deadline ({SILENCE:?})"),
            Self::Decode(e) => write!(f, "decode error: {e}"),
            Self::Unexpected(what) => write!(f, "unexpected response: {what}"),
            Self::App(e) => write!(f, "application error: {e}"),
            Self::UpdateRejected(e) => write!(f, "update rejected: {e}"),
            Self::NoSuchDomain(i) => write!(f, "no such domain {i}"),
            Self::Untrusted { domain, reason } => {
                write!(f, "domain {domain} refused by trust policy: {reason}")
            }
            Self::AuditFailed(why) => write!(f, "trust-gating audit failed: {why}"),
            Self::QuorumNotMet {
                satisfied,
                required,
            } => write!(
                f,
                "quorum not met: {satisfied} of {required} required domains answered"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<distrust_wire::TransportError> for ClientError {
    fn from(e: distrust_wire::TransportError) -> Self {
        Self::ConnectionLost(e)
    }
}

/// Per-domain audit result.
#[derive(Debug)]
pub struct DomainAudit {
    /// Domain index.
    pub index: u32,
    /// `true` when a TEE quote verified end-to-end; trust domain 0 is
    /// always `false` (it has no hardware to verify).
    pub attested: bool,
    /// The (possibly attested) status snapshot.
    pub status: Option<DomainStatus>,
    /// Why the audit of this domain failed, if it did.
    pub failure: Option<String>,
}

impl DomainAudit {
    /// An audit of `index` that failed before any status was established.
    fn failed(index: u32, reason: String) -> Self {
        Self {
            index,
            attested: false,
            status: None,
            failure: Some(reason),
        }
    }
}

/// The outcome of one full audit round.
#[derive(Debug)]
pub struct AuditReport {
    /// Per-domain details, index-ordered.
    pub domains: Vec<DomainAudit>,
    /// All domains report the same running app digest.
    pub digests_agree: bool,
    /// Evidence of log misbehavior collected this round.
    pub misbehavior: Vec<Misbehavior>,
    /// The agreed app digest (when `digests_agree`).
    pub app_digest: Option<Digest>,
}

impl AuditReport {
    /// The paper's acceptance criterion: every domain passed its per-domain
    /// checks, all digests agree, and no misbehavior evidence was found.
    pub fn is_clean(&self) -> bool {
        self.domains
            .iter()
            .all(|d| d.failure.is_none() && d.status.is_some())
            && self.digests_agree
            && self.misbehavior.is_empty()
    }
}

/// A stateful client for one deployment: connects to all domains, audits,
/// calls the application, and pushes updates (when it is the developer).
///
/// Auditing is one exchange per domain (§3.3, Figure 2): a pipelined
/// [`Request::BatchAudit`] frame over a persistent connection returns
/// attestation, checkpoints, and a range consistency proof in a single
/// round-trip, and the auditor's verified-prefix cache skips everything it
/// has already checked. A domain that answers with anything else fails
/// the audit.
pub struct DeploymentClient {
    descriptor: DeploymentDescriptor,
    connections: Vec<Option<PipelinedClient>>,
    auditor: Auditor,
    /// Per domain, the device whose quote last verified in full: a quote
    /// under the byte-identical certificate skips the certificate check
    /// and the key decode (see [`distrust_tee::Quote::verify_remembering`]).
    devices: Vec<Option<KnownDevice>>,
    /// Transferable misbehavior evidence this client holds — produced by
    /// its own auditor or verified after arriving through gossip. Once a
    /// domain is convicted here, every subsequent audit reports it as
    /// failed: evidence does not expire with the round that found it.
    evidence: EvidencePool,
    rng: Box<dyn RngCore + Send>,
}

impl DeploymentClient {
    /// Creates a client; connections are opened lazily.
    pub fn new(descriptor: DeploymentDescriptor, rng: Box<dyn RngCore + Send>) -> Self {
        let auditor = Auditor::new(
            descriptor
                .domains
                .iter()
                .map(|d| d.checkpoint_key)
                .collect(),
        );
        let n = descriptor.domains.len();
        Self {
            descriptor,
            connections: (0..n).map(|_| None).collect(),
            auditor,
            devices: (0..n).map(|_| None).collect(),
            evidence: EvidencePool::new(),
            rng,
        }
    }

    /// The deployment descriptor.
    pub fn descriptor(&self) -> &DeploymentDescriptor {
        &self.descriptor
    }

    /// The auditor's verified-prefix cache for one domain: highest
    /// verified size plus performed/skipped verification counters — what
    /// tests and benches use to prove audit amortisation is real.
    pub fn auditor_prefix_cache(&self, domain: u32) -> Option<&distrust_log::VerifiedPrefixCache> {
        self.auditor.prefix_cache(domain)
    }

    /// `(verified, skipped)`: relayed heads (gossip envelopes from peers
    /// and bulletin boards) whose signature this client checked, and those
    /// it recognised byte for byte as already verified. With
    /// [`Self::auditor_prefix_cache`] this accounts for every checkpoint
    /// signature check the client performs.
    pub fn relayed_head_checks(&self) -> (u64, u64) {
        (
            self.auditor.relayed_verified(),
            self.auditor.relayed_skipped(),
        )
    }

    /// Signed checkpoints this client remembers, summed over domains
    /// (`Auditor::remembered`): at most `WINDOW_BELOW + WINDOW_ABOVE` per
    /// domain (`distrust_log::auditor`), however long it audits and
    /// whatever the boards relay.
    pub fn remembered_heads(&self) -> usize {
        self.auditor.remembered()
    }

    /// Key tables this client keeps: one per domain whose pinned
    /// checkpoint key it has built one of (`Auditor::kept_tables`), and
    /// one per attested domain whose device key it has — a one-off cost
    /// of its first audits.
    pub fn kept_key_tables(&self) -> usize {
        let devices = self.devices.iter().flatten();
        self.auditor.kept_tables() + devices.filter(|d| d.has_table()).count()
    }

    /// The persistent connection to `domain`, opened on first use (a
    /// connect that takes longer than [`SILENCE`] fails).
    fn connection(&mut self, domain: u32) -> Result<&mut PipelinedClient, ClientError> {
        let idx = domain as usize;
        let info = self
            .descriptor
            .domains
            .get(idx)
            .ok_or(ClientError::NoSuchDomain(domain))?;
        if self.connections[idx].is_none() {
            let transport = TcpTransport::new(TcpStream::connect_timeout(&info.addr, SILENCE)?)?;
            self.connections[idx] = Some(PipelinedClient::new(transport));
        }
        Ok(self.connections[idx].as_mut().expect("just connected"))
    }

    /// Sends one already-encoded request frame to one domain without
    /// waiting for the response — the building block of pipelined fan-out.
    /// On failure the connection is dropped (reopened on next use) and any
    /// responses still in flight on it are lost.
    pub(crate) fn send_raw(&mut self, domain: u32, wire: &[u8]) -> Result<(), ClientError> {
        let idx = domain as usize;
        // A connection drowning in abandoned responses (a repeatedly
        // outpaced straggler) is cheaper to replace than to drain.
        if self.connections.get(idx).is_some_and(|c| {
            c.as_ref()
                .is_some_and(|c| c.abandoned_pending() > MAX_ABANDONED_PER_CONN)
        }) {
            self.connections[idx] = None;
        }
        match self.connection(domain)?.send(wire) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.connections[idx] = None;
                Err(ClientError::ConnectionLost(e))
            }
        }
    }

    /// A response already decoded from `domain`, or one read of its
    /// socket when `readable` (a wait reported it); never waits. `None`:
    /// no complete response yet (partial bytes are retained by the
    /// transport — nothing desynchronises). A domain with no connection,
    /// or one lost now, is answered with the error.
    fn recv_ready(&mut self, domain: u32, readable: bool) -> Option<Result<Response, ClientError>> {
        let slot = &mut self.connections[domain as usize];
        let Some(conn) = slot else {
            return Some(Err(ClientError::NoSuchDomain(domain)));
        };
        match conn.recv_ready(readable).transpose()? {
            Ok(frame) => Some(Response::from_wire(&frame).map_err(ClientError::Decode)),
            Err(e) => {
                *slot = None;
                Some(Err(ClientError::ConnectionLost(e)))
            }
        }
    }

    /// The client's one collector: every receive it makes comes through
    /// here. Each domain in `pending` owes one answer; each answer, or
    /// the reason there is none, goes to `take`, which says whether it
    /// counts toward `quorum` or that the collector must return at once
    /// ([`Taken`]). Returns how many counted.
    ///
    /// A collection that needs every answer ([`QuorumPolicy::All`]) waits
    /// for an answer on the oldest pending socket only: it cannot end
    /// before that one answers, so a wait that wakes for no other answer
    /// costs one `poll` per answer. It also watches the other pending
    /// sockets for a hang-up, which no healthy socket reports, so that a
    /// lost connection behind a slow or silent domain is seen when it is
    /// lost. A
    /// `Threshold(t)` collection waits on every pending socket at once and
    /// stops once `t` answers counted; the stragglers it leaves in
    /// `pending` have their responses abandoned, drained off the wire on
    /// the connection's next use. Every pass reads only the sockets the
    /// wait reported, besides answers already decoded. At `until`, one
    /// last zero-timeout look at every pending socket takes whatever has
    /// arrived. A domain still silent after it loses its connection and
    /// is handed to `take` as [`ClientError::Silent`]. A collection given
    /// a `wake` before `until` returns then if it has not ended, as after
    /// [`Taken::Return`]: the domains not yet settled stay pending, their
    /// answers still owed.
    pub(crate) fn gather(
        &mut self,
        pending: &mut Vec<u32>,
        quorum: QuorumPolicy,
        until: Instant,
        wake: Option<Instant>,
        mut take: impl FnMut(u32, Result<Response, ClientError>) -> Taken,
    ) -> usize {
        let (every, needed) = match quorum {
            QuorumPolicy::All => (true, usize::MAX),
            QuorumPolicy::Threshold(t) => (false, t),
        };
        let mut counted = 0;
        // What the last wait looked at, one slot per pending domain.
        // Allocated once per collection, so no answer allocates.
        let mut fds: Vec<PollFd> = Vec::new();
        let mut last_look = false;
        let mut failed_wait: Option<std::io::ErrorKind> = None;
        let mut returning = false;
        loop {
            let mut reported = fds.iter();
            pending.retain(|&d| {
                let readable = reported.next().is_some_and(PollFd::ready);
                if counted >= needed || returning {
                    return true;
                }
                let answer = match self.recv_ready(d, readable) {
                    Some(answer) => answer,
                    None if !last_look => return true,
                    // Silent past the bound: it loses its connection, which
                    // owes an answer that may never come.
                    None => {
                        self.connections[d as usize] = None;
                        Err(failed_wait.map_or(ClientError::Silent, |e| ClientError::Io(e.into())))
                    }
                };
                match take(d, answer) {
                    Taken::Counted => counted += 1,
                    Taken::Uncounted => {}
                    Taken::Return => returning = true,
                }
                false
            });
            if returning {
                return counted;
            }
            // The last look settles every domain, unless the quorum is met.
            if pending.is_empty() || counted >= needed {
                break;
            }
            let now = Instant::now();
            if wake.is_some_and(|wake| wake <= now) {
                return counted;
            }
            let left = until.saturating_duration_since(now);
            last_look = left.is_zero();
            let answers_awaited = if every && !last_look { 1 } else { usize::MAX };
            // A pending domain always has its connection (losing it
            // settled the domain above); -1 is a slot `poll` skips.
            fds.clear();
            fds.extend(pending.iter().enumerate().map(|(i, &d)| {
                let conn = self.connections[d as usize].as_ref();
                let events = if i < answers_awaited {
                    sys::READ
                } else {
                    sys::HANG_UP
                };
                PollFd::new(conn.map_or(-1, AsRawFd::as_raw_fd), events)
            }));
            let timeout = wake.map_or(left, |wake| left.min(wake - now));
            if let Err(e) = sys::wait(&mut fds, Some(timeout)) {
                failed_wait = Some(e.kind());
                last_look = true;
            }
        }
        for &d in pending.iter() {
            if let Some(conn) = self.connections[d as usize].as_mut() {
                conn.abandon_next_response();
            }
        }
        counted
    }

    /// Sends one request to one domain.
    pub fn exchange(&mut self, domain: u32, request: &Request) -> Result<Response, ClientError> {
        self.send_raw(domain, &request.to_wire())?;
        // Overwritten: the collector settles every pending domain.
        let mut answer = Err(ClientError::NoSuchDomain(domain));
        let until = Instant::now() + SILENCE;
        self.gather(&mut vec![domain], QuorumPolicy::All, until, None, |_, a| {
            answer = a;
            Taken::Uncounted
        });
        answer
    }

    /// Calls the application on one domain, un-gated: the wire half of
    /// [`crate::session::Session::call`], which is the public way to reach
    /// an application — it audits before the first call.
    pub(crate) fn call(
        &mut self,
        domain: u32,
        method: u64,
        payload: &[u8],
    ) -> Result<Vec<u8>, ClientError> {
        match self.exchange(
            domain,
            &Request::AppCall {
                method,
                payload: payload.to_vec(),
            },
        )? {
            Response::AppResult { payload } => Ok(payload),
            Response::AppError(e) => Err(ClientError::App(e)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Opens a trust-gated session over this client (see
    /// [`crate::session::Session`]): the policy's audit runs before the
    /// first application call, by construction.
    pub fn session(&mut self, policy: crate::session::TrustPolicy) -> crate::session::Session<'_> {
        crate::session::Session::new(self, policy)
    }

    /// Pushes a signed release to every domain (the developer's update
    /// flow, Figure 2 left). Returns per-domain results.
    ///
    /// The release — module bytes included — is encoded exactly once and
    /// the same frame is fanned out to all `n` domains, every request in
    /// flight before any acknowledgement is read. A domain silent for
    /// [`SILENCE`] gets an `Err` naming the bound, and the push returns
    /// after at most that long.
    pub fn push_update(
        &mut self,
        release: &crate::manifest::SignedRelease,
    ) -> Vec<Result<(u64, Digest), ClientError>> {
        let wire = Request::encode_update(release);
        let n = self.descriptor.domains.len() as u32;
        // A sent domain's placeholder is overwritten by its answer, or by
        // its silence.
        let mut acks: Vec<_> = (0..n)
            .map(|d| self.send_raw(d, &wire).map(|()| (0, [0; 32])))
            .collect();
        let mut pending: Vec<u32> = (0..n).filter(|&d| acks[d as usize].is_ok()).collect();
        let until = Instant::now() + SILENCE;
        self.gather(&mut pending, QuorumPolicy::All, until, None, |d, answer| {
            acks[d as usize] = match answer {
                Ok(Response::UpdateAck { log_size, digest }) => Ok((log_size, digest)),
                Ok(Response::UpdateRejected(e)) => Err(ClientError::UpdateRejected(e)),
                Ok(other) => Err(ClientError::Unexpected(format!("{other:?}"))),
                Err(e) => Err(e),
            };
            Taken::Uncounted
        });
        acks
    }

    /// The size and root of the newest head this client has verified for
    /// `domain`: what a paged read of its log ends at and is held against.
    /// A client that has not audited the domain has nothing to hold its
    /// answers to, and is refused.
    fn verified_head(&self, domain: u32) -> Result<(u64, Digest), ClientError> {
        if domain as usize >= self.descriptor.domains.len() {
            return Err(ClientError::NoSuchDomain(domain));
        }
        let head = self.auditor.latest(domain).ok_or_else(|| {
            ClientError::AuditFailed(format!(
                "no verified head for domain {domain}: audit before reading its log"
            ))
        })?;
        Ok((head.body.size, head.body.head))
    }

    /// Fetches the update notices a domain issued at or after log index
    /// `since`, below the size of the newest head this client has verified
    /// for it ([`Self::audit`] first). The domain answers a page at a
    /// time, so this asks again past the last notice received until a page
    /// comes back empty or the verified size is reached. Every notice must
    /// name a later leaf than the one before it and one inside the
    /// verified log: a page that does not is refused, so no answer can
    /// hold the reader for more exchanges, or more memory, than the log it
    /// verified has leaves. A domain that has grown since the audit runs
    /// past the head — audit again and re-read.
    pub fn notices(&mut self, domain: u32, since: u64) -> Result<Vec<UpdateNotice>, ClientError> {
        let (size, _) = self.verified_head(domain)?;
        let mut all: Vec<UpdateNotice> = Vec::new();
        let mut since = since;
        while since < size {
            let page = match self.exchange(domain, &Request::GetNotices { since })? {
                Response::Notices(page) => page,
                other => return Err(ClientError::Unexpected(format!("{other:?}"))),
            };
            if page.is_empty() {
                break;
            }
            for notice in page {
                if notice.log_index < since || notice.log_index >= size {
                    return Err(ClientError::Unexpected(format!(
                        "domain {domain} answered a notice for leaf {} where only \
                         {since}..{size} can follow",
                        notice.log_index
                    )));
                }
                since = notice.log_index + 1;
                all.push(notice);
            }
        }
        Ok(all)
    }

    /// Fetches a domain's raw log leaves from index `from` up to the size
    /// of the newest head this client has verified for it
    /// ([`Self::audit`] first), page by page like [`Self::notices`]. A
    /// page that runs past that size, or an empty one short of it, is
    /// refused; and a read from index 0 is the whole signed log, so the
    /// RFC 6962 root over what came back must be the head that was signed
    /// — a domain cannot hand a reader leaves it never logged.
    pub fn log_entries(&mut self, domain: u32, from: u64) -> Result<Vec<Vec<u8>>, ClientError> {
        let (size, head) = self.verified_head(domain)?;
        if from > size {
            return Err(ClientError::AuditFailed(format!(
                "domain {domain}: index {from} is past the verified size {size}"
            )));
        }
        let mut all: Vec<Vec<u8>> = Vec::new();
        loop {
            let at = from + all.len() as u64;
            if at == size {
                break;
            }
            let page = match self.exchange(domain, &Request::GetLogEntries { from: at })? {
                Response::LogEntries(page) => page,
                other => return Err(ClientError::Unexpected(format!("{other:?}"))),
            };
            if page.is_empty() || page.len() as u64 > size - at {
                return Err(ClientError::Unexpected(format!(
                    "domain {domain} answered {} leaves at index {at} of a log it signed at \
                     size {size}",
                    page.len()
                )));
            }
            all.extend(page);
        }
        if from == 0 {
            let mut tree = MerkleLog::new();
            for leaf in &all {
                tree.append(leaf);
            }
            if tree.root() != head {
                return Err(ClientError::Unexpected(format!(
                    "domain {domain} served {size} leaves that are not the log it signed"
                )));
            }
        }
        Ok(all)
    }

    /// This client's latest verified checkpoints, one per domain it has
    /// audited — the heads of [`Self::gossip_envelope`] without the
    /// envelope, kept because `e2e/src/workloads.rs` reads them by this
    /// name. Peers are handed the envelope.
    pub fn gossip_payload(&self) -> Vec<(u32, distrust_log::SignedCheckpoint)> {
        self.auditor.gossip_payload()
    }

    /// Feeds relayed heads to the auditor, which verifies the unknown ones
    /// of each domain in one call under that domain's key. A relayed head
    /// can prove exactly one thing — that its domain signed two views of
    /// one size — so only that is reported (and kept as transferable
    /// evidence). A head that does not verify under the pinned key is
    /// noise: anyone can post one on a bulletin board, so it accuses
    /// nobody, changes no state and is never relayed onwards. (A bad
    /// signature inside a domain's *own* audit answer is that domain's
    /// doing and fails its audit — see [`Self::audit`].)
    fn ingest_relayed_heads(
        &mut self,
        heads: &[(u32, &distrust_log::SignedCheckpoint)],
    ) -> Vec<Misbehavior> {
        let mut found = Vec::new();
        for outcome in self.auditor.ingest_gossip_heads(heads) {
            let AuditOutcome::Misbehavior(m) = outcome else {
                continue;
            };
            if let Some(evidence) = EvidenceBundle::from_misbehavior(&m) {
                self.evidence.insert(evidence);
                found.push(*m);
            }
        }
        found
    }

    /// The gossip envelope this client would hand a peer (or piggyback on
    /// an audit): its latest verified checkpoint heads plus all
    /// transferable evidence it holds.
    pub fn gossip_envelope(&self) -> GossipEnvelope {
        GossipEnvelope {
            heads: self
                .auditor
                .gossip_payload()
                .into_iter()
                .map(|(domain, checkpoint)| GossipHead { domain, checkpoint })
                .collect(),
            evidence: self.evidence.items().to_vec(),
        }
    }

    /// Merges a peer's (or a domain bulletin board's) envelope: heads are
    /// checked for conflicts against everything this client has verified,
    /// and evidence is verified against the pinned checkpoint keys. Heads
    /// and evidence this client has already verified byte for byte cost a
    /// comparison; forged ones are dropped. Returns every *newly
    /// discovered* piece of misbehavior.
    pub fn ingest_envelope(&mut self, envelope: &GossipEnvelope) -> Vec<Misbehavior> {
        let heads: Vec<_> = envelope
            .heads
            .iter()
            .map(|head| (head.domain, &head.checkpoint))
            .collect();
        let mut found = self.ingest_relayed_heads(&heads);
        for bundle in &envelope.evidence {
            if self.ingest_evidence(bundle) {
                found.push(Misbehavior::Equivocation {
                    domain: bundle.domain,
                    proof: bundle.proof.clone(),
                });
            }
        }
        found
    }

    /// Verifies one transferable evidence bundle against the pinned
    /// checkpoint key of the accused domain and, if it holds, keeps it.
    /// Returns `true` when the bundle is valid **and new** — invalid
    /// bundles (including attempts to frame an honest domain) are dropped
    /// without effect, and a bundle already held is recognised before
    /// either of its signatures is checked again.
    pub fn ingest_evidence(&mut self, bundle: &EvidenceBundle) -> bool {
        let Some(info) = self.descriptor.domains.get(bundle.domain as usize) else {
            return false;
        };
        self.evidence.insert_verifying(bundle, &info.checkpoint_key)
    }

    /// The transferable evidence this client holds.
    pub fn evidence(&self) -> &[EvidenceBundle] {
        self.evidence.items()
    }

    /// Whether this client holds verified evidence convicting `domain`.
    pub fn convicted(&self, domain: u32) -> bool {
        self.evidence.convicts(domain)
    }

    /// One explicit epidemic exchange with `domain`: send this client's
    /// envelope, ingest whatever the domain's bulletin board answers.
    /// Returns newly discovered misbehavior.
    pub fn gossip_with_domain(&mut self, domain: u32) -> Result<Vec<Misbehavior>, ClientError> {
        let request = Request::Gossip {
            envelope: self.gossip_envelope(),
        };
        match self.exchange(domain, &request)? {
            Response::Gossip { envelope } => Ok(self.ingest_envelope(&envelope)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Performs a full audit round across all domains.
    ///
    /// One [`Request::BatchAudit`] per domain — pipelined, so every
    /// domain's request is in flight before any response is read — gets
    /// attestation, checkpoints, and a range consistency proof back in a
    /// single round-trip per domain. Connections are answered in request
    /// order, so the next frame back is the answer; it must echo the
    /// request id or the audit fails before anything in it is examined.
    /// Per domain it:
    ///
    /// 1. verifies the TEE quote end-to-end (cert chain → vendor root,
    ///    evidence, measurement, nonce echo);
    /// 2. feeds the checkpoint bundle to the auditor, which verifies
    ///    signatures and the consistency chain only *above* its verified
    ///    prefix and hunts for equivocation inside the bundle and against
    ///    everything previously seen;
    /// 3. requires the freshest checkpoint to match the attested status.
    ///
    /// A connection that turns out to be dead (the domain restarted since
    /// the last round) is reopened once and the audit re-issued with a
    /// fresh nonce, as soon as the loss is seen: when sending, or inside
    /// the round, where the collector watches every pending connection
    /// for a hang-up. The whole round, reissue included, waits at most
    /// [`SILENCE`] for the answers: a domain silent that long fails its
    /// audit with a reason naming the bound and loses its connection, so
    /// a silent minority delays a round by the bound and never stalls it.
    /// That failure is not evidence: nothing is convicted, and the next
    /// audit reconnects and judges the domain afresh. Any answer other
    /// than a decodable bundle fails that domain's audit with the reason
    /// recorded. Finally the digest histories are cross-checked across
    /// all domains.
    ///
    /// `expected_app` pins the digest of the published code, when the
    /// client has computed it from source (§3.3's "the developer
    /// open-sources her code").
    pub fn audit(&mut self, expected_app: Option<&Digest>) -> AuditReport {
        let expected_measurement = self.descriptor.expected_measurement();
        let n = self.descriptor.domains.len() as u32;
        let mut domains = Vec::with_capacity(n as usize);
        let mut misbehavior = Vec::new();

        // Phase 1: pipeline one BatchAudit frame to every domain before
        // reading anything back. A gossip exchange rides on the same
        // connection right behind the audit frame — encoded once, servers
        // answer strictly in request order, so the bundle is always the
        // first frame back and the envelope the second. The piggyback is
        // what makes "someone is watching" ambient: every routine audit
        // also compares notes.
        let gossip_wire = Request::Gossip {
            envelope: self.gossip_envelope(),
        }
        .to_wire();
        let mut sent: Vec<_> = (0..n).map(|d| self.send_audit(d, &gossip_wire)).collect();

        // Phase 2: collect every answer under one deadline for the round.
        // Each domain owes its bundle, then its envelope: listed twice, it
        // hands the collector's first answer to the bundle. A connection
        // found dead (the domain restarted since the last round) is
        // reopened once and the audit re-issued under a fresh nonce as
        // soon as the loss is seen, when sending or inside the round: the
        // reissue is collected under the same deadline, not after it.
        let until = Instant::now() + SILENCE;
        let mut reissued = vec![false; n as usize];
        let mut lost: Vec<u32> = (0..n)
            .filter(|&d| matches!(sent[d as usize], Err(ClientError::ConnectionLost(_))))
            .collect();
        let mut pending: Vec<u32> = (0..n).filter(|&d| sent[d as usize].is_ok()).collect();
        pending.extend_from_within(..);
        // Per domain, the bundle and the envelope it answered.
        let mut answers: Vec<(Option<Response>, Option<GossipEnvelope>)> =
            vec![(None, None); n as usize];
        loop {
            for d in lost.drain(..) {
                // Its envelope's place goes with the connection that owed it.
                pending.retain(|&p| p != d);
                reissued[d as usize] = true;
                sent[d as usize] = self.send_audit(d, &gossip_wire);
                if sent[d as usize].is_ok() {
                    pending.extend([d, d]);
                }
            }
            // A domain's first answer is its bundle, or why there is none.
            self.gather(&mut pending, QuorumPolicy::All, until, None, |d, answer| {
                let (i, (bundle, envelope)) = (d as usize, &mut answers[d as usize]);
                match answer {
                    _ if sent[i].is_err() => {}
                    Ok(response) if bundle.is_none() => *bundle = Some(response),
                    Err(ClientError::ConnectionLost(_)) if bundle.is_none() && !reissued[i] => {
                        lost.push(d);
                        return Taken::Return;
                    }
                    Err(e) if bundle.is_none() => sent[i] = Err(e),
                    // Gossip is best-effort: any other answer costs only
                    // freshness.
                    Ok(Response::Gossip { envelope: e }) => *envelope = Some(e),
                    _ => {}
                }
                Taken::Uncounted
            });
            if lost.is_empty() {
                break;
            }
        }

        // Phase 3: judge the answers, each domain's envelope first.
        for (d, (sent, (bundle, gossip))) in (0..n).zip(sent.into_iter().zip(answers)) {
            if let Some(envelope) = gossip {
                misbehavior.extend(self.ingest_envelope(&envelope));
            }
            let answer = sent.map(|sent| (bundle.expect("collected above"), sent));
            domains.push(match answer {
                Ok((response, (request_id, nonce))) => self.process_audit_answer(
                    d,
                    request_id,
                    nonce,
                    response,
                    &expected_measurement,
                    &mut misbehavior,
                ),
                Err(e) => DomainAudit::failed(d, format!("audit request failed: {e}")),
            });
        }

        // Evidence never expires with the round that found it: a domain
        // convicted by transferable proof — whether discovered locally or
        // relayed through the mesh — fails every audit from then on.
        for audit in &mut domains {
            if audit.failure.is_none() && self.evidence.convicts(audit.index) {
                audit.failure = Some(CONVICTED.to_string());
            }
        }

        // Phase 4: cross-domain digest comparison.
        if let AuditOutcome::Misbehavior(m) = self.auditor.cross_check() {
            misbehavior.push(*m);
        }
        let digests: Vec<Digest> = domains
            .iter()
            .filter_map(|d| d.status.as_ref().map(|s| s.app_digest))
            .collect();
        let mut digests_agree =
            digests.len() == domains.len() && distrust_log::digests_match(&digests);
        if let (true, Some(expected)) = (digests_agree, expected_app) {
            if digests.first() != Some(expected) {
                digests_agree = false;
            }
        }
        let app_digest = if digests_agree {
            digests.first().copied()
        } else {
            None
        };

        AuditReport {
            domains,
            digests_agree,
            misbehavior,
            app_digest,
        }
    }

    /// Sends `domain` a `BatchAudit` under a fresh nonce with the gossip
    /// frame right behind it, returning the request id and nonce the
    /// answer must echo.
    fn send_audit(
        &mut self,
        domain: u32,
        gossip_wire: &[u8],
    ) -> Result<(u64, [u8; 32]), ClientError> {
        let mut nonce = [0u8; 32];
        self.rng.fill_bytes(&mut nonce);
        let verified_size = self
            .auditor
            .latest(domain)
            .map(|cp| cp.body.size)
            .unwrap_or(0);
        let request_id = self.connection(domain)?.next_request_id();
        let request = Request::BatchAudit {
            request_id,
            nonce,
            verified_size,
        };
        self.send_raw(domain, &request.to_wire())?;
        self.send_raw(domain, gossip_wire)?;
        Ok((request_id, nonce))
    }

    /// Checks a TEE quote end-to-end (vendor pin, cert chain — once per
    /// device, see `devices` — measurement, nonce binding) or
    /// accepts a plain status for vendor-less domains, recording the
    /// outcome on `audit`.
    fn apply_attestation(
        &mut self,
        attestation: &BundleAttestation,
        nonce: [u8; 32],
        expected_measurement: &Digest,
        audit: &mut DomainAudit,
    ) {
        let info = &self.descriptor.domains[audit.index as usize];
        match attestation {
            BundleAttestation::Quote(quote) => {
                if info.vendor.is_none() {
                    audit.failure = Some(format!(
                        "domain {} unexpectedly returned a quote",
                        audit.index
                    ));
                } else if info.vendor != Some(quote.document.vendor) {
                    audit.failure = Some(format!(
                        "vendor mismatch: pinned {:?}, quoted {:?}",
                        info.vendor, quote.document.vendor
                    ));
                } else if let Err(e) = quote.verify_remembering(
                    &self.descriptor.vendor_roots,
                    &mut self.devices[audit.index as usize],
                    Some(expected_measurement),
                    None,
                ) {
                    audit.failure = Some(format!("quote verification failed: {e}"));
                } else {
                    match AttestationBinding::from_wire(&quote.document.user_data) {
                        Ok(binding) if binding.nonce == nonce => {
                            audit.attested = true;
                            audit.status = Some(binding.status);
                        }
                        Ok(_) => {
                            audit.failure = Some("stale quote: nonce mismatch".to_string());
                        }
                        Err(e) => {
                            audit.failure = Some(format!("malformed attestation binding: {e}"));
                        }
                    }
                }
            }
            BundleAttestation::Unattested(status) => {
                if info.vendor.is_some() {
                    audit.failure = Some("TEE-backed domain refused to attest".to_string());
                } else {
                    audit.status = Some(status.clone());
                }
            }
        }
    }

    /// Judges one domain's answer to `BatchAudit`: attestation, then the
    /// auditor, then the freshest checkpoint against the attested status.
    /// Anything that is not a bundle echoing `request_id` fails the audit
    /// with the auditor having seen none of it.
    fn process_audit_answer(
        &mut self,
        domain: u32,
        request_id: u64,
        nonce: [u8; 32],
        response: Response,
        expected_measurement: &Digest,
        misbehavior: &mut Vec<Misbehavior>,
    ) -> DomainAudit {
        let answer = match response {
            Response::AuditBundle(answer) => answer,
            Response::Error(e) => {
                return DomainAudit::failed(domain, format!("domain refused the audit: {e}"))
            }
            other => {
                return DomainAudit::failed(domain, format!("unexpected audit answer: {other:?}"))
            }
        };
        if answer.request_id != request_id {
            return DomainAudit::failed(
                domain,
                format!(
                    "audit answer echoes request id {}, expected {request_id}",
                    answer.request_id
                ),
            );
        }
        let mut audit = DomainAudit {
            index: domain,
            attested: false,
            status: None,
            failure: None,
        };
        self.apply_attestation(&answer.attestation, nonce, expected_measurement, &mut audit);
        if let Some(status) = &audit.status {
            // Feed the auditor before judging the status match: a
            // correctly signed bundle is evidence regardless of whether
            // it matches the claimed status.
            let matches_status = answer.bundle.checkpoints.last().is_some_and(|cp| {
                cp.body.size == status.log_size && cp.body.head == status.log_head
            });
            match self.auditor.observe_bundle(domain, &answer.bundle) {
                AuditOutcome::Consistent => {
                    if !matches_status {
                        audit.failure =
                            Some("checkpoint disagrees with attested status".to_string());
                    }
                }
                AuditOutcome::Misbehavior(m) => {
                    audit.failure = Some(format!("log misbehavior: {m:?}"));
                    misbehavior.push(*m);
                }
            }
        }
        audit
    }
}
