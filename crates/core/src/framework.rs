//! The application-independent enclave framework — the paper's core design
//! (§4.1).
//!
//! "Instead of sealing the developer's code directly on to the enclave, we
//! instead seal an application-independent framework on to the TEE. This
//! application-independent framework accepts application code as input and
//! executes it."
//!
//! Responsibilities, in the order the paper derives them:
//!
//! 1. **Run application code in a sandbox** so updates cannot escape and
//!    tamper with the framework ([`crate::abi`], `distrust-sandbox`).
//! 2. **Accept only developer-signed updates**, verified against the
//!    public key sealed at initialization ([`crate::manifest`]).
//! 3. **Record every activated code digest in an append-only log** and
//!    make update notices available *before* the new code serves its
//!    first request (`distrust-log`).
//! 4. **Attest**: answer client challenges with a quote binding the
//!    client's nonce, the current log head, and the running app digest.

use crate::abi::{app_call, import_names, AppHost};
use crate::manifest::{ReleaseError, ReleaseManifest, SignedRelease};
use crate::protocol::{
    AttestationBinding, AuditBundle, BundleAttestation, DomainStatus, Request, Response,
    UpdateNotice,
};
use distrust_crypto::schnorr::{SigningKey, VerifyingKey};
use distrust_crypto::sha256::Digest;
use distrust_gossip::envelope::{GossipEnvelope, GossipHead};
use distrust_gossip::evidence::EvidenceBundle;
use distrust_log::batch::{CheckpointBundle, ProofBundle, MAX_BUNDLE_CHECKPOINTS};
use distrust_log::checkpoint::{CheckpointBody, SignedCheckpoint};
use distrust_log::merkle::PackedRecords;
use distrust_log::store::{StorageConfig, StoreError};
use distrust_log::ShardedLog;
use distrust_sandbox::{Instance, Limits};
use distrust_tee::enclave::Enclave;
use distrust_wire::codec::{decode_seq, encode_seq, Decode, Encode};
use std::collections::VecDeque;

/// Meta-log record kinds — the framework's durable signed artifacts,
/// persisted through [`ShardedLog::append_meta`] and replayed on boot so a
/// restarted domain *reuses* its pre-crash signatures instead of minting
/// fresh ones (re-signing the same sizes would make an honest restart look
/// like equivocation to a client holding the pre-crash head).
const META_GENESIS: u8 = 1;
/// An epoch, appended at update time: the signed checkpoint, then its
/// `(size, head)` once more as two one-entry sequences (see
/// [`encode_epoch`]).
const META_EPOCH: u8 = 2;
/// An [`UpdateNotice`], appended (before its epoch record) at update time.
const META_NOTICE: u8 = 3;

/// Computes the framework measurement: the value a TEE attests when it
/// loads this framework sealed with a particular developer key. Everything
/// that defines the trusted framework identity goes in here.
pub fn framework_measurement(developer_key: &VerifyingKey, app_name: &str) -> Digest {
    distrust_crypto::sha256_many(&[
        b"distrust/framework-measurement/v2",
        &developer_key.to_bytes(),
        app_name.as_bytes(),
    ])
}

/// Static configuration sealed into the framework at initialization.
pub struct FrameworkConfig {
    /// This domain's index in the deployment.
    pub domain_index: u32,
    /// The application this deployment is pinned to.
    pub app_name: String,
    /// The developer's update-signing public key (§4.1: sealed alongside
    /// the framework).
    pub developer_key: VerifyingKey,
    /// Log identifier for checkpoints.
    pub log_id: [u8; 32],
    /// Sandbox execution limits applied to every application instance.
    pub limits: Limits,
    /// Must be `1`: a domain's log is one Merkle tree, and any other
    /// value is refused at open ([`StoreError::ShardCountMismatch`]). The
    /// field exists until `e2e` stops naming it.
    pub log_shards: u32,
    /// Where the log lives. [`StorageConfig::Ephemeral`] keeps everything
    /// in memory (tests, legacy behavior); [`StorageConfig::Durable`]
    /// persists segments + signed artifacts so a restart resumes the
    /// identical signed history.
    pub storage: StorageConfig,
}

struct RunningApp {
    instance: Instance,
    import_names: Vec<String>,
    manifest: ReleaseManifest,
}

/// Signed epochs a domain keeps in memory: the
/// [`MAX_BUNDLE_CHECKPOINTS`] newest a bundle can carry, and the one
/// before them — the furthest-behind epoch a client can stand on and still
/// be served the unbroken chain from its own size. Everything older stays
/// in its `META_EPOCH` record on disk and is neither loaded nor served: a
/// client behind it gets one consistency step to the oldest epoch kept.
const RETAINED_EPOCHS: usize = MAX_BUNDLE_CHECKPOINTS + 1;

/// Bytes of records one [`Request::GetLogEntries`] or
/// [`Request::GetNotices`] answer carries (the first record of a page
/// always goes, whatever it weighs): both are served to any unauthenticated
/// peer under the framework mutex, and an answer holding everything stopped
/// fitting a frame at a couple of hundred thousand releases. ≈ 3 400 leaves.
const PAGE_BYTES: usize = 256 << 10;

/// Most relayed peer heads the gossip board retains.
const MAX_BOARD_HEADS: usize = 64;
/// Most relayed evidence bundles the gossip board retains.
const MAX_BOARD_EVIDENCE: usize = 64;

/// The domain's gossip bulletin board: peer checkpoints and evidence that
/// clients left behind for other clients to pick up.
///
/// Everything here is stored **unverified** — the framework holds no
/// other domain's checkpoint key, so it cannot tell a real peer head from
/// a fabricated one. That is fine: the board is a rendezvous, not an
/// authority. Every client verifies relayed heads and evidence against
/// its own pinned keys on ingest and drops what fails, so the worst a
/// poisoned board costs each reader is the bytes and one signature check
/// per fabricated head (two per fabricated bundle) per audit, at most
/// [`MAX_BOARD_HEADS`] + 2·[`MAX_BOARD_EVIDENCE`] of them; genuine
/// entries a reader has verified before cost it a comparison. Bounds are
/// hard caps with oldest-first eviction for heads and insert-refusal for
/// evidence, so a flooder cannot grow the domain's memory.
#[derive(Default)]
struct GossipBoard {
    /// Relayed peer heads, oldest first, deduplicated exactly.
    heads: Vec<GossipHead>,
    /// Relayed evidence bundles, deduplicated by content hash.
    evidence: Vec<EvidenceBundle>,
    evidence_seen: std::collections::HashSet<Digest>,
}

impl GossipBoard {
    /// Merges a client's envelope into the board. `own_domain` filters
    /// heads claiming to come from this domain itself — clients get those
    /// first-hand, and relaying them would only launder forgeries.
    fn ingest(&mut self, envelope: GossipEnvelope, own_domain: u32) {
        for head in envelope.heads {
            if head.domain == own_domain || self.heads.contains(&head) {
                continue;
            }
            if self.heads.len() >= MAX_BOARD_HEADS {
                self.heads.remove(0);
            }
            self.heads.push(head);
        }
        for bundle in envelope.evidence {
            if self.evidence.len() >= MAX_BOARD_EVIDENCE {
                break;
            }
            if self.evidence_seen.insert(bundle.dedup_key()) {
                self.evidence.push(bundle);
            }
        }
    }
}

/// Appends a freshly signed or recovered epoch, dropping the oldest one
/// the domain no longer serves (see [`RETAINED_EPOCHS`]).
fn retain_epoch(epochs: &mut VecDeque<SignedCheckpoint>, epoch: SignedCheckpoint) {
    if epochs.len() == RETAINED_EPOCHS {
        epochs.pop_front();
    }
    epochs.push_back(epoch);
}

/// A `META_EPOCH` payload. After the checkpoint come a sequence of sizes
/// and a sequence of heads, one entry each and equal to what the
/// checkpoint signs — the bytes every epoch record has carried since a log
/// could be several trees with a `(size, head)` apiece. Kept, so that a
/// directory written then and one written now are the same bytes.
fn encode_epoch(checkpoint: &SignedCheckpoint) -> Vec<u8> {
    let mut wire = Vec::new();
    checkpoint.encode(&mut wire);
    encode_seq(&[checkpoint.body.size], &mut wire);
    encode_seq(&[checkpoint.body.head], &mut wire);
    wire
}

/// Reads a `META_EPOCH` payload back. A record announcing any number of
/// trees but one is the named boot refusal — this log would serve one of
/// them as if it were the whole; one whose `(size, head)` is not its
/// checkpoint's is damage.
fn decode_epoch(payload: &[u8]) -> Result<SignedCheckpoint, StoreError> {
    let mut input = payload;
    let checkpoint = SignedCheckpoint::decode(&mut input)
        .map_err(|_| StoreError::Corrupt("meta epoch checkpoint"))?;
    let sizes: Vec<u64> =
        decode_seq(&mut input).map_err(|_| StoreError::Corrupt("meta epoch snapshot"))?;
    let heads: Vec<Digest> =
        decode_seq(&mut input).map_err(|_| StoreError::Corrupt("meta epoch snapshot"))?;
    if !input.is_empty() {
        return Err(StoreError::Corrupt("meta epoch trailing bytes"));
    }
    if sizes.len() != heads.len() {
        return Err(StoreError::Corrupt("meta epoch snapshot"));
    }
    if sizes.len() != 1 {
        return Err(StoreError::ShardCountMismatch {
            store: sizes.len(),
            configured: 1,
        });
    }
    if (sizes.first(), heads.first()) != (Some(&checkpoint.body.size), Some(&checkpoint.body.head))
    {
        return Err(StoreError::Corrupt(
            "meta epoch snapshot disagrees with its checkpoint",
        ));
    }
    Ok(checkpoint)
}

/// One trust domain's framework state.
pub struct EnclaveFramework {
    config: FrameworkConfig,
    /// `Some` on TEE-backed domains, `None` on trust domain 0 (Figure 2:
    /// the developer's own domain runs without secure hardware).
    enclave: Option<Enclave>,
    /// Key signing log checkpoints. On TEE domains this is derived inside
    /// the enclave from the sealing secret; on domain 0 it is a plain host
    /// key. Clients pin the corresponding public keys at deployment.
    checkpoint_key: SigningKey,
    /// The code-digest log: one Merkle tree over its durable store.
    log: ShardedLog,
    /// Update notices, one per activated release, each as the wire bytes
    /// its `META_NOTICE` record holds: [`Request::GetNotices`] is their
    /// only reader.
    notices: PackedRecords,
    /// One signed checkpoint per log append ("epoch"), signed at update
    /// time so an audit never touches the checkpoint key. The newest
    /// [`RETAINED_EPOCHS`], oldest first.
    epoch_checkpoints: VecDeque<SignedCheckpoint>,
    /// The size-0 checkpoint served while the log is still empty, signed
    /// once (see [`Self::genesis_checkpoint`]).
    genesis: Option<SignedCheckpoint>,
    app: Option<RunningApp>,
    app_host: Box<dyn AppHost>,
    logical_time: u64,
    /// §3.3 lockdown: set when a release with `locks_updates` activates;
    /// permanently rejects further updates.
    locked: bool,
    /// Highest version seen in *recovered* notices. Current TEEs cannot
    /// migrate app state across restarts, so the app instance itself is
    /// not persisted — but version monotonicity must survive the restart
    /// or a replayed old release would be re-accepted.
    recovered_version: u64,
    /// Bulletin board of peer gossip this domain relays between clients.
    /// Deliberately not persisted: gossip is epidemic state, rebuilt by
    /// the next exchange, and a crash wiping it costs only freshness.
    gossip: GossipBoard,
}

impl EnclaveFramework {
    /// Opens a framework over the configured storage, recovering any
    /// persisted log and signed history. `enclave` is `None` for trust
    /// domain 0. With [`StorageConfig::Ephemeral`] this is infallible in
    /// practice and equivalent to the pre-durability constructor.
    ///
    /// Recovery rebuilds the Merkle tree from persisted leaves, then
    /// replays the meta log: the genesis checkpoint, the signed epochs
    /// (the newest 65, `RETAINED_EPOCHS` — older records are decoded and
    /// let go), and every update notice are *reused*, not re-signed. Boot
    /// refuses to proceed when the signed history
    /// outruns the recovered log ([`StoreError::LostSignedHistory`] — a
    /// fsync hole or deleted segment) or diverges from it (`Corrupt`) —
    /// serving in either state would manufacture equivocation evidence
    /// against our own key.
    pub fn open(
        config: FrameworkConfig,
        enclave: Option<Enclave>,
        checkpoint_key: SigningKey,
        app_host: Box<dyn AppHost>,
    ) -> Result<Self, StoreError> {
        let (log, meta) = ShardedLog::open(config.log_shards as usize, &config.storage)?;
        let mut genesis = None;
        let mut notices = PackedRecords::default();
        let notice_records = meta.iter().filter(|r| r.kind == META_NOTICE);
        let (count, bytes) = notice_records.fold((0, 0), |(n, b), r| (n + 1, b + r.payload.len()));
        // lint:allow(taint-alloc): sized from the notice records recovery has already read into memory, so it reserves at most what they take
        notices.reserve_exact(count, bytes);
        let mut locked = false;
        let mut recovered_version = 0u64;
        let mut epoch_checkpoints = VecDeque::with_capacity(RETAINED_EPOCHS);
        let mut logical_time = 0u64;
        for record in &meta {
            match record.kind {
                META_GENESIS => {
                    let cp = SignedCheckpoint::from_wire(&record.payload)
                        .map_err(|_| StoreError::Corrupt("meta genesis record"))?;
                    logical_time = logical_time.max(cp.body.logical_time);
                    genesis = Some(cp);
                }
                META_EPOCH => {
                    let cp = decode_epoch(&record.payload)?;
                    logical_time = logical_time.max(cp.body.logical_time);
                    retain_epoch(&mut epoch_checkpoints, cp);
                }
                META_NOTICE => {
                    let notice = UpdateNotice::from_wire(&record.payload)
                        .map_err(|_| StoreError::Corrupt("meta notice record"))?;
                    logical_time = logical_time.max(notice.logical_time);
                    locked |= notice.manifest.locks_updates;
                    recovered_version = recovered_version.max(notice.manifest.version);
                    notices.push(&record.payload);
                }
                _ => return Err(StoreError::Corrupt("unknown meta record kind")),
            }
        }
        // Boot guards: the recovered log must carry every size the signed
        // history committed to, and match it bit for bit at the head.
        let (size, head) = log.head();
        if let Some(last) = epoch_checkpoints.back() {
            if last.body.size > size {
                return Err(StoreError::LostSignedHistory {
                    signed: last.body.size,
                    recovered: size,
                });
            }
            if last.body.size == size && last.body.head != head {
                return Err(StoreError::Corrupt(
                    "recovered log diverges from signed head",
                ));
            }
            // Persisted signatures are decoded as opaque bytes; the head
            // this domain is about to serve must be one its own key
            // signed (a damaged record, or a directory that belongs to
            // another deployment, fails here rather than at every client).
            if !last.verify(&checkpoint_key.verifying_key()) {
                return Err(StoreError::Corrupt(
                    "newest signed head does not verify under this domain's key",
                ));
            }
        }
        Ok(Self {
            config,
            enclave,
            checkpoint_key,
            log,
            notices,
            epoch_checkpoints,
            genesis,
            app: None,
            app_host,
            logical_time,
            locked,
            recovered_version,
            gossip: GossipBoard::default(),
        })
    }

    /// Highest version this domain has accepted — from the running app or
    /// from recovered update notices (the instance itself does not
    /// survive a restart; the version floor must).
    pub fn current_version(&self) -> u64 {
        self.app
            .as_ref()
            .map(|a| a.manifest.version)
            .unwrap_or(0)
            .max(self.recovered_version)
    }

    /// Current domain status snapshot.
    pub fn status(&self) -> DomainStatus {
        let (app_digest, app_version) = match &self.app {
            Some(app) => (app.manifest.code_digest, app.manifest.version),
            None => ([0u8; 32], 0),
        };
        let (log_size, log_head) = self.log.head();
        DomainStatus {
            domain_index: self.config.domain_index,
            app_digest,
            app_version,
            log_size,
            log_head,
            framework_measurement: framework_measurement(
                &self.config.developer_key,
                &self.config.app_name,
            ),
        }
    }

    /// Applies a signed release following the §4.1 ordering: verify the
    /// developer signature, append the digest to the append-only log,
    /// record the client-visible update notice, and only then activate the
    /// new code.
    pub fn apply_update(&mut self, release: &SignedRelease) -> Result<DomainStatus, ReleaseError> {
        if self.locked {
            return Err(ReleaseError::DeploymentLocked);
        }
        let module = release.verify(&self.config.developer_key)?;
        if release.manifest.app_name != self.config.app_name {
            return Err(ReleaseError::WrongApp {
                expected: self.config.app_name.clone(),
                got: release.manifest.app_name.clone(),
            });
        }
        // The floor is the max of the running version and the recovered
        // one: the app instance does not survive a restart, but version
        // monotonicity must, or a replayed old release would re-activate.
        let current = self.current_version();
        if release.manifest.version <= current {
            return Err(ReleaseError::StaleVersion {
                current,
                offered: release.manifest.version,
            });
        }
        // Instantiate first: a module that cannot even instantiate is
        // rejected without touching the log.
        let instance = Instance::new(module.clone(), self.config.limits)
            .map_err(|t| ReleaseError::InvalidModule(t.to_string()))?;
        // 1. Log the digest (the permanent record).
        let log_index = self
            .log
            .append(0, &release.manifest.log_leaf())
            .map_err(|e| ReleaseError::LogAppend(e.to_string()))?;
        // 2. Record the notice — visible to clients before the new code
        //    serves any request (we hold the domain lock throughout).
        self.logical_time += 1;
        let notice = UpdateNotice {
            manifest: release.manifest.clone(),
            log_index,
            logical_time: self.logical_time,
        };
        let notice_wire = notice.to_wire();
        self.notices.push(&notice_wire);
        // Sign this epoch's checkpoint once, here — every BatchAudit until
        // the next update is served from it without touching the key. The
        // leaf was fsynced by the append above, before it entered the tree:
        // a signed head never outruns durable history, so a crash after
        // signing cannot turn this honest domain's restart into
        // equivocation evidence.
        self.logical_time += 1;
        let (size, head) = self.log.head();
        let checkpoint = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: self.config.log_id,
                size,
                head,
                logical_time: self.logical_time,
            },
            &self.checkpoint_key,
        );
        // Persist the signed artifacts (notice first — an epoch record
        // implies its notice): a restart reuses these instead of minting
        // fresh signatures for the same sizes.
        self.log
            .append_meta(META_NOTICE, &notice_wire)
            .and_then(|()| self.log.append_meta(META_EPOCH, &encode_epoch(&checkpoint)))
            .map_err(|e| ReleaseError::Persist(e.to_string()))?;
        retain_epoch(&mut self.epoch_checkpoints, checkpoint);
        // 3. Activate (and lock, if this is a final release).
        self.app = Some(RunningApp {
            import_names: import_names(&module),
            instance,
            manifest: release.manifest.clone(),
        });
        if release.manifest.locks_updates {
            self.locked = true;
        }
        Ok(self.status())
    }

    /// Signs (once) and returns the size-0 checkpoint served while the
    /// log is still empty.
    fn genesis_checkpoint(&mut self) -> SignedCheckpoint {
        if let Some(genesis) = &self.genesis {
            return genesis.clone();
        }
        self.logical_time += 1;
        let signed = SignedCheckpoint::sign(
            CheckpointBody {
                log_id: self.config.log_id,
                size: 0,
                head: self.log.head().1,
                logical_time: self.logical_time,
            },
            &self.checkpoint_key,
        );
        // Best-effort persistence: a restart that loses this record just
        // signs another size-0 checkpoint over the same (empty) head —
        // identical body except logical_time, which cannot read as
        // equivocation. Updates, by contrast, persist-or-fail.
        let _ = self.log.append_meta(META_GENESIS, &signed.to_wire());
        self.genesis = Some(signed.clone());
        signed
    }

    /// The checkpoint/proof half of a batched audit for a client standing
    /// on `verified_size` — whatever an unauthenticated peer wrote into its
    /// request, so anything past the head is read as the head.
    fn audit_bundle(&mut self, verified_size: u64) -> CheckpointBundle {
        let current = self.log.lock().len() as u64;
        self.build_audit_bundle(verified_size.min(current), current)
    }

    fn build_audit_bundle(&mut self, verified_size: u64, current: u64) -> CheckpointBundle {
        let empty = ProofBundle::default();
        if self.epoch_checkpoints.is_empty() {
            // Nothing installed yet: serve the once-signed view of the
            // empty log.
            return CheckpointBundle {
                checkpoints: vec![self.genesis_checkpoint()],
                proof: empty,
            };
        }
        if verified_size >= current {
            // Client already at the head: the latest checkpoint alone.
            // (The `last()` is guarded by the emptiness check above; the
            // if-let keeps this path panic-free regardless.)
            if let Some(latest) = self.epoch_checkpoints.back() {
                return CheckpointBundle {
                    checkpoints: vec![latest.clone()],
                    proof: empty,
                };
            }
        }
        let mut checkpoints: Vec<SignedCheckpoint> = self
            .epoch_checkpoints
            .iter()
            .filter(|cp| cp.body.size > verified_size)
            .cloned()
            .collect();
        if checkpoints.len() > MAX_BUNDLE_CHECKPOINTS {
            checkpoints.drain(..checkpoints.len() - MAX_BUNDLE_CHECKPOINTS);
        }
        // Proof chain: verified prefix (when provable, i.e. non-empty)
        // through every included checkpoint size.
        let mut sizes: Vec<usize> = Vec::with_capacity(checkpoints.len() + 1);
        if verified_size >= 1 {
            sizes.push(verified_size as usize);
        }
        sizes.extend(checkpoints.iter().map(|cp| cp.body.size as usize));
        let proof = self
            .log
            .lock()
            .prove_consistency_range(&sizes)
            .unwrap_or_default();
        CheckpointBundle { checkpoints, proof }
    }

    /// Where in `self.notices` the first notice at or after log index
    /// `since` sits. Notices are in log order, at most one per leaf, so
    /// notice `p` names a leaf at or after `p` and the one wanted is at or
    /// before position `since`: unless a crash once lost a notice between
    /// its leaf and its record, the first step back already ends the walk.
    fn first_notice_at(&self, since: u64) -> usize {
        let log_index = |at: usize| {
            let notice = UpdateNotice::from_wire(self.notices.get(at)?).ok()?;
            Some(notice.log_index)
        };
        let mut first = usize::try_from(since)
            .unwrap_or(usize::MAX)
            .min(self.notices.len());
        while first > 0 && log_index(first - 1).is_some_and(|index| index >= since) {
            first -= 1;
        }
        first
    }

    /// Handles one protocol request.
    pub fn handle(&mut self, request: Request) -> Response {
        match request {
            Request::AppCall { method, payload } => match &mut self.app {
                None => Response::AppError("no application installed".into()),
                Some(app) => match app_call(
                    &mut app.instance,
                    &app.import_names,
                    self.app_host.as_mut(),
                    method,
                    &payload,
                ) {
                    Ok(payload) => Response::AppResult { payload },
                    Err(e) => Response::AppError(e.to_string()),
                },
            },
            Request::Update { release } => match self.apply_update(&release) {
                Ok(status) => Response::UpdateAck {
                    log_size: status.log_size,
                    digest: status.app_digest,
                },
                Err(e) => Response::UpdateRejected(e.to_string()),
            },
            Request::GetLogEntries { from } => match self.log.entries_from(from, PAGE_BYTES) {
                Some(leaves) => Response::LogEntries(leaves),
                None => Response::Error("log range out of bounds".into()),
            },
            Request::GetNotices { since } => Response::Notices(
                self.notices
                    .page_from(self.first_notice_at(since), PAGE_BYTES)
                    .into_iter()
                    .flatten()
                    .filter_map(|wire| UpdateNotice::from_wire(wire).ok())
                    .collect(),
            ),
            Request::BatchAudit {
                request_id,
                nonce,
                verified_size,
            } => {
                let binding = AttestationBinding {
                    nonce,
                    status: self.status(),
                };
                let attestation = match &self.enclave {
                    Some(enclave) => {
                        BundleAttestation::Quote(Box::new(enclave.quote(&binding.to_wire())))
                    }
                    None => BundleAttestation::Unattested(binding.status),
                };
                let bundle = self.audit_bundle(verified_size);
                Response::AuditBundle(Box::new(AuditBundle {
                    request_id,
                    attestation,
                    bundle,
                }))
            }
            Request::Gossip { envelope } => {
                let own_domain = self.config.domain_index;
                self.gossip.ingest(envelope, own_domain);
                // Reply with our own signed head first (reusing the stored
                // epoch/genesis signature — gossip must not mint fresh
                // signatures, or every exchange would move the log head),
                // then everything clients have left on the board.
                let own = self
                    .epoch_checkpoints
                    .back()
                    .cloned()
                    .unwrap_or_else(|| self.genesis_checkpoint());
                let mut heads = Vec::with_capacity(1 + self.gossip.heads.len());
                heads.push(GossipHead {
                    domain: own_domain,
                    checkpoint: own,
                });
                heads.extend(self.gossip.heads.iter().cloned());
                Response::Gossip {
                    envelope: GossipEnvelope {
                        heads,
                        evidence: self.gossip.evidence.clone(),
                    },
                }
            }
            // Domains never cosign their own heads — a quorum of one
            // interested party is not a quorum. Only witness relays
            // ([`crate::witness`]) answer with `Some`.
            Request::WitnessHead => Response::WitnessHead { cosigned: None },
        }
    }
}

/// Adapts the framework to the byte-in/byte-out service interface used by
/// both hosting modes (TEE proxy and direct).
pub struct FrameworkService {
    framework: EnclaveFramework,
}

impl FrameworkService {
    /// Wraps a framework.
    pub fn new(framework: EnclaveFramework) -> Self {
        Self { framework }
    }

    /// Access to the wrapped framework (tests, in-process deployments).
    pub fn framework_mut(&mut self) -> &mut EnclaveFramework {
        &mut self.framework
    }
}

impl distrust_tee::host::EnclaveService for FrameworkService {
    fn handle(&mut self, request: Vec<u8>) -> Vec<u8> {
        let response = match Request::from_wire(&request) {
            Ok(req) => self.framework.handle(req),
            Err(e) => Response::Error(format!("malformed request: {e}")),
        };
        response.to_wire()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi::NoImports;
    use distrust_sandbox::guests::{counter_module, hostile_module};

    fn dev() -> SigningKey {
        SigningKey::derive(b"framework tests", b"developer")
    }

    fn fresh_framework() -> EnclaveFramework {
        let developer = dev();
        EnclaveFramework::open(
            FrameworkConfig {
                domain_index: 0,
                app_name: "counter".into(),
                developer_key: developer.verifying_key(),
                log_id: [7; 32],
                limits: Limits::default(),
                log_shards: 1,
                storage: StorageConfig::Ephemeral,
            },
            None,
            SigningKey::derive(b"framework tests", b"checkpoint"),
            Box::new(NoImports),
        )
        .unwrap()
    }

    fn release(version: u64) -> SignedRelease {
        SignedRelease::create(
            "counter",
            version,
            "notes",
            &counter_module(version),
            &dev(),
        )
    }

    #[test]
    fn install_and_call() {
        let mut fw = fresh_framework();
        let status = fw.apply_update(&release(1)).unwrap();
        assert_eq!(status.app_version, 1);
        assert_eq!(status.log_size, 1);
        // The counter app speaks raw exports, not the ABI `handle`; an
        // ABI call must fail gracefully, not crash the framework.
        let resp = fw.handle(Request::AppCall {
            method: 0,
            payload: vec![],
        });
        assert!(matches!(resp, Response::AppError(_)));
        // Framework is still alive.
        assert_eq!(audit_bundle_from(&mut fw, 0).checkpoints.len(), 1);
    }

    #[test]
    fn update_ordering_log_then_notice_then_activate() {
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        fw.apply_update(&release(2)).unwrap();
        let status = fw.status();
        assert_eq!(status.app_version, 2);
        assert_eq!(status.log_size, 2);
        // Notices exist for both versions and reference the right leaves.
        match fw.handle(Request::GetNotices { since: 0 }) {
            Response::Notices(n) => {
                assert_eq!(n.len(), 2);
                assert_eq!(n[0].manifest.version, 1);
                assert_eq!(n[0].log_index, 0);
                assert_eq!(n[1].manifest.version, 2);
                assert_eq!(n[1].log_index, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unsigned_update_rejected_and_not_logged() {
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        let mallory = SigningKey::derive(b"framework tests", b"mallory");
        let evil = SignedRelease::create("counter", 2, "evil", &counter_module(2), &mallory);
        let resp = fw.handle(Request::Update { release: evil });
        assert!(matches!(resp, Response::UpdateRejected(_)));
        // The log did not grow — rejected updates leave no trace of
        // activation (nothing ran).
        assert_eq!(fw.status().log_size, 1);
        assert_eq!(fw.status().app_version, 1);
    }

    #[test]
    fn stale_and_replayed_versions_rejected() {
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        fw.apply_update(&release(2)).unwrap();
        assert!(matches!(
            fw.apply_update(&release(2)),
            Err(ReleaseError::StaleVersion { .. })
        ));
        assert!(matches!(
            fw.apply_update(&release(1)),
            Err(ReleaseError::StaleVersion { .. })
        ));
    }

    #[test]
    fn wrong_app_name_rejected() {
        let mut fw = fresh_framework();
        let other = SignedRelease::create("other-app", 1, "", &counter_module(1), &dev());
        assert!(matches!(
            fw.apply_update(&other),
            Err(ReleaseError::WrongApp { .. })
        ));
    }

    #[test]
    fn hostile_update_is_activated_but_contained() {
        // A signed-but-malicious module DOES get activated (the framework
        // cannot judge semantics — §3.3 non-goals) but cannot escape the
        // sandbox: its traps surface as AppErrors and the framework state
        // (including the log) stays intact.
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        let evil = SignedRelease::create("counter", 2, "totally benign", &hostile_module(), &dev());
        fw.apply_update(&evil).unwrap();
        let resp = fw.handle(Request::AppCall {
            method: 0,
            payload: vec![],
        });
        assert!(matches!(resp, Response::AppError(_)));
        // The evidence trail survives: both digests in the log.
        assert_eq!(fw.status().log_size, 2);
        match fw.handle(Request::GetLogEntries { from: 0 }) {
            Response::LogEntries(leaves) => assert_eq!(leaves.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn audit_bundle_from(fw: &mut EnclaveFramework, verified_size: u64) -> CheckpointBundle {
        match fw.handle(Request::BatchAudit {
            request_id: 1,
            nonce: [1; 32],
            verified_size,
        }) {
            Response::AuditBundle(b) => b.bundle,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn checkpoints_sign_current_log() {
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        let cp = audit_bundle_from(&mut fw, 0).checkpoints.pop().unwrap();
        assert_eq!(cp.body.size, 1);
        assert_eq!(cp.body.head, fw.status().log_head);
        assert!(cp.verify(&checkpoint_vk()));
        // Serving an audit signs nothing: the epoch's checkpoint comes
        // back bit for bit until the next update mints a later one.
        assert_eq!(audit_bundle_from(&mut fw, 1).checkpoints, vec![cp.clone()]);
        fw.apply_update(&release(2)).unwrap();
        let cp2 = audit_bundle_from(&mut fw, 1).checkpoints.pop().unwrap();
        assert!(cp2.body.logical_time > cp.body.logical_time);
    }

    #[test]
    fn consistency_proofs_served() {
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        let head1 = fw.status().log_head;
        fw.apply_update(&release(2)).unwrap();
        let head2 = fw.status().log_head;
        let bundle = audit_bundle_from(&mut fw, 1);
        assert_eq!(bundle.proof.len(), 1, "one step, 1→2");
        assert!(bundle.proof.step(0).unwrap().verify(&head1, &head2));
        // A verified size past the head has nothing to prove: the latest
        // checkpoint alone.
        let bundle = audit_bundle_from(&mut fw, 5);
        assert_eq!(bundle.checkpoints.len(), 1);
        assert!(bundle.proof.is_empty());
    }

    #[test]
    fn attest_binds_nonce_and_status_unattested_domain() {
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        let request = Request::BatchAudit {
            request_id: 1,
            nonce: [9; 32],
            verified_size: 0,
        };
        match fw.handle(request) {
            Response::AuditBundle(b) => match b.attestation {
                BundleAttestation::Unattested(status) => assert_eq!(status, fw.status()),
                other => panic!("domain 0 has no enclave to quote from: {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn app_state_reset_on_update_is_documented_behaviour() {
        // Current TEEs cannot migrate state across code changes (§4.1);
        // our framework matches: each release starts a fresh instance.
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        fw.apply_update(&release(2)).unwrap();
        let status = fw.status();
        assert_eq!(status.app_version, 2);
    }

    fn checkpoint_vk() -> VerifyingKey {
        SigningKey::derive(b"framework tests", b"checkpoint").verifying_key()
    }

    #[test]
    fn batch_audit_bundles_verify_with_the_auditor() {
        use distrust_log::auditor::Auditor;
        let mut fw = fresh_framework();
        fw.apply_update(&release(1)).unwrap();
        let mut auditor = Auditor::new(vec![checkpoint_vk()]);
        let bundle = audit_bundle_from(&mut fw, 0);
        assert!(auditor.observe_bundle(0, &bundle).is_consistent());
        assert_eq!(auditor.latest(0).unwrap().body.size, 1);

        // Growth: the next bundle links the verified prefix to the head.
        fw.apply_update(&release(2)).unwrap();
        fw.apply_update(&release(3)).unwrap();
        let bundle = audit_bundle_from(&mut fw, 1);
        assert_eq!(bundle.checkpoints.len(), 2, "sizes 2 and 3");
        assert_eq!(bundle.proof.len(), 2, "steps 1→2 and 2→3");
        assert!(auditor.observe_bundle(0, &bundle).is_consistent());
        assert_eq!(auditor.latest(0).unwrap().body.size, 3);

        // Steady state: same bundle again — nothing verified, all skipped.
        let before = auditor.prefix_cache(0).unwrap().signatures_verified();
        let bundle = audit_bundle_from(&mut fw, 3);
        assert!(auditor.observe_bundle(0, &bundle).is_consistent());
        let cache = auditor.prefix_cache(0).unwrap();
        assert_eq!(
            cache.signatures_verified(),
            before,
            "unchanged log must not cost a signature verification"
        );
    }

    /// `verified_size` is the client's word. Every size gets its answer —
    /// one an auditor standing at that size accepts and follows to the
    /// head — and a domain 200 releases old holds [`RETAINED_EPOCHS`]
    /// signed epochs to build them from.
    #[test]
    fn every_verified_size_is_answered_from_the_retained_epochs() {
        use distrust_log::auditor::Auditor;
        const RELEASES: u64 = 200;
        let mut fw = fresh_framework();
        let epochs: Vec<SignedCheckpoint> = (1..=RELEASES)
            .map(|version| {
                fw.apply_update(&release(version)).unwrap();
                audit_bundle_from(&mut fw, version).checkpoints.remove(0)
            })
            .collect();
        assert_eq!(fw.epoch_checkpoints.len(), RETAINED_EPOCHS);

        // Every answer is the newest epochs, bit for bit, with one proof
        // step per epoch. An auditor's full verdict costs 64 signature
        // checks a size: on all 200 against optimised code (CI's release
        // test step), on the ring's edge and every 16th in a debug build.
        let oldest_kept = RELEASES - RETAINED_EPOCHS as u64 + 1;
        for verified_size in 1..=RELEASES {
            let bundle = audit_bundle_from(&mut fw, verified_size);
            let served = bundle.checkpoints.len();
            let expected = (RELEASES - verified_size).clamp(1, MAX_BUNDLE_CHECKPOINTS as u64);
            assert_eq!(served as u64, expected);
            assert_eq!(bundle.checkpoints, epochs[epochs.len() - served..]);
            if verified_size < RELEASES {
                assert_eq!(bundle.proof.len(), served);
            }
            let at_the_edge = verified_size.abs_diff(oldest_kept) <= 1;
            if cfg!(debug_assertions) && !at_the_edge && verified_size % 16 != 0 {
                continue;
            }
            let mut auditor = Auditor::new(vec![checkpoint_vk()]);
            let standing_on = CheckpointBundle {
                checkpoints: vec![epochs[verified_size as usize - 1].clone()],
                proof: ProofBundle::default(),
            };
            assert!(auditor.observe_bundle(0, &standing_on).is_consistent());
            let outcome = auditor.observe_bundle(0, &bundle);
            assert!(outcome.is_consistent(), "{verified_size}: {outcome:?}");
            assert_eq!(auditor.latest(0).unwrap().body.size, RELEASES);
        }
    }

    #[test]
    fn batch_audit_on_empty_log_serves_genesis() {
        use distrust_log::auditor::Auditor;
        let mut fw = fresh_framework();
        let mut auditor = Auditor::new(vec![checkpoint_vk()]);
        let bundle = audit_bundle_from(&mut fw, 0);
        assert_eq!(bundle.checkpoints.len(), 1);
        assert_eq!(bundle.checkpoints[0].body.size, 0);
        assert!(auditor.observe_bundle(0, &bundle).is_consistent());
        // First install: growth from the empty log is vacuously
        // consistent.
        fw.apply_update(&release(1)).unwrap();
        let bundle = audit_bundle_from(&mut fw, 0);
        assert!(auditor.observe_bundle(0, &bundle).is_consistent());
        assert_eq!(auditor.latest(0).unwrap().body.size, 1);
    }

    /// A fresh directory for a durable framework; the caller removes it.
    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "distrust-framework-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A framework over the log in `dir`, as a restart finds it.
    fn open(dir: &std::path::Path, key: &[u8]) -> Result<EnclaveFramework, StoreError> {
        EnclaveFramework::open(
            FrameworkConfig {
                domain_index: 0,
                app_name: "counter".into(),
                developer_key: dev().verifying_key(),
                log_id: [7; 32],
                limits: Limits::default(),
                log_shards: 1,
                storage: StorageConfig::Durable(distrust_log::DurableOptions::new(dir)),
            },
            None,
            SigningKey::derive(b"framework tests", key),
            Box::new(NoImports),
        )
    }

    /// Recovery keeps the tail the running domain kept, bit for bit, and
    /// an auditor that verified a size long since dropped from it is
    /// served across the restart as it would have been before.
    #[test]
    fn a_restart_recovers_the_ring_and_serves_a_client_behind_it() {
        use distrust_log::auditor::Auditor;
        let dir = tempdir("ring");
        let mut fw = open(&dir, b"checkpoint").unwrap();
        let mut auditor = Auditor::new(vec![checkpoint_vk()]);
        let apply = |fw: &mut EnclaveFramework, versions: std::ops::RangeInclusive<u64>| {
            for version in versions {
                fw.apply_update(&release(version)).unwrap();
            }
        };
        apply(&mut fw, 1..=2);
        assert!(auditor
            .observe_bundle(0, &audit_bundle_from(&mut fw, 0))
            .is_consistent());
        apply(&mut fw, 3..=102);
        let ring = fw.epoch_checkpoints.clone();
        assert_eq!(ring.len(), RETAINED_EPOCHS);
        assert_eq!(ring.front().unwrap().body.size, 102 - 64);
        let notices = fw.handle(Request::GetNotices { since: 100 });
        drop(fw);

        let mut fw = open(&dir, b"checkpoint").unwrap();
        assert_eq!(fw.epoch_checkpoints, ring);
        assert_eq!(fw.current_version(), 102);
        assert_eq!(fw.handle(Request::GetNotices { since: 100 }), notices);
        assert!(matches!(notices, Response::Notices(n) if n.len() == 2));
        let bundle = audit_bundle_from(&mut fw, 2);
        assert_eq!(bundle.checkpoints.len(), MAX_BUNDLE_CHECKPOINTS);
        let outcome = auditor.observe_bundle(0, &bundle);
        assert!(outcome.is_consistent(), "{outcome:?}");
        assert_eq!(auditor.latest(0).unwrap().body.size, 102);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boot_refuses_a_newest_head_its_own_key_did_not_sign() {
        let dir = tempdir("foreign-key");
        let mut fw = open(&dir, b"checkpoint").unwrap();
        fw.apply_update(&release(1)).unwrap();
        drop(fw);
        // The same key resumes; any other key finds history it cannot
        // vouch for and must not serve.
        assert!(open(&dir, b"checkpoint").is_ok());
        assert!(matches!(
            open(&dir, b"another key"),
            Err(StoreError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn service_round_trips_bytes() {
        use distrust_tee::host::EnclaveService;
        let mut svc = FrameworkService::new(fresh_framework());
        let resp_bytes = svc.handle(Request::GetNotices { since: 0 }.to_wire());
        assert!(matches!(
            Response::from_wire(&resp_bytes),
            Ok(Response::Notices(_))
        ));
        // Garbage in, error frame out.
        let resp_bytes = svc.handle(vec![0xff, 0xfe]);
        assert!(matches!(
            Response::from_wire(&resp_bytes),
            Ok(Response::Error(_))
        ));
    }
}
