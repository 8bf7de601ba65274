//! The client ↔ trust-domain wire protocol.
//!
//! Every interaction in Figure 2 — audits, application calls, update
//! pushes, log queries — is one of these explicit message types, encoded
//! with the deterministic codec (hashes and signatures must be reproducible
//! on both ends).

use crate::manifest::{ReleaseManifest, SignedRelease};
use distrust_gossip::envelope::GossipEnvelope;
use distrust_gossip::witness::CosignedHeads;
use distrust_log::batch::CheckpointBundle;
use distrust_tee::attest::Quote;
use distrust_wire::codec::{decode_seq, encode_seq, Decode, DecodeError, Encode};
use distrust_wire::wire_struct;

/// A request to a trust domain.
///
/// `Update` dwarfs the other variants (it carries whole module bytes);
/// requests are built once and serialized immediately, so boxing would
/// only add indirection.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum Request {
    /// Invoke the application.
    AppCall {
        /// Method selector passed to the guest's `handle` export.
        method: u64,
        /// Opaque payload copied into the guest inbox.
        payload: Vec<u8>,
    },
    /// Push a developer-signed code update (Figure 2, left).
    Update {
        /// The signed release.
        release: SignedRelease,
    },
    /// Fetch log leaves from index `from` on, for replay/inspection. The
    /// answer is one page — the leaves that fit a fixed byte budget, at
    /// least one — so a reader asks again from where the page ended until
    /// an answer comes back empty; a `from` past the end is an error.
    GetLogEntries {
        /// First index to return.
        from: u64,
    },
    /// Fetch update notices issued at or after `since` (log index), one
    /// page at a time like [`Request::GetLogEntries`]: the next page
    /// starts after the last notice's `log_index`.
    GetNotices {
        /// First notice index of interest.
        since: u64,
    },
    /// The audit exchange (§3.3): attestation + latest checkpoint(s) + a
    /// range consistency proof from `verified_size`, all in a single
    /// response ([`Response::AuditBundle`]).
    BatchAudit {
        /// Client-chosen id the response must echo: the client rejects
        /// an answer carrying any other id.
        request_id: u64,
        /// Client-chosen freshness nonce (bound into the TEE quote).
        nonce: [u8; 32],
        /// Log size the client last verified (0 = nothing verified); the
        /// proof bundle links from here to the current log head.
        verified_size: u64,
    },
    /// Epidemic checkpoint exchange: the sender's latest signed heads and
    /// any transferable misbehavior evidence it holds. Answered with
    /// [`Response::Gossip`] carrying the receiver's view, so every
    /// exchange compares notes in both directions.
    Gossip {
        /// What the sender knows.
        envelope: GossipEnvelope,
    },
    /// Ask a witness relay for the latest threshold-cosigned head set —
    /// one response covers all `n` domains for thin clients. Domains
    /// themselves answer `cosigned: None` (they do not cosign their own
    /// heads); only witness relays serve `Some`.
    WitnessHead,
}

impl Encode for Request {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            // Tags 0 and 1 are retired (the per-step attestation and status
            // requests: a `BatchAudit` answer carries both) and must not be
            // reused.
            Request::AppCall { method, payload } => {
                2u8.encode(out);
                method.encode(out);
                payload.encode(out);
            }
            Request::Update { release } => {
                3u8.encode(out);
                release.encode(out);
            }
            // Tags 4 and 5 are retired (the removed per-step checkpoint
            // and consistency requests) and must not be reused.
            Request::GetLogEntries { from } => {
                6u8.encode(out);
                from.encode(out);
            }
            Request::GetNotices { since } => {
                7u8.encode(out);
                since.encode(out);
            }
            Request::BatchAudit {
                request_id,
                nonce,
                verified_size,
            } => {
                8u8.encode(out);
                request_id.encode(out);
                nonce.encode(out);
                verified_size.encode(out);
            }
            // Tag 9 is retired (the per-tree read of a log that could be
            // several trees) and must not be reused.
            Request::Gossip { envelope } => {
                10u8.encode(out);
                envelope.encode(out);
            }
            Request::WitnessHead => 11u8.encode(out),
        }
    }
}

impl Request {
    /// Encodes an [`Request::Update`] frame for `release` without cloning
    /// the release into a `Request` first — update fan-out sends the same
    /// bytes to every domain, and module bytes dwarf everything else.
    /// Kept in lockstep with the `Encode` impl above (asserted by test).
    pub fn encode_update(release: &SignedRelease) -> Vec<u8> {
        let mut out = Vec::new();
        3u8.encode(&mut out);
        release.encode(&mut out);
        out
    }
}

impl Decode for Request {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(match u8::decode(input)? {
            2 => Request::AppCall {
                method: Decode::decode(input)?,
                payload: Decode::decode(input)?,
            },
            3 => Request::Update {
                release: Decode::decode(input)?,
            },
            6 => Request::GetLogEntries {
                from: Decode::decode(input)?,
            },
            7 => Request::GetNotices {
                since: Decode::decode(input)?,
            },
            8 => Request::BatchAudit {
                request_id: Decode::decode(input)?,
                nonce: Decode::decode(input)?,
                verified_size: Decode::decode(input)?,
            },
            10 => Request::Gossip {
                envelope: Decode::decode(input)?,
            },
            11 => Request::WitnessHead,
            other => return Err(DecodeError::InvalidTag(other)),
        })
    }
}

/// A domain's status snapshot (authenticated only when carried inside
/// attestation `user_data`; [`BundleAttestation::Unattested`] is advisory).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomainStatus {
    /// Index of this domain within the deployment.
    pub domain_index: u32,
    /// Digest of the currently running application module.
    pub app_digest: [u8; 32],
    /// Version of the currently running application.
    pub app_version: u64,
    /// Number of entries in the code-digest log.
    pub log_size: u64,
    /// Merkle root of the code-digest log.
    pub log_head: [u8; 32],
    /// Measurement of the framework itself (what the TEE attests).
    pub framework_measurement: [u8; 32],
}

wire_struct!(DomainStatus {
    domain_index: u32,
    app_digest: [u8; 32],
    app_version: u64,
    log_size: u64,
    log_head: [u8; 32],
    framework_measurement: [u8; 32],
});

/// The attestation binding: what the framework packs into quote
/// `user_data` so the client can tie nonce + status together.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttestationBinding {
    /// Echo of the client's nonce.
    pub nonce: [u8; 32],
    /// The status snapshot being attested.
    pub status: DomainStatus,
}

wire_struct!(AttestationBinding {
    nonce: [u8; 32],
    status: DomainStatus,
});

/// A notice that an update was applied (issued *before* the new code
/// serves its first request, per §4.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateNotice {
    /// Manifest of the release that was activated.
    pub manifest: ReleaseManifest,
    /// Index of the release's leaf in the code-digest log; strictly
    /// increasing from one notice to the next.
    pub log_index: u64,
    /// Domain-local logical time of activation.
    pub logical_time: u64,
}

wire_struct!(UpdateNotice {
    manifest: ReleaseManifest,
    log_index: u64,
    logical_time: u64,
});

/// The attestation half of an [`AuditBundle`]: how the domain vouches for
/// the status snapshot it reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BundleAttestation {
    /// TEE quote whose `user_data` carries the [`AttestationBinding`]
    /// (nonce + status) — authoritative for TEE-backed domains.
    Quote(Box<Quote>),
    /// Plain status, signed by nothing, for trust domain 0, which has no
    /// secure hardware (Figure 2). Clients treat it as advisory.
    Unattested(DomainStatus),
}

impl Encode for BundleAttestation {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BundleAttestation::Quote(q) => {
                0u8.encode(out);
                q.encode(out);
            }
            BundleAttestation::Unattested(s) => {
                1u8.encode(out);
                s.encode(out);
            }
        }
    }
}

impl Decode for BundleAttestation {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(match u8::decode(input)? {
            0 => BundleAttestation::Quote(Box::new(Decode::decode(input)?)),
            1 => BundleAttestation::Unattested(Decode::decode(input)?),
            other => return Err(DecodeError::InvalidTag(other)),
        })
    }
}

/// Everything one audit round needs from one domain, in one response:
/// attestation, the signed checkpoint(s) since the client's verified
/// prefix, and the consistency proof bundle linking them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditBundle {
    /// Echo of the request id; the client checks it.
    pub request_id: u64,
    /// Quote (TEE domains) or plain status (domain 0).
    pub attestation: BundleAttestation,
    /// Signed checkpoints + range proof from the client's verified size.
    pub bundle: CheckpointBundle,
}

wire_struct!(AuditBundle {
    request_id: u64,
    attestation: BundleAttestation,
    bundle: CheckpointBundle,
});

/// A response from a trust domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Application call result.
    AppResult {
        /// Bytes the guest wrote to its outbox.
        payload: Vec<u8>,
    },
    /// Application call failed (trap, oversized payload, …).
    AppError(String),
    /// Update accepted and activated.
    UpdateAck {
        /// New log size after appending the release.
        log_size: u64,
        /// Digest of the now-running code.
        digest: [u8; 32],
    },
    /// Update rejected (bad signature, stale version, …).
    UpdateRejected(String),
    /// Raw log leaves.
    LogEntries(Vec<Vec<u8>>),
    /// Update notices.
    Notices(Vec<UpdateNotice>),
    /// Generic error.
    Error(String),
    /// Batched audit: attestation + checkpoints + range proof in one
    /// round-trip (answers [`Request::BatchAudit`]).
    AuditBundle(Box<AuditBundle>),
    /// The receiver's side of a gossip exchange (answers
    /// [`Request::Gossip`]): its latest signed heads plus any evidence it
    /// holds. Contents are claims — the receiving party verifies every
    /// head and evidence bundle against its own pinned keys.
    Gossip {
        /// What the responder knows.
        envelope: GossipEnvelope,
    },
    /// The latest threshold-cosigned head set a witness relay holds, or
    /// `None` when no quorum has formed yet (answers
    /// [`Request::WitnessHead`]).
    WitnessHead {
        /// The aggregated quorum cosignature over all domains' heads.
        cosigned: Option<CosignedHeads>,
    },
}

impl Encode for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            // Tags 0, 1 and 2 are retired (the answers to request tags 0
            // and 1: a quote or an unattested status travels only inside a
            // [`BundleAttestation`]) and must not be reused.
            Response::AppResult { payload } => {
                3u8.encode(out);
                payload.encode(out);
            }
            Response::AppError(e) => {
                4u8.encode(out);
                e.encode(out);
            }
            Response::UpdateAck { log_size, digest } => {
                5u8.encode(out);
                log_size.encode(out);
                digest.encode(out);
            }
            Response::UpdateRejected(e) => {
                6u8.encode(out);
                e.encode(out);
            }
            // Tags 7 and 8 are retired (the answers to request tags 4
            // and 5) and must not be reused.
            Response::LogEntries(entries) => {
                9u8.encode(out);
                encode_seq(entries, out);
            }
            Response::Notices(notices) => {
                10u8.encode(out);
                encode_seq(notices, out);
            }
            Response::Error(e) => {
                11u8.encode(out);
                e.encode(out);
            }
            Response::AuditBundle(b) => {
                12u8.encode(out);
                b.encode(out);
            }
            // Tag 13 is retired (the second audit-bundle format, of a log
            // that could be several trees) and must not be reused.
            Response::Gossip { envelope } => {
                14u8.encode(out);
                envelope.encode(out);
            }
            Response::WitnessHead { cosigned } => {
                15u8.encode(out);
                cosigned.encode(out);
            }
        }
    }
}

impl Decode for Response {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(match u8::decode(input)? {
            3 => Response::AppResult {
                payload: Decode::decode(input)?,
            },
            4 => Response::AppError(Decode::decode(input)?),
            5 => Response::UpdateAck {
                log_size: Decode::decode(input)?,
                digest: Decode::decode(input)?,
            },
            6 => Response::UpdateRejected(Decode::decode(input)?),
            9 => Response::LogEntries(decode_seq(input)?),
            10 => Response::Notices(decode_seq(input)?),
            11 => Response::Error(Decode::decode(input)?),
            12 => Response::AuditBundle(Box::new(Decode::decode(input)?)),
            14 => Response::Gossip {
                envelope: Decode::decode(input)?,
            },
            15 => Response::WitnessHead {
                cosigned: Decode::decode(input)?,
            },
            other => return Err(DecodeError::InvalidTag(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_crypto::schnorr::SigningKey;
    use distrust_sandbox::guests::counter_module;

    fn status() -> DomainStatus {
        DomainStatus {
            domain_index: 2,
            app_digest: [1; 32],
            app_version: 3,
            log_size: 4,
            log_head: [5; 32],
            framework_measurement: [6; 32],
        }
    }

    #[test]
    fn requests_round_trip() {
        let dev = SigningKey::derive(b"proto", b"dev");
        let release =
            crate::manifest::SignedRelease::create("app", 1, "", &counter_module(1), &dev);
        let requests = vec![
            Request::AppCall {
                method: 7,
                payload: b"payload".to_vec(),
            },
            Request::Update { release },
            Request::GetLogEntries { from: 1 },
            Request::GetNotices { since: 2 },
            Request::BatchAudit {
                request_id: 42,
                nonce: [7; 32],
                verified_size: 5,
            },
        ];
        for req in requests {
            let wire = req.to_wire();
            assert_eq!(Request::from_wire(&wire), Ok(req));
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::AppResult {
                payload: vec![1, 2, 3],
            },
            Response::AppError("trap".into()),
            Response::UpdateAck {
                log_size: 2,
                digest: [3; 32],
            },
            Response::UpdateRejected("stale".into()),
            Response::LogEntries(vec![b"leaf".to_vec()]),
            Response::Notices(vec![UpdateNotice {
                manifest: ReleaseManifest {
                    app_name: "app".into(),
                    version: 2,
                    code_digest: [8; 32],
                    notes: "notes".into(),
                    locks_updates: false,
                },
                log_index: 1,
                logical_time: 10,
            }]),
            Response::Error("nope".into()),
            Response::AuditBundle(Box::new(sample_audit_bundle())),
        ];
        for resp in responses {
            let wire = resp.to_wire();
            assert_eq!(Response::from_wire(&wire), Ok(resp));
        }
    }

    fn sample_audit_bundle() -> AuditBundle {
        use distrust_log::checkpoint::{CheckpointBody, SignedCheckpoint};
        use distrust_log::merkle::MerkleLog;
        let sk = SigningKey::derive(b"proto", b"cp");
        let mut log = MerkleLog::new();
        let mut checkpoints = Vec::new();
        for i in 0..3u64 {
            log.append(format!("v{i}").as_bytes());
            checkpoints.push(SignedCheckpoint::sign(
                CheckpointBody {
                    log_id: [3; 32],
                    size: log.len() as u64,
                    head: log.root(),
                    logical_time: i + 1,
                },
                &sk,
            ));
        }
        let proof = log.prove_consistency_range(&[1, 2, 3]).unwrap();
        AuditBundle {
            request_id: 9,
            attestation: BundleAttestation::Unattested(status()),
            bundle: distrust_log::batch::CheckpointBundle { checkpoints, proof },
        }
    }

    #[test]
    fn encode_update_matches_enum_encoding() {
        let dev = SigningKey::derive(b"proto", b"dev2");
        let release =
            crate::manifest::SignedRelease::create("app", 3, "notes", &counter_module(2), &dev);
        assert_eq!(
            Request::encode_update(&release),
            Request::Update { release }.to_wire()
        );
    }

    #[test]
    fn audit_bundle_truncation_rejected_at_every_cut() {
        let wire = Response::AuditBundle(Box::new(sample_audit_bundle())).to_wire();
        for cut in 0..wire.len() {
            assert!(
                Response::from_wire(&wire[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn binding_round_trip() {
        let binding = AttestationBinding {
            nonce: [0xaa; 32],
            status: status(),
        };
        assert_eq!(
            AttestationBinding::from_wire(&binding.to_wire()),
            Ok(binding)
        );
    }

    #[test]
    fn malformed_input_rejected() {
        assert!(Request::from_wire(&[99]).is_err());
        assert!(Response::from_wire(&[99]).is_err());
        assert!(Request::from_wire(&[]).is_err());
    }

    fn sample_gossip_envelope() -> GossipEnvelope {
        use distrust_gossip::envelope::GossipHead;
        use distrust_gossip::evidence::EvidenceBundle;
        use distrust_log::checkpoint::{CheckpointBody, EquivocationProof, SignedCheckpoint};
        let sk = SigningKey::derive(b"proto", b"gossip");
        let cp = |size: u64, fill: u8| {
            SignedCheckpoint::sign(
                CheckpointBody {
                    log_id: [4; 32],
                    size,
                    head: [fill; 32],
                    logical_time: size,
                },
                &sk,
            )
        };
        GossipEnvelope {
            heads: vec![GossipHead {
                domain: 1,
                checkpoint: cp(6, 0x11),
            }],
            evidence: vec![EvidenceBundle {
                domain: 2,
                proof: EquivocationProof {
                    a: cp(3, 0x22),
                    b: cp(3, 0x33),
                },
            }],
        }
    }

    fn sample_cosigned_heads() -> distrust_gossip::witness::CosignedHeads {
        use distrust_crypto::drbg::HmacDrbg;
        use distrust_crypto::threshold::{generate, partial_sign};
        use distrust_gossip::witness::cosign_signing_bytes;
        use distrust_log::checkpoint::CheckpointBody;
        let tk = generate(1, 1, &mut HmacDrbg::new(b"proto", b"witness")).unwrap();
        let heads = vec![CheckpointBody {
            log_id: [5; 32],
            size: 7,
            head: [6; 32],
            logical_time: 7,
        }];
        let partial = partial_sign(&tk.shares[0], &cosign_signing_bytes(&heads));
        distrust_gossip::witness::CosignedHeads {
            heads,
            signature: partial.value,
        }
    }

    #[test]
    fn gossip_and_witness_head_round_trip() {
        let requests = vec![
            Request::Gossip {
                envelope: sample_gossip_envelope(),
            },
            Request::Gossip {
                envelope: GossipEnvelope::empty(),
            },
            Request::WitnessHead,
        ];
        for req in requests {
            assert_eq!(Request::from_wire(&req.to_wire()), Ok(req));
        }
        let responses = vec![
            Response::Gossip {
                envelope: sample_gossip_envelope(),
            },
            Response::WitnessHead {
                cosigned: Some(sample_cosigned_heads()),
            },
            Response::WitnessHead { cosigned: None },
        ];
        for resp in responses {
            assert_eq!(Response::from_wire(&resp.to_wire()), Ok(resp));
        }
    }

    #[test]
    fn gossip_truncation_rejected_at_every_cut() {
        let req_wire = Request::Gossip {
            envelope: sample_gossip_envelope(),
        }
        .to_wire();
        for cut in 0..req_wire.len() {
            assert!(
                Request::from_wire(&req_wire[..cut]).is_err(),
                "request truncation at {cut} must not decode"
            );
        }
        let resp_wire = Response::Gossip {
            envelope: sample_gossip_envelope(),
        }
        .to_wire();
        for cut in 0..resp_wire.len() {
            assert!(
                Response::from_wire(&resp_wire[..cut]).is_err(),
                "response truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn witness_head_truncation_rejected_at_every_cut() {
        let wire = Response::WitnessHead {
            cosigned: Some(sample_cosigned_heads()),
        }
        .to_wire();
        for cut in 0..wire.len() {
            assert!(
                Response::from_wire(&wire[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }
}
