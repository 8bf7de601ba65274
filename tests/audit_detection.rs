//! Detection tests: a misbehaving trust domain is caught by the client's
//! audit, and equivocation yields a transferable cryptographic proof —
//! the paper's core guarantee ("the user will be able to detect whenever
//! the system does not execute the expected code … and will obtain a
//! publicly verifiable proof of misbehavior").
//!
//! `BatchAudit` is the only audit exchange, so a domain cannot pick how it
//! is examined: refusing the request fails the audit, and a dead
//! connection is reopened once rather than worked around. What a client
//! then *reads* from a domain — its leaves, its notices — is held against
//! the head that audit verified.

mod common;

use common::{bundle_fake, bundle_fake_with, client, descriptor_for, signed, status_with};
use distrust::core::protocol::{AuditBundle, BundleAttestation, Request, Response, UpdateNotice};
use distrust::core::server::DirectHost;
use distrust::core::{ClientError, DeploymentClient, ReleaseManifest};
use distrust::crypto::schnorr::SigningKey;
use distrust::log::auditor::Misbehavior;
use distrust::log::batch::{CheckpointBundle, ProofBundle};
use distrust::log::checkpoint::log_id;
use distrust::wire::transport::{TcpTransport, Transport};
use distrust::wire::{Decode, Encode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One signed checkpoint, no proof: what a domain showing a single epoch
/// serves.
fn lone(checkpoint: distrust::log::SignedCheckpoint) -> CheckpointBundle {
    CheckpointBundle {
        checkpoints: vec![checkpoint],
        proof: ProofBundle::default(),
    }
}

/// A malicious trust domain: reports the same status every round, but
/// signs a DIFFERENT log head for the same size on every audit — classic
/// equivocation (showing different histories to different clients).
fn equivocating_domain(key: SigningKey, lid: [u8; 32]) -> DirectHost {
    let mut flip = false;
    DirectHost::spawn(bundle_fake(move || {
        flip = !flip;
        let head = if flip { [0xaa; 32] } else { [0xbb; 32] };
        (
            status_with([0xaa; 32], 1),
            lone(signed(&key, lid, 1, head, 1)),
        )
    }))
    .expect("spawn")
}

#[test]
fn equivocating_domain_yields_transferable_proof() {
    let key = SigningKey::derive(b"equivocator", b"checkpoint");
    let mut host = equivocating_domain(key, log_id(b"evil-deploy", 0));
    let mut client = client(&descriptor_for(host.addr(), &key), b"auditor");

    // First audit: checkpoint says head 0xaa — fine so far (matches the
    // status the fake domain reports).
    let first = client.audit(None);
    assert!(
        first.misbehavior.is_empty(),
        "first view is internally consistent: {first:?}"
    );

    // Second audit: same size, different head. The auditor holds both
    // signed checkpoints → equivocation proof.
    let second = client.audit(None);
    let equivocation = second
        .misbehavior
        .iter()
        .find_map(|m| match m {
            Misbehavior::Equivocation { proof, .. } => Some(proof.clone()),
            _ => None,
        })
        .expect("equivocation detected");

    // The proof is PUBLICLY verifiable: serialize, hand to a third party
    // knowing only the domain's public key, verify.
    let wire = equivocation.to_wire();
    let transported =
        distrust::log::checkpoint::EquivocationProof::from_wire(&wire).expect("decodes");
    assert!(transported.verify(&key.verifying_key()));
    // And it does not frame an innocent domain.
    let innocent = SigningKey::derive(b"innocent", b"k");
    assert!(!transported.verify(&innocent.verifying_key()));

    host.shutdown();
}

#[test]
fn history_rewrite_without_proof_is_flagged() {
    // A domain that rewrites history: sizes grow but the heads are
    // unrelated and no consistency proof is offered.
    let key = SigningKey::derive(b"rewriter", b"checkpoint");
    let lid = log_id(b"rewrite-deploy", 0);
    let mut phase = 0u64;
    let mut host = DirectHost::spawn(bundle_fake(move || {
        phase += 1;
        let (size, head) = if phase == 1 {
            (1u64, [0x10u8; 32])
        } else {
            (2u64, [0x20u8; 32])
        };
        (
            status_with(head, size),
            lone(signed(&key, lid, size, head, phase)),
        )
    }))
    .expect("spawn");
    let mut client = client(&descriptor_for(host.addr(), &key), b"auditor");

    let first = client.audit(None);
    assert!(first.misbehavior.is_empty(), "{first:?}");
    let second = client.audit(None);
    assert!(
        second
            .misbehavior
            .iter()
            .any(|m| matches!(m, Misbehavior::InconsistentGrowth { .. })),
        "rewrite must be flagged: {second:?}"
    );

    host.shutdown();
}

#[test]
fn checkpoint_signed_by_wrong_key_is_flagged() {
    let real_key = SigningKey::derive(b"hijacked", b"real");
    let attacker_key = SigningKey::derive(b"hijacked", b"attacker");
    // The domain signs with the attacker's key (e.g. after host takeover
    // of an unattested domain); the client pins the REAL key.
    let mut host = equivocating_domain(attacker_key, log_id(b"hijack-deploy", 0));
    let mut client = client(&descriptor_for(host.addr(), &real_key), b"auditor");
    let report = client.audit(None);
    assert!(
        report
            .misbehavior
            .iter()
            .any(|m| matches!(m, Misbehavior::BadSignature { .. })),
        "{report:?}"
    );
    host.shutdown();
}

#[test]
fn refusing_batch_audit_fails_the_audit_after_one_frame() {
    // A domain does not get to choose how it is examined: answering the
    // audit with an error is a failed audit carrying that reason, not an
    // invitation to try some other protocol.
    let key = SigningKey::derive(b"refuser", b"checkpoint");
    let audit_frames = Arc::new(AtomicU64::new(0));
    let other_frames = Arc::new(AtomicU64::new(0));
    let (audits, others) = (Arc::clone(&audit_frames), Arc::clone(&other_frames));
    let mut host = DirectHost::spawn(move |request: Vec<u8>| {
        match Request::from_wire(&request) {
            Ok(Request::BatchAudit { .. }) => audits.fetch_add(1, Ordering::SeqCst),
            // The piggybacked gossip frame is not an audit attempt.
            Ok(Request::Gossip { .. }) => 0,
            _ => others.fetch_add(1, Ordering::SeqCst),
        };
        Response::Error("audits are not served here".into()).to_wire()
    })
    .expect("spawn");
    let mut client = client(&descriptor_for(host.addr(), &key), b"auditor");

    let report = client.audit(None);
    assert!(!report.is_clean());
    let failure = report.domains[0].failure.as_deref().expect("audit failed");
    assert!(
        failure.contains("audits are not served here"),
        "the domain's reason is recorded: {failure}"
    );
    assert!(report.domains[0].status.is_none());
    assert_eq!(audit_frames.load(Ordering::SeqCst), 1, "one audit frame");
    assert_eq!(other_frames.load(Ordering::SeqCst), 0, "no second protocol");

    host.shutdown();
}

#[test]
fn dropped_connection_is_reopened_once_and_the_audit_resent() {
    // A server that closes the connection after every frame it answers
    // (it stops answering and reads until the client hangs up). A client
    // left holding such a connection finds out only when it next reads
    // from it; the audit then reconnects once and re-issues the request.
    let key = SigningKey::derive(b"dropper", b"checkpoint");
    let lid = log_id(b"dropper-deploy", 0);
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let connections = Arc::new(AtomicU64::new(0));
    let answered_audits = Arc::new(AtomicU64::new(0));
    let ignored_audits = Arc::new(AtomicU64::new(0));
    let (conns, answered, ignored) = (
        Arc::clone(&connections),
        Arc::clone(&answered_audits),
        Arc::clone(&ignored_audits),
    );
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let server_done = Arc::clone(&done);
    let server = std::thread::spawn(move || {
        let mut domain = bundle_fake(move || {
            (
                status_with([0x55; 32], 1),
                lone(signed(&key, lid, 1, [0x55; 32], 1)),
            )
        });
        use distrust::tee::host::EnclaveService;
        while let Ok((stream, _)) = listener.accept() {
            if server_done.load(Ordering::SeqCst) {
                break;
            }
            conns.fetch_add(1, Ordering::SeqCst);
            let write_half = stream.try_clone().expect("clone");
            let mut transport = TcpTransport::new(stream).expect("wrap");
            let Ok(frame) = transport.recv() else {
                continue;
            };
            if matches!(Request::from_wire(&frame), Ok(Request::BatchAudit { .. })) {
                answered.fetch_add(1, Ordering::SeqCst);
            }
            transport.send(&domain.handle(frame)).expect("answer");
            write_half
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            while let Ok(frame) = transport.recv() {
                if matches!(Request::from_wire(&frame), Ok(Request::BatchAudit { .. })) {
                    ignored.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    });
    let mut client = client(&descriptor_for(addr, &key), b"auditor");

    // Round 1 on a fresh connection: the bundle arrives, the gossip
    // answer does not (best-effort), the client notices the hang-up.
    let first = client.audit(None);
    assert!(first.is_clean(), "{first:?}");
    assert_eq!(connections.load(Ordering::SeqCst), 1);

    // An answered exchange leaves the client holding a connection the
    // server has already closed.
    assert!(matches!(
        client.exchange(0, &Request::WitnessHead),
        Ok(Response::Error(_))
    ));
    assert_eq!(connections.load(Ordering::SeqCst), 2);

    // Round 2 starts on that dead connection: its frame goes unanswered,
    // the client reconnects once, resends, and the audit is clean.
    let second = client.audit(None);
    assert!(second.is_clean(), "{second:?}");
    assert_eq!(connections.load(Ordering::SeqCst), 3, "one reconnect");
    assert_eq!(ignored_audits.load(Ordering::SeqCst), 1, "the stale send");
    assert_eq!(answered_audits.load(Ordering::SeqCst), 2, "one per round");

    done.store(true, Ordering::SeqCst);
    drop(client);
    std::net::TcpStream::connect(addr).expect("wake the acceptor");
    server.join().expect("server thread");
}

#[test]
fn bundle_echoing_another_request_id_fails_the_audit_and_returns() {
    // A byzantine domain answers the first audit with a well-signed bundle
    // that echoes somebody else's request id. The client reads exactly one
    // frame per request, so it must notice, fail that domain without
    // showing the auditor any of the bundle, and stay frame-aligned for
    // the next round — not wait for a "right" frame that never comes.
    let key = SigningKey::derive(b"misechoer", b"checkpoint");
    let lid = log_id(b"misecho-deploy", 0);
    let mut lied = false;
    let mut host = DirectHost::spawn(move |request: Vec<u8>| {
        let response = match Request::from_wire(&request) {
            Ok(Request::BatchAudit { request_id, .. }) => {
                let echoed = if lied { request_id } else { request_id + 1000 };
                lied = true;
                Response::AuditBundle(Box::new(AuditBundle {
                    request_id: echoed,
                    attestation: BundleAttestation::Unattested(status_with([0x77; 32], 1)),
                    bundle: lone(signed(&key, lid, 1, [0x77; 32], 1)),
                }))
            }
            Ok(Request::Gossip { envelope }) => Response::Gossip { envelope },
            _ => Response::Error("not implemented".into()),
        };
        response.to_wire()
    })
    .expect("spawn");
    let mut client = client(&descriptor_for(host.addr(), &key), b"auditor");

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let auditor = std::thread::spawn(move || {
        let first = client.audit(None);
        let untouched = client.auditor_prefix_cache(0).cloned();
        let second = client.audit(None);
        done_tx.send((first, untouched, second)).expect("report");
    });
    let (first, untouched, second) = done_rx
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("audit() must return, not wait for a matching id");
    auditor.join().expect("auditor thread");

    let failure = first.domains[0].failure.as_deref().expect("audit failed");
    assert!(
        failure.contains("1001") && failure.contains("expected 1"),
        "both ids are named: {failure}"
    );
    assert!(first.domains[0].status.is_none());
    let cache = untouched.expect("domain 0 has a cache");
    assert_eq!(
        (
            cache.verified_size(),
            cache.signatures_verified(),
            cache.consistency_verified(),
            cache.skipped()
        ),
        (None, 0, 0, 0),
        "the auditor saw nothing of the mis-echoed bundle"
    );
    assert!(second.is_clean(), "connection still aligned: {second:?}");

    host.shutdown();
}

/// The three leaves the reading tests' domain has logged and signed.
fn logged_leaf(index: u64) -> Vec<u8> {
    format!("release {index}").into_bytes()
}

/// Pages a byzantine reader-facing fake answers before it gives up and
/// says "empty": a client that believes the domain about where its log
/// ends collects them all, so the tests fail instead of hanging.
const PAGES_BEFORE_GIVING_UP: u64 = 1_000;

/// A domain that audits clean at a signed log of three [`logged_leaf`]s
/// and answers the reads `reads` has an answer for, and a client that has
/// audited it.
fn audited_reader(
    tag: &[u8],
    mut reads: impl FnMut(Request) -> Option<Response> + Send + 'static,
) -> (DirectHost, DeploymentClient) {
    let key = SigningKey::derive(tag, b"checkpoint");
    let mut log = distrust::log::MerkleLog::new();
    for index in 0..3 {
        log.append(&logged_leaf(index));
    }
    let head = log.root();
    let checkpoint = signed(&key, log_id(tag, 0), 3, head, 1);
    let host = DirectHost::spawn(bundle_fake_with(
        move || (status_with(head, 3), lone(checkpoint.clone())),
        move |request| reads(request).unwrap_or(Response::Error("not implemented".into())),
    ))
    .expect("spawn");
    let mut client = client(&descriptor_for(host.addr(), &key), b"reader");
    let report = client.audit(None);
    assert!(report.is_clean(), "{report:?}");
    (host, client)
}

#[test]
fn a_log_read_ends_at_the_verified_size_whatever_the_domain_keeps_answering() {
    // The domain never answers an empty page: past the three leaves it
    // signed it invents one more, for as long as it is asked.
    let asked = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&asked);
    let (mut host, mut client) = audited_reader(b"endless pager", move |request| {
        let Request::GetLogEntries { from } = request else {
            return None;
        };
        let gave_up = counter.fetch_add(1, Ordering::SeqCst) >= PAGES_BEFORE_GIVING_UP;
        let page = if gave_up {
            vec![]
        } else {
            vec![logged_leaf(from)]
        };
        Some(Response::LogEntries(page))
    });
    let leaves = client.log_entries(0, 0).expect("the signed log");
    assert_eq!(leaves, [logged_leaf(0), logged_leaf(1), logged_leaf(2)]);
    assert_eq!(asked.load(Ordering::SeqCst), 3, "one exchange per page");
    assert_eq!(client.log_entries(0, 2).unwrap(), [logged_leaf(2)]);
    assert!(client.log_entries(0, 3).unwrap().is_empty());
    assert!(matches!(
        client.log_entries(0, 4),
        Err(ClientError::AuditFailed(_))
    ));
    host.shutdown();

    // One page holding more than the signed log has left is refused whole.
    let (mut host, mut client) = audited_reader(b"overlong page", |request| match request {
        Request::GetLogEntries { from } => Some(Response::LogEntries(
            (from..from + 5).map(logged_leaf).collect(),
        )),
        _ => None,
    });
    match client.log_entries(0, 0) {
        Err(ClientError::Unexpected(why)) => assert!(why.contains("5 leaves"), "{why}"),
        other => panic!("a page past the signed size: {other:?}"),
    }
    host.shutdown();
}

#[test]
fn a_notice_page_that_does_not_advance_is_refused() {
    let notice = |log_index: u64| UpdateNotice {
        manifest: ReleaseManifest {
            app_name: "any".into(),
            version: log_index + 1,
            code_digest: [log_index as u8; 32],
            notes: String::new(),
            locks_updates: false,
        },
        log_index,
        logical_time: log_index + 1,
    };
    // Whatever `since` says, the domain answers the notice for leaf 0.
    let asked = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&asked);
    let (mut host, mut client) = audited_reader(b"stuck notices", move |request| {
        let Request::GetNotices { .. } = request else {
            return None;
        };
        let gave_up = counter.fetch_add(1, Ordering::SeqCst) >= PAGES_BEFORE_GIVING_UP;
        let page = if gave_up { vec![] } else { vec![notice(0)] };
        Some(Response::Notices(page))
    });
    match client.notices(0, 0) {
        Err(ClientError::Unexpected(why)) => assert!(why.contains("leaf 0"), "{why}"),
        other => panic!("the same notice twice: {other:?}"),
    }
    assert_eq!(
        asked.load(Ordering::SeqCst),
        2,
        "refused at the second page"
    );
    host.shutdown();

    // Nor may a notice name a leaf the verified log does not have; the
    // ones it does have come back, and the read stops at the size.
    let (mut host, mut client) = audited_reader(b"notices past", move |request| match request {
        Request::GetNotices { since } => {
            Some(Response::Notices(vec![notice(since), notice(since + 1)]))
        }
        _ => None,
    });
    assert_eq!(client.notices(0, 1).unwrap(), [notice(1), notice(2)]);
    assert!(client.notices(0, 3).unwrap().is_empty());
    match client.notices(0, 2) {
        Err(ClientError::Unexpected(why)) => assert!(why.contains("leaf 3"), "{why}"),
        other => panic!("a notice for leaf 3 of a log of 3: {other:?}"),
    }
    host.shutdown();
}

#[test]
fn a_substituted_leaf_is_not_the_log_that_was_signed() {
    // Right count, right size, page boundaries in order — and leaf 1 is
    // something the domain never logged.
    let (mut host, mut client) = audited_reader(b"substituted leaf", |request| match request {
        Request::GetLogEntries { from } => Some(Response::LogEntries(
            (from..3)
                .map(|index| match index {
                    1 => b"release 1, as told to this reader".to_vec(),
                    _ => logged_leaf(index),
                })
                .collect(),
        )),
        _ => None,
    });
    match client.log_entries(0, 0) {
        Err(ClientError::Unexpected(why)) => {
            assert!(why.contains("not the log it signed"), "{why}")
        }
        other => panic!("leaves that do not hash to the signed head: {other:?}"),
    }
    host.shutdown();
}
