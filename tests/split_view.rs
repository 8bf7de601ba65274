//! Split-view detection through client gossip, plus misbehavior hidden
//! inside one audit bundle.
//!
//! The strongest attack an equivocating domain can mount is to keep every
//! individual client's view internally consistent while showing different
//! clients different histories. Detection then requires clients (or
//! third-party auditors) to compare notes — the same gossip mechanism
//! Certificate Transparency relies on, which the paper inherits by
//! building on CT-style logs.
//!
//! Misbehavior can also hide *inside* a proof bundle (two conflicting
//! checkpoints in one response) or behind a stale server-side bundle
//! cache; both must be flagged.

mod common;

use common::{bundle_fake, client, descriptor_for, signed, status_with};
use distrust::core::server::DirectHost;
use distrust::crypto::schnorr::SigningKey;
use distrust::log::auditor::Misbehavior;
use distrust::log::batch::{CheckpointBundle, ProofBundle};
use distrust::log::checkpoint::log_id;
use distrust::log::merkle::MerkleLog;
use distrust::wire::{Decode, Encode};

#[test]
fn gossip_exposes_split_view() {
    let key = SigningKey::derive(b"split view", b"checkpoint");
    let lid = log_id(b"split-deploy", 0);
    // A domain that serves a *consistent* fork per audit round: even
    // rounds see history A, odd rounds history B. Each client's one audit
    // is self-consistent — only gossip can expose the fork.
    let mut round = 0u64;
    let mut host = DirectHost::spawn(bundle_fake(move || {
        let head = if round.is_multiple_of(2) {
            [0xaa; 32]
        } else {
            [0xbb; 32]
        };
        round += 1;
        (
            status_with(head, 1),
            CheckpointBundle {
                checkpoints: vec![signed(&key, lid, 1, head, 1)],
                proof: ProofBundle::default(),
            },
        )
    }))
    .expect("spawn");
    let descriptor = descriptor_for(host.addr(), &key);

    // Client A audits: sees branch 0 ([0xaa]) — internally consistent.
    let mut client_a = client(&descriptor, b"client a");
    let report_a = client_a.audit(None);
    assert!(
        report_a.misbehavior.is_empty(),
        "client A alone sees a consistent view: {report_a:?}"
    );

    // Client B audits: sees branch 1 ([0xbb]) — also internally consistent.
    let mut client_b = client(&descriptor, b"client b");
    let report_b = client_b.audit(None);
    assert!(
        report_b.misbehavior.is_empty(),
        "client B alone sees a consistent view: {report_b:?}"
    );

    // The two views must actually differ for this test to mean anything.
    let head_a = client_a.gossip_payload()[0].1.body.head;
    let head_b = client_b.gossip_payload()[0].1.body.head;
    assert_ne!(head_a, head_b, "domain forked its history");

    // Gossip: B relays its checkpoints to A → equivocation proof.
    let evidence = client_a.ingest_envelope(&client_b.gossip_envelope());
    let proof = evidence
        .iter()
        .find_map(|m| match m {
            Misbehavior::Equivocation { proof, .. } => Some(proof.clone()),
            _ => None,
        })
        .expect("split view detected through gossip");
    assert!(proof.verify(&key.verifying_key()));

    // The proof is transferable: any third party verifies it from bytes.
    let wire = proof.to_wire();
    let transported =
        distrust::log::checkpoint::EquivocationProof::from_wire(&wire).expect("decodes");
    assert!(transported.verify(&key.verifying_key()));

    host.shutdown();
}

#[test]
fn equivocation_inside_one_bundle_yields_transferable_proof() {
    // A domain that equivocates *inside* one proof bundle: two correctly
    // signed checkpoints for the same size with different heads. One
    // round convicts it, with the same transferable evidence a fork
    // spread over two rounds (or two clients + gossip) yields.
    let key = SigningKey::derive(b"bundle equivocation", b"checkpoint");
    let lid = log_id(b"bundle-equiv-deploy", 0);
    let mut host = DirectHost::spawn(bundle_fake(move || {
        (
            status_with([0xaa; 32], 1),
            CheckpointBundle {
                checkpoints: vec![
                    signed(&key, lid, 1, [0xaa; 32], 1),
                    signed(&key, lid, 1, [0xbb; 32], 1),
                ],
                proof: ProofBundle::default(),
            },
        )
    }))
    .expect("spawn");
    let descriptor = descriptor_for(host.addr(), &key);

    let mut auditor = client(&descriptor, b"auditor");
    let report = auditor.audit(None);
    let proof = report
        .misbehavior
        .iter()
        .find_map(|m| match m {
            Misbehavior::Equivocation { domain: 0, proof } => Some(proof.clone()),
            _ => None,
        })
        .expect("in-bundle equivocation flagged");
    // Publicly verifiable from bytes alone.
    let transported =
        distrust::log::checkpoint::EquivocationProof::from_wire(&proof.to_wire()).expect("decodes");
    assert!(transported.verify(&key.verifying_key()));
    assert!(!report.is_clean());

    host.shutdown();
}

#[test]
fn stale_cached_prefix_is_flagged_as_rollback() {
    let key = SigningKey::derive(b"stale cache", b"checkpoint");
    let lid = log_id(b"stale-deploy", 0);
    let mut log = MerkleLog::new();
    log.append(b"v1");
    log.append(b"v2");
    // A domain whose bundle cache went stale: after showing a client size
    // 2, it serves a (correctly signed, internally valid) bundle for
    // size 1.
    let cp = move |size: usize, log: &MerkleLog| {
        signed(
            &key,
            lid,
            size as u64,
            log.root_of_prefix(size),
            size as u64,
        )
    };
    let mut audits = 0u64;
    let mut host = DirectHost::spawn(bundle_fake(move || {
        audits += 1;
        if audits == 1 {
            // Fresh view: both epochs plus the real 1→2 proof.
            (
                status_with(log.root(), 2),
                CheckpointBundle {
                    checkpoints: vec![cp(1, &log), cp(2, &log)],
                    proof: log.prove_consistency_range(&[1, 2]).expect("proof"),
                },
            )
        } else {
            // Stale cached prefix: an old, size-1 view.
            (
                status_with(log.root_of_prefix(1), 1),
                CheckpointBundle {
                    checkpoints: vec![cp(1, &log)],
                    proof: ProofBundle::default(),
                },
            )
        }
    }))
    .expect("spawn");
    let descriptor = descriptor_for(host.addr(), &key);

    let mut auditor = client(&descriptor, b"auditor");
    // First audit verifies up to size 2.
    let first = auditor.audit(None);
    assert!(
        first.misbehavior.is_empty() && first.domains[0].failure.is_none(),
        "fresh view is consistent: {first:?}"
    );
    // Second audit gets the stale size-1 bundle: a checkpoint going
    // backwards.
    let second = auditor.audit(None);
    assert!(
        second.misbehavior.iter().any(|m| matches!(
            m,
            Misbehavior::Rollback {
                domain: 0,
                trusted_size: 2,
                offered_size: 1,
            }
        )),
        "stale prefix must be flagged as rollback: {second:?}"
    );
    assert!(!second.is_clean());

    host.shutdown();
}

#[test]
fn gossip_between_honest_clients_is_quiet() {
    // Against an honest deployment, gossip produces no evidence.
    let deployment = distrust::core::Deployment::launch(
        distrust::apps::analytics::app_spec(3),
        b"honest gossip seed",
    )
    .expect("launch");
    let mut a = deployment.client(b"client a");
    let mut b = deployment.client(b"client b");
    assert!(a.audit(None).is_clean());
    assert!(b.audit(None).is_clean());
    assert!(a.ingest_envelope(&b.gossip_envelope()).is_empty());
    assert!(b.ingest_envelope(&a.gossip_envelope()).is_empty());
}
