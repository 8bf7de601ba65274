//! What a domain that keeps only its newest signed epochs in memory still
//! owes a client that fell behind them.
//!
//! A 1-shard domain serves at most 64 checkpoints an audit and holds the
//! newest 65 signed epochs; everything older is a record on disk that is
//! neither loaded nor served. A client further behind than that is handed
//! one consistency step from the size it verified to the oldest epoch
//! served. These tests put a client 100 releases behind — nothing else in
//! `tests/` goes past 64 — and check that it catches up clean, that what
//! it holds from *before* the gap is still evidence, and that a restart
//! of the deployment changes none of it.

mod common;

use common::signed;
use distrust::apps::analytics;
use distrust::core::{Deployment, DeploymentClient};
use distrust::crypto::schnorr::SigningKey;
use distrust::gossip::envelope::{GossipEnvelope, GossipHead};
use distrust::log::auditor::Misbehavior;
use distrust::log::checkpoint::EquivocationProof;
use distrust::log::SignedCheckpoint;
use distrust::sandbox::guests::counter_module;
use distrust::wire::{Decode, Encode};

const SEED: &[u8] = b"ring boundary";
/// Releases the lagging client misses: past the 64 a bundle carries and
/// the 65 a domain keeps.
const BEHIND: u64 = 100;

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("distrust-ring-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn launch(dir: &std::path::Path) -> Deployment {
    Deployment::launch_durable(analytics::app_spec(2), SEED, 1, dir).expect("launch")
}

fn push(deployment: &Deployment, developer: &mut DeploymentClient, versions: std::ops::Range<u64>) {
    for version in versions {
        let release = deployment.sign_release(version, "notes", &counter_module(version));
        for ack in developer.push_update(&release) {
            ack.expect("release accepted");
        }
    }
}

/// Domain 0's latest head as `client` has verified it.
fn head_of_domain_0(client: &DeploymentClient) -> SignedCheckpoint {
    let payload = client.gossip_payload();
    let (_, head) = payload
        .iter()
        .find(|(domain, _)| *domain == 0)
        .expect("audited");
    head.clone()
}

/// Relays a head for `size` that domain 0's own key signed over another
/// root, and requires the one thing that can come of it: an equivocation
/// proof anyone can check from bytes.
fn conflicting_head_convicts(client: &mut DeploymentClient, honest: &SignedCheckpoint, size: u64) {
    // Domain 0 runs without secure hardware: its checkpoint key is derived
    // from the deployment seed, so a test can sign as a forking domain 0.
    let key = SigningKey::derive(SEED, b"domain-0-checkpoint");
    let forged = signed(&key, honest.body.log_id, size, [0xbb; 32], u64::MAX);
    let relayed = GossipEnvelope {
        heads: vec![GossipHead {
            domain: 0,
            checkpoint: forged,
        }],
        evidence: Vec::new(),
    };
    match client.ingest_envelope(&relayed).as_slice() {
        [Misbehavior::Equivocation { domain: 0, proof }] => {
            assert_eq!(proof.a.body.size, size);
            let transported = EquivocationProof::from_wire(&proof.to_wire()).expect("decodes");
            assert!(transported.verify(&key.verifying_key()));
        }
        other => panic!("a second head at size {size} found {other:?}"),
    }
    assert!(client.convicted(0));
}

#[test]
fn a_client_a_hundred_releases_behind_catches_up_and_what_it_held_is_still_evidence() {
    let dir = tempdir("live");
    let mut deployment = launch(&dir);
    let mut developer = deployment.client(b"developer");
    let mut lagging = deployment.client(b"lagging");
    push(&deployment, &mut developer, 2..3);
    assert!(lagging.audit(None).is_clean());
    let stood_on = head_of_domain_0(&lagging);
    assert_eq!(stood_on.body.size, 2);

    push(&deployment, &mut developer, 3..3 + BEHIND);
    let report = lagging.audit(None);
    assert!(report.is_clean(), "{report:?}");
    let head = head_of_domain_0(&lagging);
    assert_eq!(head.body.size, 2 + BEHIND);
    // One proof step from 1 to 2 on the first audit; then the 64 newest
    // epochs, the oldest of them reached in a single step from size 2.
    let cache = lagging.auditor_prefix_cache(0).expect("domain 0");
    assert_eq!(cache.verified_size(), Some(2 + BEHIND));
    assert_eq!(cache.consistency_verified(), 1 + 64);

    // Outside the ring: the size it stood on, which no domain serves any
    // more. Inside: an epoch the catch-up bundle carried.
    conflicting_head_convicts(&mut lagging, &stood_on, stood_on.body.size);
    conflicting_head_convicts(&mut lagging, &head, head.body.size - 10);
    deployment.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restart_loads_the_newest_epochs_and_serves_the_same_history() {
    let dir = tempdir("restart");
    let mut deployment = launch(&dir);
    let mut developer = deployment.client(b"developer");
    let mut early = deployment.client(b"early");
    push(&deployment, &mut developer, 2..3);
    assert!(early.audit(None).is_clean());
    let stood_on = head_of_domain_0(&early);
    push(&deployment, &mut developer, 3..3 + BEHIND);
    let mut current = deployment.client(b"current");
    assert!(current.audit(None).is_clean());
    drop(developer);
    deployment.shutdown();
    drop(deployment);

    // The relaunched domains listen on new ports, so the clients that
    // bridge the restart are new ones that are told what the old ones had
    // verified — which is what gossip is.
    let mut deployment = launch(&dir);
    let mut returning = deployment.client(b"returning");
    assert!(returning
        .ingest_envelope(&early.gossip_envelope())
        .is_empty());
    assert!(returning
        .ingest_envelope(&current.gossip_envelope())
        .is_empty());
    let report = returning.audit(None);
    assert!(report.is_clean(), "{report:?}");
    // The recovered tail is the signed history the old deployment served,
    // bit for bit: the head a pre-restart client verified is the head.
    let head = head_of_domain_0(&returning);
    assert_eq!(head, head_of_domain_0(&current));
    assert_eq!(head.body.size, 2 + BEHIND);

    // It keeps growing from there, and a client still standing on the
    // pre-restart head follows it with an ordinary consistency proof.
    let mut developer = deployment.client(b"developer, again");
    push(&deployment, &mut developer, 3 + BEHIND..4 + BEHIND);
    let report = returning.audit(None);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(head_of_domain_0(&returning).body.size, 3 + BEHIND);

    conflicting_head_convicts(&mut returning, &stood_on, stood_on.body.size);
    conflicting_head_convicts(&mut returning, &head, head.body.size - 10);
    deployment.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
