//! Relayed checkpoint heads on the real socket path: what a bulletin
//! board may and may not do to the clients that read it.
//!
//! A domain's gossip board stores whatever anyone posts — it holds no
//! other domain's key and cannot tell a real head from a made-up one. So
//! the board must be harmless by construction on the reading side: a head
//! that does not verify is noise (it must not fail an audit, change what
//! the client holds, or travel onwards), a head that verifies and
//! conflicts is evidence, and a head the client has already verified
//! costs a comparison rather than a Schnorr verification.

use distrust::apps::analytics::{self, AnalyticsClient};
use distrust::core::protocol::{Request, Response};
use distrust::core::{Deployment, DeploymentClient, TrustPolicy};
use distrust::crypto::drbg::HmacDrbg;
use distrust::crypto::schnorr::SigningKey;
use distrust::gossip::envelope::{GossipEnvelope, GossipHead};
use distrust::log::auditor::{Misbehavior, WINDOW_ABOVE, WINDOW_BELOW};
use distrust::log::checkpoint::SignedCheckpoint;
use distrust::sandbox::guests::counter_module;

const N: usize = 3;
const SEED: &[u8] = b"relayed heads seed";

/// Leaves `checkpoint`, claimed to be `domain`'s, on the board of
/// `board`, the way any client (or anyone who can open a socket) can.
fn post(poster: &mut DeploymentClient, board: u32, domain: u32, checkpoint: SignedCheckpoint) {
    post_all(poster, board, domain, vec![checkpoint]);
}

/// [`post`] for every head of `heads`, in one envelope.
fn post_all(poster: &mut DeploymentClient, board: u32, domain: u32, heads: Vec<SignedCheckpoint>) {
    let envelope = GossipEnvelope {
        heads: heads
            .into_iter()
            .map(|checkpoint| GossipHead { domain, checkpoint })
            .collect(),
        evidence: Vec::new(),
    };
    match poster.exchange(board, &Request::Gossip { envelope }) {
        Ok(Response::Gossip { .. }) => {}
        other => panic!("board did not take the post: {other:?}"),
    }
}

fn push(deployment: &Deployment, developer: &mut DeploymentClient, version: u64) {
    let release = deployment.sign_release(version, "relayed heads", &counter_module(version));
    for ack in developer.push_update(&release) {
        ack.expect("release accepted");
    }
}

/// Checkpoint signatures `client` has verified so far, on every path:
/// the domains' own audit answers plus relayed heads.
fn signature_checks(client: &DeploymentClient) -> u64 {
    let bundles: u64 = (0..N as u32)
        .map(|d| {
            client
                .auditor_prefix_cache(d)
                .expect("domain exists")
                .signatures_verified()
        })
        .sum();
    bundles + client.relayed_head_checks().0
}

#[test]
fn a_forged_head_on_a_board_is_noise_and_a_signed_conflicting_one_is_evidence() {
    let mut deployment = Deployment::launch(analytics::app_spec(N), SEED).expect("launch");
    let mut attacker = deployment.client(b"attacker");
    let mut victim_client = deployment.client(b"victim");
    let mut victim = victim_client.session(TrustPolicy::audited());
    assert!(victim.refresh_trust().expect("first audit").is_clean());
    let heads = victim.client().gossip_payload();

    // Domain 1's current head, its hash changed, signed by a stranger:
    // posted on domain 0's board it reaches every client that audits.
    let stranger = SigningKey::derive(b"relayed heads", b"stranger");
    let mut body = heads[1].1.body.clone();
    body.head[0] ^= 0xff;
    let forged = SignedCheckpoint::sign(body, &stranger);
    post(&mut attacker, 0, 1, forged.clone());
    // And a bit-flip of a head the victim already holds: same body, other
    // signature bytes.
    let mut flipped = heads[2].1.clone();
    flipped.signature[60] ^= 1;
    post(&mut attacker, 0, 2, flipped.clone());

    let (verified_before, _) = victim.client().relayed_head_checks();
    let report = victim
        .refresh_trust()
        .expect("a forged head on a board must not fail the audit");
    assert!(report.is_clean(), "{report:?}");
    let (verified_after, _) = victim.client().relayed_head_checks();
    assert_eq!(
        verified_after - verified_before,
        2,
        "both posted heads are unknown and must be checked, not skipped"
    );
    let mut rng = HmacDrbg::new(b"relayed heads", b"reports");
    AnalyticsClient::new(4)
        .submit(&mut victim, &[1, 2, 3, 4], &mut rng)
        .expect("fan-out after the forged post");
    let envelope = victim.client().gossip_envelope();
    assert_eq!(envelope.heads.len(), N);
    assert!(
        envelope
            .heads
            .iter()
            .all(|h| h.checkpoint != forged && h.checkpoint != flipped),
        "the forgery must not travel onwards"
    );
    assert!(envelope.evidence.is_empty());

    // The same post, correctly signed: domain 0's own key over a second
    // head for a size it already signed. That is equivocation, and the
    // victim must come away holding the proof.
    let domain0 = SigningKey::derive(SEED, b"domain-0-checkpoint");
    let mut body = heads[0].1.body.clone();
    body.head[0] ^= 0xff;
    post(&mut attacker, 1, 0, SignedCheckpoint::sign(body, &domain0));
    assert!(
        victim.refresh_trust().is_err(),
        "a signed conflicting head must fail the gating audit"
    );
    let report = victim.last_audit().expect("the failed audit's report");
    let proof = report
        .misbehavior
        .iter()
        .find_map(|m| match m {
            Misbehavior::Equivocation { domain: 0, proof } => Some(proof.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no equivocation proof against domain 0: {report:?}"));
    assert!(proof.verify(&deployment.descriptor.domains[0].checkpoint_key));
    assert!(victim.client().convicted(0));

    deployment.shutdown();
}

#[test]
fn an_audit_verifies_each_signed_head_once_on_all_paths_together() {
    let mut deployment = Deployment::launch(analytics::app_spec(N), SEED).expect("launch");
    let mut developer = deployment.client(b"developer");
    let mut auditor = deployment.client(b"auditor");
    let mut peer = deployment.client(b"peer");
    // Fill the boards: every round leaves the previous round's heads of
    // both auditing clients on every domain.
    let mut version = 1;
    for _ in 0..4 {
        version += 1;
        push(&deployment, &mut developer, version);
        assert!(peer.audit(None).is_clean());
        assert!(auditor.audit(None).is_clean());
    }

    // Nothing released: every head in the answers and on the boards is
    // one this client has verified, byte for byte.
    let (before, (_, skipped_before)) = (signature_checks(&auditor), auditor.relayed_head_checks());
    assert!(auditor.audit(None).is_clean());
    assert_eq!(
        signature_checks(&auditor) - before,
        0,
        "an audit that finds nothing new verified a signature"
    );
    let relayed = auditor.relayed_head_checks().1 - skipped_before;
    assert!(
        relayed > N as u64,
        "the boards relayed only {relayed} heads: the test no longer exercises them"
    );

    // One release: one new signed head per domain, each verified exactly
    // once whichever path showed it first.
    version += 1;
    push(&deployment, &mut developer, version);
    assert!(peer.audit(None).is_clean());
    let before = signature_checks(&auditor);
    assert!(auditor.audit(None).is_clean());
    assert_eq!(signature_checks(&auditor) - before, N as u64);

    deployment.shutdown();
}

#[test]
fn one_forged_head_among_forty_costs_the_other_thirty_nine_nothing() {
    // An envelope's heads of one domain are verified in one call under
    // that domain's key; a forgery in the middle of it must stay what it
    // is alone — noise — and take nothing from the heads around it.
    let mut deployment = Deployment::launch(analytics::app_spec(N), SEED).expect("launch");
    let mut client = deployment.client(b"reader");
    let domain0 = SigningKey::derive(SEED, b"domain-0-checkpoint");
    let stranger = SigningKey::derive(b"relayed heads", b"stranger");
    let log_id = distrust::log::log_id(b"relayed heads", 0);
    let heads: Vec<GossipHead> = (0..40u64)
        .map(|i| {
            let body = distrust::log::CheckpointBody {
                log_id,
                size: 100 + i,
                head: [i as u8; 32],
                logical_time: i,
            };
            let key = if i == 20 { &stranger } else { &domain0 };
            GossipHead {
                domain: 0,
                checkpoint: SignedCheckpoint::sign(body, key),
            }
        })
        .collect();
    let envelope = GossipEnvelope {
        heads,
        evidence: Vec::new(),
    };

    assert!(
        client.ingest_envelope(&envelope).is_empty(),
        "no accusation"
    );
    assert_eq!(client.relayed_head_checks(), (40, 0));
    assert!(client.evidence().is_empty() && !client.convicted(0));
    // The 39 are held as verified: shown again they cost a comparison
    // each, and only the forgery — never held — is checked again.
    assert!(client.ingest_envelope(&envelope).is_empty());
    assert_eq!(client.relayed_head_checks(), (41, 39));
    // And held for what they are for: a second head under the domain's key
    // for a size one of them covers is equivocation.
    let mut fork = envelope.heads[21].checkpoint.body.clone();
    fork.head[0] ^= 0xff;
    let conflicting = GossipEnvelope {
        heads: vec![GossipHead {
            domain: 0,
            checkpoint: SignedCheckpoint::sign(fork, &domain0),
        }],
        evidence: Vec::new(),
    };
    assert!(matches!(
        client.ingest_envelope(&conflicting).as_slice(),
        [Misbehavior::Equivocation { domain: 0, .. }]
    ));

    deployment.shutdown();
}

/// A domain that signs fresh heads at new sizes and posts them to the
/// other domains' boards — each one correctly signed, so each one is
/// verified — cannot grow a client that audits beside it: the client
/// remembers at most its window per domain. Ten thousand heads, five
/// thousand on each board; before the window was bounded the client kept
/// every one it verified, up to 128 an audit.
#[test]
fn a_domain_flooding_the_boards_with_its_own_heads_leaves_a_client_within_its_bound() {
    const ROUNDS: u64 = 10;
    const PER_BOARD: u64 = 500;
    let mut deployment = Deployment::launch(analytics::app_spec(N), SEED).expect("launch");
    let mut developer = deployment.client(b"developer");
    let mut flooder = deployment.client(b"flooder");
    let mut auditor = deployment.client(b"auditor");
    assert!(auditor.audit(None).is_clean());
    let domain2 = SigningKey::derive(SEED, b"domain-2-checkpoint");
    let template = auditor.gossip_payload()[2].1.body.clone();
    let bound = N * (WINDOW_BELOW as usize + WINDOW_ABOVE);
    let mut version = 1;
    let mut fresh = 0u64;
    for round in 0..ROUNDS {
        for board in [0, 1] {
            let heads = (0..PER_BOARD)
                .map(|_| {
                    fresh += 1;
                    let mut body = template.clone();
                    body.size += 1_000 + fresh;
                    body.head = [(fresh % 251) as u8; 32];
                    SignedCheckpoint::sign(body, &domain2)
                })
                .collect();
            post_all(&mut flooder, board, 2, heads);
        }
        version += 1;
        push(&deployment, &mut developer, version);
        assert!(auditor.audit(None).is_clean(), "round {round}");
        assert!(
            auditor.remembered_heads() <= bound,
            "round {round}: the client remembers {} heads, bound {bound}",
            auditor.remembered_heads()
        );
    }
    assert_eq!(fresh, 10_000);
    let (verified, _) = auditor.relayed_head_checks();
    assert!(
        verified > bound as u64,
        "the client verified only {verified} relayed heads: the flood no longer reaches it"
    );
    deployment.shutdown();
}

/// The window keeps what a split view needs: once a client has audited
/// past a full window, a second head its domain signed for a size inside
/// it — left on another domain's board — is still a transferable proof.
#[test]
fn a_split_view_inside_a_full_window_still_yields_transferable_equivocation() {
    let mut deployment = Deployment::launch(analytics::app_spec(N), SEED).expect("launch");
    let mut developer = deployment.client(b"developer");
    let mut attacker = deployment.client(b"attacker");
    let mut victim = deployment.client(b"victim");
    let mut version = 1;
    while version <= WINDOW_BELOW + 16 {
        version += 1;
        push(&deployment, &mut developer, version);
        if version % 16 == 0 {
            assert!(victim.audit(None).is_clean());
        }
    }
    assert!(victim.audit(None).is_clean());
    let latest = victim.gossip_payload()[0].1.body.clone();
    assert!(victim.remembered_heads() >= N * WINDOW_BELOW as usize);

    let domain0 = SigningKey::derive(SEED, b"domain-0-checkpoint");
    let mut body = latest.clone();
    body.size -= WINDOW_BELOW - 8;
    body.head = [0x5a; 32];
    post(&mut attacker, 1, 0, SignedCheckpoint::sign(body, &domain0));
    let report = victim.audit(None);
    let proof = report
        .misbehavior
        .iter()
        .find_map(|m| match m {
            Misbehavior::Equivocation { domain: 0, proof } => Some(proof.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no equivocation proof against domain 0: {report:?}"));
    assert!(proof.verify(&deployment.descriptor.domains[0].checkpoint_key));
    assert!(victim.convicted(0));
    deployment.shutdown();
}
