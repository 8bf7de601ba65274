//! Witness-cosigned trust end to end: a thin client establishes trust in
//! a full deployment by verifying ONE aggregated BLS signature, fetched
//! from a relay over a real socket, instead of auditing all `n` domains —
//! plus the evidence-poisoning regression: transferable misbehavior
//! evidence delivered *between* two fan-outs excludes the convicted
//! domain from the second one.

use distrust::apps::key_backup::{self, KeyBackupClient};
use distrust::core::witness::{exchange_gossip, fetch_witness_head, WitnessRelay};
use distrust::core::{ClientError, Deployment, DomainOutcome, FanoutCall, TrustPolicy};
use distrust::crypto::drbg::HmacDrbg;
use distrust::crypto::schnorr::{SigningKey, VerifyingKey};
use distrust::crypto::threshold;
use distrust::gossip::envelope::GossipEnvelope;
use distrust::gossip::evidence::EvidenceBundle;
use distrust::gossip::witness::{QuorumAggregator, Witness};
use distrust::log::checkpoint::{CheckpointBody, EquivocationProof, SignedCheckpoint};

fn checkpoint_keys(deployment: &Deployment) -> Vec<VerifyingKey> {
    deployment
        .descriptor
        .domains
        .iter()
        .map(|d| d.checkpoint_key)
        .collect()
}

#[test]
fn thin_client_trusts_via_one_cosignature() {
    let deployment =
        Deployment::launch(key_backup::app_spec(3), b"witness e2e seed").expect("launch");
    let vks = checkpoint_keys(&deployment);

    // An operator-side auditor collects every domain's current signed
    // checkpoint the usual way (full batched audit).
    let mut operator = deployment.client(b"operator");
    let report = operator.audit(None);
    assert!(report.is_clean(), "{report:?}");
    let mut observed = operator.gossip_payload();
    observed.sort_by_key(|(d, _)| *d);
    assert_eq!(observed.len(), 3, "one head per domain");
    let heads: Vec<SignedCheckpoint> = observed.into_iter().map(|(_, cp)| cp).collect();

    // A 2-of-3 witness quorum independently verifies the head set and
    // cosigns it.
    let mut rng = HmacDrbg::new(b"witness e2e seed", b"quorum");
    let quorum = threshold::generate(2, 3, &mut rng).expect("keygen");
    let bodies: Vec<CheckpointBody> = heads.iter().map(|cp| cp.body.clone()).collect();
    let mut agg = QuorumAggregator::new(quorum.commitments.clone(), bodies);
    for share in quorum.shares.iter().take(2) {
        let mut witness = Witness::new(*share, vks.clone());
        let partial = witness.observe_and_sign(&heads).expect("honest heads");
        assert!(agg.add(partial));
    }
    assert!(agg.ready());
    let cosigned = agg.cosign().expect("aggregate");

    // The relay publishes the cosigned head; a thin client fetches it
    // over one socket exchange — relay mode: one response covers all n
    // domains.
    let relay = WitnessRelay::spawn(vks).expect("relay");
    relay.install(cosigned);
    let fetched = fetch_witness_head(relay.addr())
        .expect("relay reachable")
        .expect("head installed");

    // The thin client's whole trust establishment: one aggregated
    // signature verification. Zero audit traffic.
    let mut thin = deployment.client(b"thin client");
    let mut session = thin.session(TrustPolicy::witnessed(quorum.public_key, 2));
    session
        .install_cosigned_head(&fetched)
        .expect("quorum signature verifies");
    let backup = KeyBackupClient::new(2);
    let mut user_rng = HmacDrbg::new(b"thin client rng", b"");
    let token = [7u8; 32];
    let commitment = backup
        .backup(&mut session, 42, &token, b"sixteen byte key", &mut user_rng)
        .expect("first app call under witnessed trust");
    assert_eq!(
        session.cosign_verifications(),
        1,
        "exactly one aggregated-signature verification establishes trust"
    );
    for d in 0..3 {
        let cache = session.client().auditor_prefix_cache(d).expect("domain");
        assert_eq!(
            (
                cache.signatures_verified(),
                cache.consistency_verified(),
                cache.skipped()
            ),
            (0, 0, 0),
            "the witnessed session never audited domain {d}"
        );
    }

    // The session keeps working (the head stays fresh by default policy).
    let recovered = backup
        .recover(&mut session, 42, &token, &commitment)
        .expect("recover");
    assert_eq!(recovered, b"sixteen byte key".to_vec());
    assert_eq!(session.cosign_verifications(), 1);

    // A forged cosignature (wrong quorum) is refused outright.
    let mut other_rng = HmacDrbg::new(b"witness e2e seed", b"other-quorum");
    let other = threshold::generate(2, 3, &mut other_rng).expect("keygen");
    let mut thin2 = deployment.client(b"thin client 2");
    let mut session2 = thin2.session(TrustPolicy::witnessed(other.public_key, 2));
    assert!(session2.install_cosigned_head(&fetched).is_err());
}

/// Forges domain 0's out-of-band equivocation. Domain 0 runs without
/// secure hardware and checkpoint-signs with a key derived from the
/// launch seed, so the test can play "domain 0 showed a different log to
/// somebody else" without touching the live deployment.
fn forged_evidence(seed: &[u8]) -> EvidenceBundle {
    let key = SigningKey::derive(seed, b"domain-0-checkpoint");
    let lid = distrust::log::checkpoint::log_id(b"out-of-band", 0);
    let cp = |head: u8| {
        SignedCheckpoint::sign(
            CheckpointBody {
                log_id: lid,
                size: 9,
                head: [head; 32],
                logical_time: 9,
            },
            &key,
        )
    };
    EvidenceBundle {
        domain: 0,
        proof: EquivocationProof {
            a: cp(0xaa),
            b: cp(0xbb),
        },
    }
}

#[test]
fn evidence_between_fanouts_untrusts_the_domain_mid_session() {
    let seed = b"evidence mid-session seed";
    let deployment = Deployment::launch(key_backup::app_spec(3), seed).expect("launch");
    let mut client = deployment.client(b"user");
    let mut session = client.session(TrustPolicy::audited());

    // First fan-out: the gating audit passes and domain 0 participates.
    let first = session
        .fanout(&FanoutCall::broadcast(key_backup::METHOD_RECOVER, vec![]))
        .expect("gate passes");
    assert!(
        !matches!(first.outcome(0), Some(DomainOutcome::Untrusted(_))),
        "domain 0 starts trusted: {first:?}"
    );

    // Between two fan-outs, transferable evidence arrives out of band —
    // gossip from a peer who caught domain 0 equivocating elsewhere.
    let bundle = forged_evidence(seed);
    assert!(session.ingest_evidence(&bundle), "evidence verifies");
    assert!(!session.ingest_evidence(&bundle), "duplicates are dropped");

    // The very next fan-out excludes the convicted domain — no re-audit
    // needed, and no waiting for staleness to expire.
    let second = session
        .fanout(&FanoutCall::broadcast(key_backup::METHOD_RECOVER, vec![]))
        .expect("other domains still serve");
    assert!(
        matches!(second.outcome(0), Some(DomainOutcome::Untrusted(_))),
        "convicted domain must be refused: {second:?}"
    );
    for d in 1..3u32 {
        assert!(
            !matches!(second.outcome(d), Some(DomainOutcome::Untrusted(_))),
            "innocent domain {d} stays trusted"
        );
    }
    assert!(session.client().convicted(0));

    // Poisoning survives a forced re-audit: a clean audit round does not
    // un-convict a domain with cryptographic evidence against it.
    session.refresh_trust().expect("audit still passes");
    assert_eq!(session.trusted_domains(), vec![1, 2]);

    // Framing an innocent domain fails: the same proof pointed at domain
    // 1 does not verify under domain 1's key.
    let mut frame = forged_evidence(seed);
    frame.domain = 1;
    assert!(!session.ingest_evidence(&frame));
    assert_eq!(session.trusted_domains(), vec![1, 2]);
}

/// A conviction outlives the session that learned of it. Domain 0 is
/// convicted in an audited session; a later witnessed session on the same
/// client installs a cosigned head, which clears every audit refusal, and
/// must still refuse domain 0.
#[test]
fn a_conviction_outlives_its_session_under_a_witnessed_gate() {
    let seed = b"conviction across sessions seed";
    let deployment = Deployment::launch(key_backup::app_spec(3), seed).expect("launch");
    let vks = checkpoint_keys(&deployment);

    // Witnesses cosign the current heads, as in the thin-client test.
    let mut operator = deployment.client(b"operator");
    assert!(operator.audit(None).is_clean());
    let mut observed = operator.gossip_payload();
    observed.sort_by_key(|(d, _)| *d);
    let heads: Vec<SignedCheckpoint> = observed.into_iter().map(|(_, cp)| cp).collect();
    let mut rng = HmacDrbg::new(seed, b"quorum");
    let quorum = threshold::generate(2, 3, &mut rng).expect("keygen");
    let bodies: Vec<CheckpointBody> = heads.iter().map(|cp| cp.body.clone()).collect();
    let mut agg = QuorumAggregator::new(quorum.commitments.clone(), bodies);
    for share in quorum.shares.iter().take(2) {
        let mut witness = Witness::new(*share, vks.clone());
        assert!(agg.add(witness.observe_and_sign(&heads).expect("honest heads")));
    }
    let cosigned = agg.cosign().expect("aggregate");

    // First session: domain 0 is convicted mid-session.
    let mut client = deployment.client(b"user");
    let mut first = client.session(TrustPolicy::audited());
    assert!(first.ingest_evidence(&forged_evidence(seed)));
    assert_eq!(first.trusted_domains(), vec![1, 2]);
    drop(first);

    // Second session on the same client, gated by the cosigned head.
    let mut second = client.session(TrustPolicy::witnessed(quorum.public_key, 2));
    assert_eq!(second.trusted_domains(), vec![1, 2], "before any gate");
    second
        .install_cosigned_head(&cosigned)
        .expect("quorum signature verifies");
    assert_eq!(second.trusted_domains(), vec![1, 2]);
    let refused = second.call(0, key_backup::METHOD_RECOVER, b"");
    assert!(
        matches!(refused, Err(ClientError::Untrusted { domain: 0, .. })),
        "convicted domain must stay refused: {refused:?}"
    );
    let fanout = second
        .fanout(&FanoutCall::broadcast(key_backup::METHOD_RECOVER, vec![]))
        .expect("the other domains serve");
    assert!(matches!(
        fanout.outcome(0),
        Some(DomainOutcome::Untrusted(_))
    ));
    assert_eq!(second.cosign_verifications(), 1);
}

#[test]
fn relay_spreads_transferable_evidence() {
    let seed = b"relay evidence seed";
    let deployment = Deployment::launch(key_backup::app_spec(2), seed).expect("launch");
    let vks = checkpoint_keys(&deployment);
    let mut relay = WitnessRelay::spawn(vks).expect("relay");

    // A peer who holds evidence pushes it to the relay…
    let mut victim = deployment.client(b"victim");
    assert!(victim.ingest_evidence(&forged_evidence(seed)));
    let reply = exchange_gossip(relay.addr(), &victim.gossip_envelope()).expect("push");
    assert_eq!(reply.evidence.len(), 1, "relay verified and holds it");
    assert_eq!(relay.convicted_domains(), vec![0]);

    // …and a fresh client who has never met the victim learns it from
    // the relay and convicts the same domain.
    let mut newcomer = deployment.client(b"newcomer");
    let news = exchange_gossip(relay.addr(), &GossipEnvelope::empty()).expect("pull");
    let discovered = newcomer.ingest_envelope(&news);
    assert!(!discovered.is_empty(), "evidence is news to the newcomer");
    assert!(newcomer.convicted(0));
    relay.shutdown();
}
