//! Witness-cosigned trust end to end: a thin client establishes trust in
//! a full deployment by verifying ONE aggregated BLS signature, fetched
//! from a relay over a real socket, instead of auditing all `n` domains —
//! plus the evidence-poisoning regression: transferable misbehavior
//! evidence delivered *between* two fan-outs excludes the convicted
//! domain from the second one, and the limits of a cosigned head: it
//! vouches for heads only, so a policy that asks about code, a refused
//! vector and a stale head all fall back to the full audit.

use distrust::apps::key_backup::{self, KeyBackupClient};
use distrust::core::witness::{exchange_gossip, fetch_witness_head, WitnessRelay};
use distrust::core::{ClientError, Deployment, DomainOutcome, FanoutCall, Session, TrustPolicy};
use distrust::crypto::bls::PublicKey;
use distrust::crypto::drbg::HmacDrbg;
use distrust::crypto::schnorr::{SigningKey, VerifyingKey};
use distrust::crypto::threshold;
use distrust::gossip::envelope::GossipEnvelope;
use distrust::gossip::evidence::EvidenceBundle;
use distrust::gossip::witness::{CosignedHeads, QuorumAggregator, Witness};
use distrust::log::checkpoint::{CheckpointBody, EquivocationProof, SignedCheckpoint};

fn checkpoint_keys(deployment: &Deployment) -> Vec<VerifyingKey> {
    deployment
        .descriptor
        .domains
        .iter()
        .map(|d| d.checkpoint_key)
        .collect()
}

/// An operator-side auditor collects every domain's current signed
/// checkpoint the usual way (full batched audit), and two witnesses of a
/// 2-of-3 quorum independently verify the head set and cosign it.
/// Returns the cosigned vector and the quorum's public key.
fn cosign_current_heads(deployment: &Deployment, seed: &[u8]) -> (CosignedHeads, PublicKey) {
    let vks = checkpoint_keys(deployment);
    let mut operator = deployment.client(b"operator");
    let report = operator.audit(None);
    assert!(report.is_clean(), "{report:?}");
    let mut observed = operator.gossip_payload();
    observed.sort_by_key(|(d, _)| *d);
    assert_eq!(observed.len(), vks.len(), "one head per domain");
    let heads: Vec<SignedCheckpoint> = observed.into_iter().map(|(_, cp)| cp).collect();

    let mut rng = HmacDrbg::new(seed, b"quorum");
    let quorum = threshold::generate(2, 3, &mut rng).expect("keygen");
    let bodies: Vec<CheckpointBody> = heads.iter().map(|cp| cp.body.clone()).collect();
    let mut agg = QuorumAggregator::new(quorum.commitments.clone(), bodies);
    for share in quorum.shares.iter().take(2) {
        let mut witness = Witness::new(*share, vks.clone());
        assert!(agg.add(witness.observe_and_sign(&heads).expect("honest heads")));
    }
    assert!(agg.ready());
    (agg.cosign().expect("aggregate"), quorum.public_key)
}

/// Domain `d`'s verified-prefix cache counters: signatures verified,
/// consistency proofs verified, verifications skipped. `(0, 0, 0)` means
/// the client never audited the domain.
fn audit_counters(session: &mut Session, d: u32) -> (u64, u64, u64) {
    let cache = session.client().auditor_prefix_cache(d).expect("domain");
    (
        cache.signatures_verified(),
        cache.consistency_verified(),
        cache.skipped(),
    )
}

#[test]
fn thin_client_trusts_via_one_cosignature() {
    let seed = b"witness e2e seed";
    let deployment = Deployment::launch(key_backup::app_spec(3), seed).expect("launch");
    let (cosigned, quorum_pk) = cosign_current_heads(&deployment, seed);

    // The relay publishes the cosigned head; a thin client fetches it
    // over one socket exchange — relay mode: one response covers all n
    // domains.
    let relay = WitnessRelay::spawn(checkpoint_keys(&deployment)).expect("relay");
    relay.install(cosigned);
    let fetched = fetch_witness_head(relay.addr())
        .expect("relay reachable")
        .expect("head installed");

    // The thin client's whole trust establishment: one aggregated
    // signature verification. Zero audit traffic.
    let mut thin = deployment.client(b"thin client");
    let mut session = thin.session(TrustPolicy::witnessed(quorum_pk));
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
        assert_eq!(
            audit_counters(&mut session, d),
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
    let mut session2 = thin2.session(TrustPolicy::witnessed(other.public_key));
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
    let (cosigned, quorum_pk) = cosign_current_heads(&deployment, seed);

    // First session: domain 0 is convicted mid-session.
    let mut client = deployment.client(b"user");
    let mut first = client.session(TrustPolicy::audited());
    assert!(first.ingest_evidence(&forged_evidence(seed)));
    assert_eq!(first.trusted_domains(), vec![1, 2]);
    drop(first);

    // Second session on the same client, gated by the cosigned head.
    let mut second = client.session(TrustPolicy::witnessed(quorum_pk));
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

fn recover_everywhere() -> FanoutCall {
    FanoutCall::broadcast(key_backup::METHOD_RECOVER, vec![])
}

/// A cosigned head attests nothing, so a witnessed session that requires
/// attestation cannot pass on one: the install fails the gate and the
/// next call's fallback audit refuses domain 0 by name, exactly as an
/// audited session does (`app_e2e::requiring_attestation_leaves_domain_zero_out`).
#[test]
fn a_cosigned_head_cannot_satisfy_required_attestation() {
    let seed = b"witnessed attestation seed";
    let deployment = Deployment::launch(key_backup::app_spec(3), seed).expect("launch");
    let (cosigned, quorum_pk) = cosign_current_heads(&deployment, seed);
    let mut client = deployment.client(b"careful thin client");
    let mut session = client.session(TrustPolicy::witnessed(quorum_pk).with_require_attested());

    match session.install_cosigned_head(&cosigned) {
        Err(ClientError::AuditFailed(why)) => assert!(why.contains("attestation"), "{why}"),
        other => panic!("a cosigned head must not stand in for attestation: {other:?}"),
    }
    assert!(session.trusted_domains().is_empty());
    let refused = session.call(0, key_backup::METHOD_RECOVER, b"");
    assert!(
        matches!(refused, Err(ClientError::Untrusted { domain: 0, .. })),
        "the fallback audit refuses the unattested domain: {refused:?}"
    );
    assert_eq!(session.trusted_domains(), [1, 2]);
}

/// A cosigned head names no code, so it cannot satisfy a pin: the
/// install fails, and the fallback audit finds no domain running the
/// pinned digest.
#[test]
fn a_cosigned_head_cannot_satisfy_a_pin() {
    let seed = b"witnessed pin seed";
    let deployment = Deployment::launch(key_backup::app_spec(3), seed).expect("launch");
    let (cosigned, quorum_pk) = cosign_current_heads(&deployment, seed);
    let mut client = deployment.client(b"pinning thin client");
    let mut session = client.session(TrustPolicy {
        pinned_app_digest: Some([0xee; 32]),
        ..TrustPolicy::witnessed(quorum_pk)
    });

    assert!(session.install_cosigned_head(&cosigned).is_err());
    let refused = session.call(1, key_backup::METHOD_RECOVER, b"");
    assert!(
        matches!(refused, Err(ClientError::AuditFailed(_))),
        "no domain runs the pinned code: {refused:?}"
    );
    assert!(session.trusted_domains().is_empty());
}

/// A vector of the wrong length is refused like a forged one: the
/// refusal drops the gate that stood before it, and the next call
/// re-audits.
#[test]
fn a_refused_cosigned_head_drops_the_previous_gate() {
    let seed = b"short vector seed";
    let deployment = Deployment::launch(key_backup::app_spec(3), seed).expect("launch");
    let (cosigned, quorum_pk) = cosign_current_heads(&deployment, seed);
    let mut client = deployment.client(b"user");
    let mut session = client.session(TrustPolicy::witnessed(quorum_pk));
    session.refresh_trust().expect("the audit passes");
    assert_eq!(session.trusted_domains(), [0, 1, 2]);

    let short = CosignedHeads {
        heads: cosigned.heads[..2].to_vec(),
        signature: cosigned.signature,
    };
    assert!(session.install_cosigned_head(&short).is_err());
    assert!(session.trusted_domains().is_empty());

    let before = audit_counters(&mut session, 1);
    session
        .fanout(&recover_everywhere())
        .expect("the re-audit passes");
    assert_ne!(
        audit_counters(&mut session, 1),
        before,
        "the call re-audited"
    );
    assert_eq!(session.trusted_domains(), [0, 1, 2]);
}

/// An installed head carries the gate only until it goes stale; the
/// first call after that runs the full audit, and no second
/// cosignature is checked.
#[test]
fn a_stale_cosigned_head_falls_back_to_the_audit() {
    let seed = b"stale head seed";
    let deployment = Deployment::launch(key_backup::app_spec(3), seed).expect("launch");
    let (cosigned, quorum_pk) = cosign_current_heads(&deployment, seed);
    let mut client = deployment.client(b"thin client");
    let mut session = client.session(TrustPolicy::witnessed(quorum_pk).with_max_staleness(1));
    session
        .install_cosigned_head(&cosigned)
        .expect("quorum signature verifies");

    for _ in 0..2 {
        session.fanout(&recover_everywhere()).expect("fresh head");
        assert_eq!(audit_counters(&mut session, 0), (0, 0, 0), "no audit yet");
    }
    session
        .fanout(&recover_everywhere())
        .expect("the fallback audit passes");
    for d in 0..3 {
        assert_ne!(
            audit_counters(&mut session, d),
            (0, 0, 0),
            "the stale head sent domain {d} to the audit"
        );
    }
    assert_eq!(session.cosign_verifications(), 1);
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
