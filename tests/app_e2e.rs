//! End-to-end tests for the key-backup and private-analytics applications
//! over full deployments (real sockets, TEE proxies, audits).

use distrust::apps::analytics::{self, AnalyticsClient};
use distrust::apps::key_backup::{self, KeyBackupClient, RecoverStatus};
use distrust::core::session::{DomainOutcome, FanoutCall, QuorumPolicy};
use distrust::core::{ClientError, Deployment, TrustPolicy};
use distrust::crypto::drbg::HmacDrbg;

#[test]
fn key_backup_full_cycle() {
    let deployment =
        Deployment::launch(key_backup::app_spec(4), b"backup e2e seed").expect("launch");
    let mut client = deployment.client(b"user");
    // The session audits before the first call — the user's whole reason
    // to trust the deployment, now enforced by construction.
    let mut session = client.session(TrustPolicy::pinned(deployment.initial_app_digest));
    let backup = KeyBackupClient::new(3);
    let mut rng = HmacDrbg::new(b"user rng", b"");

    let secret = b"0123456789abcdef0123456789abcdef"; // 32-byte key
    let token = [0x42u8; 32];
    let commitment = backup
        .backup(&mut session, 1001, &token, secret, &mut rng)
        .expect("backup");
    let report = session.last_audit().expect("gating audit ran");
    assert!(report.is_clean(), "{report:?}");

    // Recovery with the right token succeeds and matches.
    let recovered = backup
        .recover(&mut session, 1001, &token, &commitment)
        .expect("recover");
    assert_eq!(recovered, secret.to_vec());

    // Wrong token denied on every domain.
    for d in 0..4u32 {
        let status = backup
            .recover_share(&mut session, d, 1001, &[0u8; 32])
            .expect("protocol");
        assert_eq!(status, RecoverStatus::BadToken);
    }

    // Unknown users get a distinct (non-oracle) answer.
    let status = backup
        .recover_share(&mut session, 0, 99999, &token)
        .expect("protocol");
    assert_eq!(status, RecoverStatus::UnknownUser);

    // Two users don't interfere.
    let token2 = [0x43u8; 32];
    let secret2 = b"another users key...............";
    let c2 = backup
        .backup(&mut session, 2002, &token2, secret2, &mut rng)
        .expect("backup 2");
    assert_eq!(
        backup.recover(&mut session, 2002, &token2, &c2).unwrap(),
        secret2.to_vec()
    );
    assert_eq!(
        backup
            .recover(&mut session, 1001, &token, &commitment)
            .unwrap(),
        secret.to_vec()
    );
}

#[test]
fn key_backup_rate_limit_over_the_wire() {
    let deployment =
        Deployment::launch(key_backup::app_spec(3), b"ratelimit e2e seed").expect("launch");
    let mut client = deployment.client(b"user");
    let mut session = client.session(TrustPolicy::audited());
    let backup = KeyBackupClient::new(2);
    let mut rng = HmacDrbg::new(b"user rng", b"");
    let token = [9u8; 32];
    backup
        .backup(&mut session, 5, &token, b"sixteen byte key", &mut rng)
        .expect("backup");

    // Hammer domain 1 with wrong tokens until it locks.
    for _ in 0..key_backup::MAX_ATTEMPTS {
        assert_eq!(
            backup
                .recover_share(&mut session, 1, 5, &[1u8; 32])
                .unwrap(),
            RecoverStatus::BadToken
        );
    }
    assert_eq!(
        backup.recover_share(&mut session, 1, 5, &token).unwrap(),
        RecoverStatus::RateLimited
    );
    // Other domains are unaffected (independent guest state).
    assert!(matches!(
        backup.recover_share(&mut session, 2, 5, &token).unwrap(),
        RecoverStatus::Ok(_)
    ));
}

#[test]
fn analytics_aggregates_without_revealing_individuals() {
    let n_domains = 3;
    let deployment =
        Deployment::launch(analytics::app_spec(n_domains), b"analytics e2e seed").expect("launch");
    let analytics_client = AnalyticsClient::new(4);
    let mut rng = HmacDrbg::new(b"reporters", b"");

    // Ten users submit 4-dimensional reports.
    let reports: Vec<[u64; 4]> = (0..10)
        .map(|i| [i as u64, (i % 2) as u64, 100 + i as u64, 1])
        .collect();
    let mut expected = [0u64; 4];
    let mut submitter_client = deployment.client(b"submitter");
    let mut submitter = submitter_client.session(TrustPolicy::audited());
    for report in &reports {
        analytics_client
            .submit(&mut submitter, report, &mut rng)
            .expect("submit");
        for (e, v) in expected.iter_mut().zip(report) {
            *e = e.wrapping_add(*v);
        }
    }

    // The analyst aggregates: totals match, count matches.
    let mut analyst_client = deployment.client(b"analyst");
    let mut analyst = analyst_client.session(TrustPolicy::audited());
    let (totals, count) = analytics_client.aggregate(&mut analyst).expect("aggregate");
    assert_eq!(totals, expected.to_vec());
    assert_eq!(count, 10);

    // Privacy check: no single domain's accumulator equals the true
    // totals (each holds a uniformly masked vector).
    for d in 0..n_domains as u32 {
        let acc_bytes = analyst
            .call(d, analytics::METHOD_AGGREGATE, b"")
            .expect("per-domain accumulator");
        let acc: Vec<u64> = acc_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_ne!(acc, expected.to_vec(), "domain {d} saw masked data only");
    }
}

#[test]
fn analytics_audit_stays_clean_under_load() {
    let deployment =
        Deployment::launch(analytics::app_spec(2), b"analytics audit seed").expect("launch");
    let analytics_client = AnalyticsClient::new(2);
    let mut client = deployment.client(b"user");
    // max_staleness 4: every fifth call round re-runs the audit — the
    // session interleaves audits with traffic the way the old test did by
    // hand, and refuses traffic the moment an audit stops being clean.
    let mut session =
        client.session(TrustPolicy::pinned(deployment.initial_app_digest).with_max_staleness(4));
    let mut rng = HmacDrbg::new(b"load", b"");
    for i in 0..20u64 {
        analytics_client
            .submit(&mut session, &[i, 1], &mut rng)
            .expect("submit");
        let report = session.last_audit().expect("gating audit ran");
        assert!(report.is_clean(), "round {i}: {report:?}");
    }
    let (totals, count) = analytics_client.aggregate(&mut session).expect("aggregate");
    assert_eq!(count, 20);
    assert_eq!(totals[1], 20);
    assert_eq!(totals[0], (0..20).sum::<u64>());
}

/// Figure 2: trust domain 0 runs without secure hardware. A policy that
/// requires attestation leaves it out — refused by name on a direct call,
/// never sent a fan-out request — while the attested domains 1..n carry
/// the quorums that fit inside them.
#[test]
fn requiring_attestation_leaves_domain_zero_out() {
    let deployment =
        Deployment::launch(analytics::app_spec(3), b"attested only seed").expect("launch");
    let mut client = deployment.client(b"careful user");
    let mut session = client.session(TrustPolicy::audited().with_require_attested());
    session.refresh_trust().expect("domains 1 and 2 attest");
    assert_eq!(session.trusted_domains(), [1, 2]);

    match session.call(0, analytics::METHOD_COUNT, b"") {
        Err(ClientError::Untrusted { domain: 0, reason }) => {
            assert!(reason.contains("attestation"), "{reason}")
        }
        other => panic!("domain 0 must be refused for not attesting: {other:?}"),
    }
    session
        .call(1, analytics::METHOD_COUNT, b"")
        .expect("an attested domain serves");

    let count = FanoutCall::broadcast(analytics::METHOD_COUNT, Vec::new());
    let two = session
        .fanout(&count.clone().quorum(QuorumPolicy::Threshold(2)))
        .expect("fan-out runs");
    assert!(two.satisfied, "{two:?}");
    assert!(matches!(two.outcomes[0], DomainOutcome::Untrusted(_)));
    assert!(two.outcomes[1].is_ok() && two.outcomes[2].is_ok());

    let all = session.fanout(&count).expect("fan-out runs");
    assert!(!all.satisfied, "{all:?}");
    assert_eq!(all.ok_count(), 2);
}
