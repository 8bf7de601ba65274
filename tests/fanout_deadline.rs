//! The fan-out's deadline: a hung-but-connected domain must time out into
//! [`DomainOutcome::Failed`] after [`SILENCE`] instead of stalling an
//! `All` quorum forever (ROADMAP, PR 4 "Remaining").
//!
//! The hung domain here is the nastiest kind: it *accepts* the TCP
//! connection and *reads* nothing-visible-to-the-client — the request
//! vanishes into its socket buffer and no response ever comes. Connect
//! timeouts, error frames, and dead sockets all surface on their own;
//! only a silent, live connection needs the bound.
//!
//! Silent domains must also cost nothing a healthy quorum does not need,
//! and the bound must be kept to within a millisecond or so, however
//! many of them are listed first. The file ends with what a fan-out the
//! session refuses costs the trust state: nothing. `tests/silent_minority.rs`
//! holds the same bound on the audited path.

mod common;

use common::{echo_deployment, hung_listener};
use distrust::core::client::{DeploymentClient, DomainInfo, SILENCE};
use distrust::core::session::{DomainOutcome, FanoutCall, QuorumPolicy, TrustPolicy};
use distrust::core::Deployment;
use distrust::crypto::drbg::HmacDrbg;
use std::time::{Duration, Instant};

/// A real 3-domain deployment whose domain 1 is swapped for a hung
/// listener in the client's descriptor — connected, silent, alive.
fn deployment_with_hung_domain() -> (Deployment, DeploymentClient) {
    let deployment = echo_deployment(3, b"fanout deadline");
    let mut descriptor = deployment.descriptor.clone();
    descriptor.domains[1].addr = hung_listener();
    let client = DeploymentClient::new(
        descriptor,
        Box::new(HmacDrbg::new(b"fanout deadline", b"client-rng")),
    );
    (deployment, client)
}

#[test]
fn hung_domain_times_out_instead_of_stalling_all_quorum() {
    let (deployment, mut client) = deployment_with_hung_domain();
    // An open policy: the trust gate must not touch the hung domain
    // before the fan-out does (the gating audit would refuse it first;
    // `silent_minority.rs` covers that path).
    let mut session = client.session(TrustPolicy::open());

    let budget = SILENCE;
    let started = Instant::now();
    let report = session
        .fanout(&FanoutCall::broadcast(1, vec![5]))
        .expect("fanout runs");
    let elapsed = started.elapsed();

    // The healthy domains answered; the hung one failed on the deadline.
    assert!(matches!(&report.outcomes[0], DomainOutcome::Ok(p) if p == &vec![6u8]));
    assert!(matches!(&report.outcomes[2], DomainOutcome::Ok(p) if p == &vec![6u8]));
    match &report.outcomes[1] {
        DomainOutcome::Failed(why) => {
            assert!(
                why.contains("deadline"),
                "failure must name the deadline: {why}"
            )
        }
        other => panic!("hung domain must fail on deadline, got {other:?}"),
    }
    assert!(!report.satisfied, "All quorum cannot be satisfied");
    assert!(report.require().is_err());
    // The collection respected the budget (generous upper bound for slow
    // CI boxes) instead of blocking forever.
    assert!(
        elapsed < budget + Duration::from_secs(5),
        "fanout took {elapsed:?} against a {budget:?} budget"
    );

    // The session survives: a second round still serves the healthy
    // domains (the hung domain lost its connection, is reconnected, and
    // simply times out again).
    let report = session
        .fanout(&FanoutCall::broadcast(1, vec![7]))
        .expect("fanout runs again");
    assert!(matches!(&report.outcomes[0], DomainOutcome::Ok(p) if p == &vec![8u8]));
    assert!(matches!(&report.outcomes[1], DomainOutcome::Failed(_)));
    assert!(matches!(&report.outcomes[2], DomainOutcome::Ok(p) if p == &vec![8u8]));

    drop(session);
    drop(deployment);
}

#[test]
fn threshold_quorum_races_past_hung_domain_within_deadline() {
    let (deployment, mut client) = deployment_with_hung_domain();
    let mut session = client.session(TrustPolicy::open());

    let report = session
        .fanout(&FanoutCall::broadcast(1, vec![10]).quorum(QuorumPolicy::Threshold(2)))
        .expect("fanout runs");
    // Two healthy answers satisfy the quorum long before the deadline;
    // the hung domain's response is abandoned, not failed.
    assert!(report.satisfied);
    assert_eq!(report.ok_count(), 2);
    assert_eq!(report.abandoned(), vec![1]);

    drop(session);
    drop(deployment);
}

#[test]
fn deadline_generous_enough_changes_nothing() {
    // With no hung domain, the bound on silence changes nothing.
    let deployment = echo_deployment(3, b"healthy deadline");
    let mut client = deployment.client(b"client");
    let mut session = client.session(TrustPolicy::audited());
    let report = session
        .fanout(&FanoutCall::broadcast(1, vec![1]))
        .expect("fanout runs");
    assert!(report.satisfied, "{report:?}");
    assert_eq!(report.ok_count(), 3);
}

/// Silent domains listed before the one healthy domain.
const SILENT: u32 = 8;

/// A one-domain deployment whose client sees [`SILENT`] hung listeners
/// first and the real domain last.
fn deployment_behind_silent_domains() -> (Deployment, DeploymentClient) {
    let deployment = echo_deployment(1, b"silent first");
    let mut descriptor = deployment.descriptor.clone();
    let healthy = descriptor.domains[0].clone();
    descriptor.domains = (0..SILENT)
        .map(|index| DomainInfo {
            index,
            addr: hung_listener(),
            ..healthy.clone()
        })
        .chain([DomainInfo {
            index: SILENT,
            ..healthy
        }])
        .collect();
    let client = DeploymentClient::new(
        descriptor,
        Box::new(HmacDrbg::new(b"silent first", b"client-rng")),
    );
    (deployment, client)
}

#[test]
fn silent_domains_cost_an_early_exit_nothing() {
    let (deployment, mut client) = deployment_behind_silent_domains();
    let mut session = client.session(TrustPolicy::open());
    let call = FanoutCall::broadcast(1, vec![3]).quorum(QuorumPolicy::Threshold(1));
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let started = Instant::now();
        let report = session.fanout(&call).expect("fanout runs");
        best = best.min(started.elapsed());
        assert!(report.satisfied, "{report:?}");
        assert!(
            matches!(&report.outcomes[SILENT as usize], DomainOutcome::Ok(p) if p == &vec![4u8])
        );
        assert_eq!(report.abandoned(), (0..SILENT).collect::<Vec<_>>());
    }
    // The healthy domain answers in well under a millisecond; waiting on
    // one silent domain at a time costs each of them at least that much.
    assert!(
        best < Duration::from_millis(5),
        "a Threshold(1) fan-out took {best:?} behind {SILENT} silent domains"
    );
    drop(session);
    drop(deployment);
}

#[test]
fn a_deadline_behind_silent_domains_is_kept() {
    let (deployment, mut client) = deployment_behind_silent_domains();
    let mut session = client.session(TrustPolicy::open());
    let budget = SILENCE;
    let call = FanoutCall::broadcast(1, vec![3]);
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let started = Instant::now();
        let report = session.fanout(&call).expect("fanout runs");
        let elapsed = started.elapsed();
        best = best.min(elapsed);
        assert!(elapsed >= budget, "gave up after {elapsed:?}");
        assert!(!report.satisfied);
        assert!(report.outcomes[SILENT as usize].is_ok(), "{report:?}");
        for d in 0..SILENT as usize {
            assert!(
                matches!(&report.outcomes[d], DomainOutcome::Failed(why) if why.contains("deadline")),
                "{:?}",
                report.outcomes[d]
            );
        }
    }
    assert!(
        best < budget + Duration::from_millis(5),
        "a {budget:?} deadline took {best:?} behind {SILENT} silent domains"
    );
    drop(session);
    drop(deployment);
}

/// A fan-out the session refuses before sending anything — a payload
/// count that does not match the deployment, a target that does not
/// exist — is not a round of application traffic, so it does not bring
/// the next audit closer.
#[test]
fn a_refused_fanout_uses_up_no_staleness_round() {
    let deployment = echo_deployment(3, b"staleness rounds");
    let mut client = deployment.client(b"client");
    let mut session = client.session(TrustPolicy::audited().with_max_staleness(1));
    // Every audit looks at domain 0's checkpoint once more: verified the
    // first time, recognised as verified after that.
    let audits_seen = |session: &mut distrust::core::session::Session<'_>| {
        let cache = session.client().auditor_prefix_cache(0).expect("domain 0");
        cache.signatures_verified() + cache.skipped()
    };
    let valid = FanoutCall::broadcast(1, vec![1]);
    assert!(session.fanout(&valid).expect("first round").satisfied);
    let after_first = audits_seen(&mut session);
    assert!(after_first > 0, "the first round audits");

    let short = FanoutCall::per_domain(1, vec![vec![1]; 2]);
    assert!(session.fanout(&short).is_err(), "one payload too few");
    let missing = FanoutCall::broadcast(1, vec![1]).targets(vec![0, 7]);
    assert!(session.fanout(&missing).is_err(), "no domain 7");

    assert!(session.fanout(&valid).expect("second round").satisfied);
    assert_eq!(
        audits_seen(&mut session),
        after_first,
        "two refused fan-outs must not make the second round re-audit"
    );
    drop(session);
    drop(deployment);
}
