//! End-to-end: the paper's prototype application on a full deployment.
//!
//! Deploys BLS threshold signing across n = 5 trust domains (t = 3) with
//! heterogeneous simulated TEEs, audits the deployment as a client would,
//! signs through the framework, and verifies the aggregate under the group
//! public key.

mod common;

use common::count_sign_requests;
use distrust::apps::threshold_signer::{self, SignError, SignerHost, ThresholdSigningClient};
use distrust::core::abi::AppHost;
use distrust::core::session::Session;
use distrust::core::{Deployment, TrustPolicy};
use distrust::crypto::bls::{PreparedPublicKey, Signature};
use distrust::crypto::drbg::HmacDrbg;
use distrust::crypto::fr::Fr;
use distrust::crypto::pairing::final_exponentiations;
use distrust::crypto::threshold;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn five_domain_threshold_signing() {
    let mut rng = HmacDrbg::new(b"e2e threshold", b"dealer");
    let (spec, public) = threshold_signer::setup(3, 5, &mut rng).expect("setup");
    let mut deployment = Deployment::launch(spec, b"e2e threshold seed").expect("launch");
    assert_eq!(deployment.domain_count(), 5);

    let mut client = deployment.client(b"client-1");
    // The audit must be clean before the client trusts the deployment —
    // the session runs it before the first sign request.
    let mut session = client.session(TrustPolicy::pinned(deployment.initial_app_digest));

    // Sign (a Threshold(3) fan-out across all 5 domains).
    let signer = ThresholdSigningClient::new(public.clone());
    let msg = b"transfer 10 tokens to alice";
    let sig = signer.sign(&mut session, msg).expect("signing");
    assert!(public.public_key.verify(msg, &sig));
    // Not valid for another message.
    assert!(!public
        .public_key
        .verify(b"transfer 1000 tokens to mallory", &sig));

    let report = session.last_audit().expect("gating audit ran");
    assert!(report.is_clean(), "audit failed: {report:?}");
    // Domain 0 is the developer's (unattested); the other four attested.
    assert!(!report.domains[0].attested);
    for d in &report.domains[1..] {
        assert!(d.attested, "domain {} not attested", d.index);
    }

    // Deterministic: BLS signatures are unique, so signing twice over any
    // t-subset yields the identical signature — even though the quorum
    // race may collect partials from a different subset each time.
    let sig2 = signer.sign(&mut session, msg).expect("signing again");
    assert_eq!(sig, sig2);

    drop(session);
    deployment.shutdown();
}

#[test]
fn signing_survives_minority_domain_failure() {
    let mut rng = HmacDrbg::new(b"e2e tolerance", b"dealer");
    let (spec, public) = threshold_signer::setup(2, 4, &mut rng).expect("setup");
    let deployment = Deployment::launch(spec, b"e2e tolerance seed").expect("launch");
    // Corrupt the descriptor so two domains are unreachable — the client
    // must still collect t = 2 valid partials from the remaining two. The
    // session's gating audit marks the dead domains untrusted; the
    // Threshold(2) fan-out succeeds from the survivors.
    {
        // Rebuild a client whose descriptor points two domains at dead
        // addresses.
        let mut descriptor = deployment.descriptor.clone();
        descriptor.domains[1].addr = "127.0.0.1:1".parse().unwrap();
        descriptor.domains[3].addr = "127.0.0.1:1".parse().unwrap();
        let mut degraded = distrust::core::DeploymentClient::new(
            descriptor,
            Box::new(HmacDrbg::new(b"degraded", b"")),
        );
        let mut session = degraded.session(TrustPolicy::audited());
        let signer = ThresholdSigningClient::new(public.clone());
        let msg = b"resilient signing";
        let sig = signer.sign(&mut session, msg).expect("t-of-n resilience");
        assert!(public.public_key.verify(msg, &sig));
        assert_eq!(session.trusted_domains(), vec![0, 2]);
    }

    // Below threshold, signing must fail: three domains dead.
    {
        let mut descriptor = deployment.descriptor.clone();
        for d in [0usize, 1, 3] {
            descriptor.domains[d].addr = "127.0.0.1:1".parse().unwrap();
        }
        let mut starved = distrust::core::DeploymentClient::new(
            descriptor,
            Box::new(HmacDrbg::new(b"starved", b"")),
        );
        let mut session = starved.session(TrustPolicy::audited());
        let signer = ThresholdSigningClient::new(public.clone());
        let err = signer.sign(&mut session, b"no quorum").unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("partial"), "unexpected error: {msg}");
    }
}

#[test]
fn partial_signatures_verify_against_feldman_commitments() {
    let mut rng = HmacDrbg::new(b"e2e partials", b"dealer");
    let (spec, public) = threshold_signer::setup(2, 3, &mut rng).expect("setup");
    let deployment = Deployment::launch(spec, b"e2e partials seed").expect("launch");
    let mut client = deployment.client(b"client-3");
    let mut session = client.session(TrustPolicy::audited());
    let signer = ThresholdSigningClient::new(public.clone());

    let msg = b"audited partial";
    for domain in 0..3 {
        let partial = signer
            .partial_from_domain(&mut session, domain, msg)
            .expect("partial");
        assert_eq!(partial.index, (domain + 1) as u8);
        assert!(distrust::crypto::threshold::verify_partial(
            &public.commitments,
            msg,
            &partial
        ));
        // And it is NOT a valid partial for a different message.
        assert!(!distrust::crypto::threshold::verify_partial(
            &public.commitments,
            b"other message",
            &partial
        ));
    }
}

#[test]
fn share_index_served_through_deployment() {
    let mut rng = HmacDrbg::new(b"e2e index", b"dealer");
    let (spec, _public) = threshold_signer::setup(1, 2, &mut rng).expect("setup");
    let deployment = Deployment::launch(spec, b"e2e index seed").expect("launch");
    let mut client = deployment.client(b"client-4");
    let mut session = client.session(TrustPolicy::audited());
    for domain in 0..2u32 {
        let out = session
            .call(domain, threshold_signer::METHOD_INDEX, b"")
            .expect("index call");
        assert_eq!(out, vec![(domain + 1) as u8]);
    }
}

/// A `t`-of-`n` signing deployment in which every domain in `wrong` holds
/// a well-formed share of some *other* polynomial: its answers parse as G1
/// points and carry the right index, but they are not partial signatures
/// under the dealt key.
struct LyingDeployment {
    deployment: Deployment,
    public: threshold_signer::ThresholdPublic,
    asked: Vec<Arc<AtomicUsize>>,
}

impl LyingDeployment {
    fn launch(t: usize, n: usize, wrong: &[usize]) -> Self {
        let mut rng = HmacDrbg::new(b"e2e wrong shares", b"dealer");
        let keys = threshold::generate(t, n, &mut rng).expect("keygen");
        // Module, name and limits as dealt; the hosts are replaced.
        let (mut spec, _) = threshold_signer::setup(t, n, &mut rng).expect("setup");
        spec.hosts = keys
            .shares
            .iter()
            .enumerate()
            .map(|(d, share)| {
                let mut share = *share;
                if wrong.contains(&d) {
                    share.value = Fr::random_nonzero(&mut rng);
                }
                assert_eq!(keys.commitments.verify_share(&share), !wrong.contains(&d));
                Box::new(SignerHost::new(share)) as Box<dyn AppHost>
            })
            .collect();
        let asked = count_sign_requests(&mut spec);
        let deployment = Deployment::launch(spec, b"e2e wrong shares seed").expect("launch");
        Self {
            deployment,
            public: threshold_signer::ThresholdPublic {
                threshold: t,
                public_key: PreparedPublicKey::new(keys.public_key),
                commitments: keys.commitments,
            },
            asked,
        }
    }

    /// Sign requests that reached each domain since the last call. Asks
    /// every domain its share index first: a domain answers in order, so
    /// the reply means it has finished every sign request before it —
    /// stragglers a threshold fan-out abandoned included.
    fn asked_since_last(&self, session: &mut Session<'_>) -> Vec<usize> {
        (0..self.asked.len())
            .map(|d| {
                session
                    .call(d as u32, threshold_signer::METHOD_INDEX, b"")
                    .expect("index call");
                self.asked[d].swap(0, Ordering::SeqCst)
            })
            .collect()
    }
}

/// Runs `sign` and returns its result, the pairing checks it performed on
/// this thread, and the sign requests each domain received.
fn observed_sign(
    rig: &LyingDeployment,
    session: &mut Session<'_>,
    message: &[u8],
) -> (Result<Signature, SignError>, u64, Vec<usize>) {
    let signer = ThresholdSigningClient::new(rig.public.clone());
    let before = final_exponentiations();
    let result = signer.sign(session, message);
    let checks = final_exponentiations() - before;
    (result, checks, rig.asked_since_last(session))
}

/// What the domains can see of "a domain whose answer was read is never
/// asked again": a second request goes only to a domain the first round
/// abandoned (at most `n − t` of them), and only once every domain — all
/// of them trusted here — has been asked; each further round re-asks
/// strictly fewer.
fn assert_only_abandoned_domains_were_asked_again(asked: &[usize], t: usize) {
    let n = asked.len();
    let asked_at_least = |k: usize| asked.iter().filter(|&&a| a >= k).count();
    assert!(
        asked_at_least(2) == 0 || asked_at_least(1) == n,
        "a domain was asked twice while another was never asked: {asked:?}"
    );
    assert!(
        asked_at_least(2) <= n - t,
        "an answer was asked for twice: {asked:?}"
    );
    for k in 2..=n {
        let (this, next) = (asked_at_least(k), asked_at_least(k + 1));
        assert!(
            next == 0 || next < this,
            "a round did not shrink: {asked:?}"
        );
    }
}

#[test]
fn a_warm_signature_from_honest_domains_costs_one_pairing_check() {
    let rig = LyingDeployment::launch(3, 5, &[]);
    let mut client = rig.deployment.client(b"client-5");
    let mut session = client.session(TrustPolicy::pinned(rig.deployment.initial_app_digest));
    let mut warm = None;
    for round in 0..3u8 {
        let (sig, checks, asked) = observed_sign(&rig, &mut session, &[b'm', round]);
        let sig = sig.expect("honest signing");
        assert!(rig.public.public_key.verify(&[b'm', round], &sig));
        assert_eq!(checks, 1, "round {round}");
        if round == 0 {
            // No answer yet to time a hedge by: every domain is asked.
            assert_eq!(asked, vec![1; 5], "round {round}");
        } else {
            // Warm: the t domains whose answers counted, once each.
            assert_eq!(asked.iter().sum::<usize>(), 3, "round {round}: {asked:?}");
            assert!(asked.iter().all(|&a| a <= 1), "round {round}: {asked:?}");
            assert_eq!(warm.get_or_insert_with(|| asked.clone()), &asked);
        }
    }
}

#[test]
fn a_lying_minority_cannot_stop_signing() {
    let (t, n) = (3, 5);
    for wrong in [&[0usize][..], &[1], &[0, 1], &[3, 4], &[0, 4]] {
        let rig = LyingDeployment::launch(t, n, wrong);
        let mut client = rig.deployment.client(b"client-6");
        let mut session = client.session(TrustPolicy::pinned(rig.deployment.initial_app_digest));
        let mut caught = false;
        for round in 0..4u8 {
            let msg = [b"pay bob ".as_slice(), &[b'0' + round]].concat();
            let (sig, checks, asked) = observed_sign(&rig, &mut session, &msg);
            let sig = sig.unwrap_or_else(|e| panic!("wrong shares at {wrong:?}: {e}"));
            assert!(rig.public.public_key.verify(&msg, &sig), "at {wrong:?}");
            assert_only_abandoned_domains_were_asked_again(&asked, t);
            // A liar caught ranks last, behind t honest domains: it costs
            // its failed check once per session, not once per signature.
            if caught {
                assert_eq!(checks, 1, "at {wrong:?}, round {round}: {asked:?}");
            }
            caught |= checks > 1;
            // One check when the first t answers were honest. Otherwise,
            // per spoiled round: the failed check and one Feldman check
            // per partial not yet vetted — each partial once, so at most
            // n of those in all — and the check that finally passes.
            let rounds = *asked.iter().max().unwrap() as u64;
            if rounds == 1 {
                assert_eq!(checks, 1, "at {wrong:?}: {asked:?}");
            } else {
                assert!(
                    checks <= rounds + n as u64,
                    "at {wrong:?}: {checks}, {asked:?}"
                );
            }
            if wrong.len() == 1 && rounds > 1 {
                assert!(checks <= t as u64 + 2, "at {wrong:?}: {checks}");
            }
        }
    }
}

#[test]
fn a_lying_domain_in_a_full_quorum_is_counted_out_and_nobody_is_asked_twice() {
    // t = n: no answer is ever abandoned, so nobody may be asked again,
    // and the one wrong share must be found in the first (only) round.
    let rig = LyingDeployment::launch(3, 3, &[1]);
    let mut client = rig.deployment.client(b"client-7");
    let mut session = client.session(TrustPolicy::pinned(rig.deployment.initial_app_digest));
    let (result, checks, asked) = observed_sign(&rig, &mut session, b"needs all three");
    let err = result.unwrap_err();
    assert!(
        matches!(err, SignError::NotEnoughPartials { got: 2, need: 3 }),
        "unexpected error: {err}"
    );
    assert_eq!(asked, vec![1, 1, 1]);
    // The failed aggregate and one Feldman check per partial.
    assert_eq!(checks, 4);
}

#[test]
fn too_many_lying_domains_are_counted_out_not_believed() {
    let rig = LyingDeployment::launch(3, 5, &[0, 2, 4]);
    let mut client = rig.deployment.client(b"client-8");
    let mut session = client.session(TrustPolicy::pinned(rig.deployment.initial_app_digest));
    let (result, checks, asked) = observed_sign(&rig, &mut session, b"no honest quorum");
    let err = result.unwrap_err();
    assert!(
        matches!(err, SignError::NotEnoughPartials { got: 2, need: 3 }),
        "unexpected error: {err}"
    );
    assert_only_abandoned_domains_were_asked_again(&asked, 3);
    // Any three answers hold a wrong one, so the slow path always runs:
    // the failed check and three Feldman checks at the least; at most
    // three rounds' failed checks and every partial vetted once.
    assert!((4..=3 + 5).contains(&checks), "{checks} checks, {asked:?}");
}
