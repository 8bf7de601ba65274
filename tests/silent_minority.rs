//! A silent minority cannot stall the client. A `t`-of-`n` deployment
//! keeps its promise "if a subset of the parties are honest", so whatever
//! the others do — here, the worst they can do short of lying: accept the
//! connection and never answer — an audited call must finish. Every wait
//! the client makes is bounded by [`SILENCE`]; a domain silent that long
//! is refused for the round, never convicted, and trusted again once it
//! answers an audit.
//!
//! Each case runs under a watchdog thread, so a client that stalls fails
//! the case instead of hanging the suite.

mod common;

use common::{echo_deployment, echo_module, hung_listener};
use distrust::apps::threshold_signer::{self, ThresholdSigningClient};
use distrust::core::client::{DeploymentClient, SILENCE};
use distrust::core::session::{FanoutCall, QuorumPolicy, TrustPolicy};
use distrust::core::Deployment;
use distrust::crypto::drbg::HmacDrbg;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long a case may take before the watchdog fails it: several times
/// what the slowest case needs with the bound kept.
const WATCHDOG: Duration = Duration::from_secs(20);

/// Slack over [`SILENCE`] for the honest work of a case (a debug build's
/// audit and signing fan-out take ≈ 0.1 s each).
const SLACK: Duration = Duration::from_millis(500);

/// Runs `case` on its own thread and returns its result, failing the test
/// if it takes longer than [`WATCHDOG`] — or re-raising its panic.
fn under_watchdog<T: Send + 'static>(case: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        let _ = done_tx.send(case());
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(result) => {
            runner.join().expect("the case returned before it ended");
            result
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("the case stalled: still waiting after {WATCHDOG:?}")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match runner.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the case ended without a result"),
        },
    }
}

/// A client of `deployment` that finds `silent` domains connected, alive
/// and silent.
fn client_with_silent(deployment: &Deployment, silent: &[usize], seed: &[u8]) -> DeploymentClient {
    let mut descriptor = deployment.descriptor.clone();
    for &d in silent {
        descriptor.domains[d].addr = hung_listener();
    }
    DeploymentClient::new(descriptor, Box::new(HmacDrbg::new(seed, b"client-rng")))
}

/// What the audited 3-of-5 signing case leaves to check.
struct Signed {
    elapsed: Duration,
    verifies: bool,
    refusals: Vec<Option<String>>,
    convicted: Vec<bool>,
    evidence: usize,
    trusted: Vec<u32>,
}

/// The paper's application under the audited policy, with domains 2 and
/// 4 of five silent: signs once and reports what the client made of it.
fn sign_past_two_silent_domains() -> Signed {
    let mut rng = HmacDrbg::new(b"silent minority", b"dealer");
    let (spec, public) = threshold_signer::setup(3, 5, &mut rng).expect("setup");
    let deployment = Deployment::launch(spec, b"silent minority").expect("launch");
    let mut client = client_with_silent(&deployment, &[2, 4], b"signing client");
    let mut session = client.session(TrustPolicy::audited());
    let signer = ThresholdSigningClient::new(public.clone());
    let message = b"a silent minority signs nothing and stalls nothing";
    let started = Instant::now();
    let signature = signer.sign(&mut session, message).expect("signing");
    let elapsed = started.elapsed();
    let report = session.last_audit().expect("the gating audit ran");
    let refusals = report.domains.iter().map(|d| d.failure.clone()).collect();
    let trusted = session.trusted_domains();
    drop(session);
    Signed {
        elapsed,
        verifies: public.public_key.verify(message, &signature),
        refusals,
        convicted: (0..5).map(|d| client.convicted(d)).collect(),
        evidence: client.evidence().len(),
        trusted,
    }
}

#[test]
fn an_audited_three_of_five_signature_verifies_past_two_silent_domains() {
    let signed = under_watchdog(sign_past_two_silent_domains);
    assert!(signed.verifies, "the signature does not verify");
    assert!(
        signed.elapsed < SILENCE + SLACK,
        "signing took {:?} against a {SILENCE:?} bound",
        signed.elapsed
    );
    assert_eq!(signed.trusted, vec![0, 1, 3]);
}

#[test]
fn silent_domains_are_refused_by_name_and_never_convicted() {
    let signed = under_watchdog(sign_past_two_silent_domains);
    for d in 0..5 {
        let refusal = &signed.refusals[d];
        if d == 2 || d == 4 {
            let why = refusal.as_deref().expect("a silent domain is refused");
            assert!(why.contains("SILENCE"), "domain {d}: {why}");
        } else {
            assert_eq!(refusal, &None, "domain {d}");
        }
        assert!(!signed.convicted[d], "domain {d} convicted for silence");
    }
    assert_eq!(signed.evidence, 0, "silence became evidence");
}

#[test]
fn an_audited_threshold_one_call_is_satisfied_past_a_silent_domain() {
    let (report, elapsed) = under_watchdog(|| {
        let deployment = echo_deployment(3, b"threshold one");
        let mut client = client_with_silent(&deployment, &[1], b"threshold one");
        let mut session = client.session(TrustPolicy::audited());
        let call = FanoutCall::broadcast(1, vec![5]).quorum(QuorumPolicy::Threshold(1));
        let started = Instant::now();
        let report = session
            .fanout(&call)
            .expect("the gate lets the call through");
        (report, started.elapsed())
    });
    assert!(report.satisfied, "{report:?}");
    assert!(report.successes().all(|(_, answer)| answer == [6]));
    assert!(elapsed < SILENCE + SLACK, "took {elapsed:?}");
}

#[test]
fn a_push_past_a_silent_domain_returns_within_the_bound() {
    let (acks, elapsed) = under_watchdog(|| {
        let deployment = echo_deployment(3, b"silent push");
        let mut developer = client_with_silent(&deployment, &[1], b"developer");
        let release = deployment.sign_release(2, "v2", &echo_module(2));
        let started = Instant::now();
        let acks: Vec<Result<u64, String>> = developer
            .push_update(&release)
            .into_iter()
            .map(|ack| ack.map(|(size, _)| size).map_err(|e| e.to_string()))
            .collect();
        (acks, started.elapsed())
    });
    assert!(elapsed < SILENCE + SLACK, "took {elapsed:?}");
    assert_eq!(acks[0], Ok(2));
    assert_eq!(acks[2], Ok(2));
    let why = acks[1].as_ref().expect_err("a silent domain acknowledged");
    assert!(why.contains("SILENCE"), "{why}");
}

/// A proxy in front of a domain that forwards both ways, and that a case
/// turns against the client through its switches.
#[derive(Clone, Default)]
struct Proxy {
    /// While set, what the client sends is read and dropped.
    muted: Arc<AtomicBool>,
    /// When set, the next bytes a client sends are dropped and its
    /// connection closed, and the switch is cleared: a domain that
    /// restarts inside a round.
    hang_up: Arc<AtomicBool>,
    /// Every client connection accepted, for a case to close: a domain
    /// that restarted between rounds.
    clients: Arc<Mutex<Vec<TcpStream>>>,
}

impl Proxy {
    /// Starts the proxy in front of `upstream`; returns its address.
    fn start(&self, upstream: SocketAddr) -> SocketAddr {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let proxy = self.clone();
        thread::spawn(move || {
            for client in listener.incoming().flatten() {
                proxy
                    .clients
                    .lock()
                    .unwrap()
                    .push(client.try_clone().expect("clone"));
                let server = TcpStream::connect(upstream).expect("upstream");
                let (mut from_client, mut to_server) = (
                    client.try_clone().expect("clone"),
                    server.try_clone().expect("clone"),
                );
                let proxy = proxy.clone();
                thread::spawn(move || {
                    let mut buf = [0u8; 16 * 1024];
                    while let Ok(n @ 1..) = from_client.read(&mut buf) {
                        if proxy.hang_up.swap(false, Ordering::SeqCst) {
                            let _ = from_client.shutdown(Shutdown::Both);
                            break;
                        }
                        if !proxy.muted.load(Ordering::SeqCst)
                            && to_server.write_all(&buf[..n]).is_err()
                        {
                            break;
                        }
                    }
                    let _ = to_server.shutdown(Shutdown::Both);
                });
                let (mut from_server, mut to_client) = (server, client);
                thread::spawn(move || {
                    let _ = std::io::copy(&mut from_server, &mut to_client);
                    let _ = to_client.shutdown(Shutdown::Both);
                });
            }
        });
        addr
    }
}

#[test]
fn a_muted_domain_is_trusted_at_the_first_audit_after_unmuting() {
    let (muted_refusal, trusted_after, report) = under_watchdog(|| {
        let deployment = echo_deployment(3, b"muted domain");
        let proxy = Proxy::default();
        let muted = &proxy.muted;
        let mut descriptor = deployment.descriptor.clone();
        descriptor.domains[1].addr = proxy.start(descriptor.domains[1].addr);
        let mut client =
            DeploymentClient::new(descriptor, Box::new(HmacDrbg::new(b"muted", b"client-rng")));
        let mut session = client.session(TrustPolicy::audited());
        assert_eq!(session.refresh_trust().expect("clean").domains.len(), 3);

        // Muted on a connection already in use: the audit is refused for
        // silence, and the connection, which owes two answers that were
        // never asked of the domain, goes with it.
        muted.store(true, Ordering::SeqCst);
        let refusal = session.refresh_trust().expect("two domains pass").domains[1]
            .failure
            .clone();

        muted.store(false, Ordering::SeqCst);
        session.refresh_trust().expect("every domain passes");
        let trusted = session.trusted_domains();
        let report = session
            .fanout(&FanoutCall::broadcast(1, vec![1]))
            .expect("fanout runs");
        (refusal, trusted, report)
    });
    let why = muted_refusal.expect("the muted domain is refused");
    assert!(why.contains("SILENCE"), "{why}");
    assert_eq!(trusted_after, vec![0, 1, 2]);
    assert!(report.satisfied, "{report:?}");
    assert!(report.successes().all(|(_, answer)| answer == [2]));
}

/// Audits a deployment of three whose domain 0 is silent and whose domain
/// 1 sits behind a proxy, turns the proxy against the client with
/// `restart`, and audits again. Returns the domains trusted after each
/// audit and how long the second took.
fn audit_past_a_restart_behind_a_silent_domain(
    restart: fn(&Proxy),
) -> (Vec<u32>, Vec<u32>, Duration) {
    under_watchdog(move || {
        let deployment = echo_deployment(3, b"restarted behind silent");
        let proxy = Proxy::default();
        let mut descriptor = deployment.descriptor.clone();
        descriptor.domains[0].addr = hung_listener();
        descriptor.domains[1].addr = proxy.start(descriptor.domains[1].addr);
        let mut client = DeploymentClient::new(
            descriptor,
            Box::new(HmacDrbg::new(b"restarted", b"client-rng")),
        );
        let mut session = client.session(TrustPolicy::audited());
        session.refresh_trust().expect("two domains pass");
        let trusted_before = session.trusted_domains();
        restart(&proxy);
        let started = Instant::now();
        session.refresh_trust().expect("two domains pass");
        (trusted_before, session.trusted_domains(), started.elapsed())
    })
}

/// A domain that restarted between two audits, behind a silent one: the
/// second audit finds its connection closed while sending to it. The
/// audit is reissued at once, and the domain is trusted in that round.
#[test]
fn a_domain_restarted_between_audits_behind_a_silent_one_is_trusted_in_the_round() {
    let (before, after, elapsed) = audit_past_a_restart_behind_a_silent_domain(|proxy| {
        for connection in proxy.clients.lock().unwrap().drain(..) {
            connection.shutdown(Shutdown::Both).expect("shutdown");
        }
    });
    assert_eq!(before, vec![1, 2]);
    assert_eq!(after, vec![1, 2]);
    assert!(elapsed < SILENCE + SLACK, "took {elapsed:?}");
}

/// A domain that restarts inside the round, behind a silent one: its
/// connection is closed once the audit is sent, while the silent domain
/// holds the round's wait. The collector sees the hang-up, the audit is
/// reissued under the same deadline, and the domain is trusted.
#[test]
fn a_domain_restarted_inside_the_round_behind_a_silent_one_is_trusted_in_it() {
    let (before, after, elapsed) = audit_past_a_restart_behind_a_silent_domain(|proxy| {
        proxy.hang_up.store(true, Ordering::SeqCst);
    });
    assert_eq!(before, vec![1, 2]);
    assert_eq!(after, vec![1, 2]);
    assert!(elapsed < SILENCE + SLACK, "took {elapsed:?}");
}
