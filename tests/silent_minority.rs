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

use common::{count_sign_requests, echo_deployment, echo_module, hung_listener};
use distrust::apps::threshold_signer::{self, ThresholdPublic, ThresholdSigningClient};
use distrust::core::client::{DeploymentClient, SILENCE};
use distrust::core::session::{FanoutCall, QuorumPolicy, Session, TrustPolicy};
use distrust::core::Deployment;
use distrust::crypto::drbg::HmacDrbg;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// While non-zero, what the client sends is held this many
    /// milliseconds before it is forwarded: a slow domain.
    lag_ms: Arc<AtomicU64>,
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
                        let lag = proxy.lag_ms.load(Ordering::SeqCst);
                        if lag > 0 {
                            thread::sleep(Duration::from_millis(lag));
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

/// A 3-of-5 signing deployment with every domain behind a [`Proxy`] and
/// its sign requests counted, and a client of it that has passed its
/// gating audit.
struct ProxiedSigning {
    /// Kept alive for the client.
    _deployment: Deployment,
    proxies: Vec<Proxy>,
    counters: Vec<Arc<AtomicUsize>>,
    public: ThresholdPublic,
    client: DeploymentClient,
}

fn proxied_signing(seed: &[u8]) -> ProxiedSigning {
    let mut rng = HmacDrbg::new(seed, b"dealer");
    let (mut spec, public) = threshold_signer::setup(3, 5, &mut rng).expect("setup");
    let counters = count_sign_requests(&mut spec);
    let deployment = Deployment::launch(spec, seed).expect("launch");
    let proxies: Vec<Proxy> = (0..5).map(|_| Proxy::default()).collect();
    let mut descriptor = deployment.descriptor.clone();
    for (domain, proxy) in descriptor.domains.iter_mut().zip(&proxies) {
        domain.addr = proxy.start(domain.addr);
    }
    let client = DeploymentClient::new(descriptor, Box::new(HmacDrbg::new(seed, b"client-rng")));
    ProxiedSigning {
        _deployment: deployment,
        proxies,
        counters,
        public,
        client,
    }
}

/// The sign requests each domain but `skip` has served since the last
/// look: an index call answered means every request before it on that
/// connection was.
fn asked_since(
    session: &mut Session<'_>,
    counters: &[Arc<AtomicUsize>],
    skip: Option<usize>,
) -> Vec<usize> {
    (0..counters.len())
        .map(|d| {
            if Some(d) != skip {
                session
                    .call(d as u32, threshold_signer::METHOD_INDEX, b"")
                    .expect("index call");
            }
            counters[d].swap(0, Ordering::SeqCst)
        })
        .collect()
}

/// How long every domain lags in a session's first signature unless a
/// case says otherwise: the hedge point, twice the slowest answer counted,
/// then sits far above a warm answer's jitter, so no case's count of
/// requests depends on the host's scheduling.
const COLD_LAG: Duration = Duration::from_millis(100);

/// Signs a session's first signature with domain `d` lagging `lags[d]`,
/// so that the slowest answer the session has counted is at least the
/// least of them.
fn sign_cold_with_lag(
    session: &mut Session<'_>,
    signer: &ThresholdSigningClient,
    proxies: &[Proxy],
    lags: &[Duration],
) {
    session.refresh_trust().expect("every domain passes");
    for (proxy, lag) in proxies.iter().zip(lags) {
        proxy.lag_ms.store(lag.as_millis() as u64, Ordering::SeqCst);
    }
    signer.sign(session, b"cold").expect("signing");
    for proxy in proxies {
        proxy.lag_ms.store(0, Ordering::SeqCst);
    }
}

/// What a warm signer made of a domain turned against it inside its first
/// `t` (see [`sign_past_a_turned_warm_domain`]).
struct Turned {
    /// The domain turned.
    turned: usize,
    /// How long the signature after the turn took.
    elapsed: Duration,
    /// Whether both signatures after the turn verify.
    verify: bool,
    /// The sign requests that reached each domain in the signature after
    /// the turn, and in the one after that.
    asked: [Vec<usize>; 2],
}

/// A session of [`proxied_signing`] signs twice — the first signature,
/// its domains lagging `cold_lag`, asks every domain, the second, warm,
/// asks the three whose answers counted — then one of those three is
/// turned against the client with `turn`, and the session signs twice
/// more.
fn sign_past_a_turned_warm_domain(cold_lag: Duration, turn: fn(&Proxy)) -> Turned {
    under_watchdog(move || {
        let mut setup = proxied_signing(b"turned warm domain");
        let counters = &setup.counters;
        let mut session = setup.client.session(TrustPolicy::audited());
        let signer = ThresholdSigningClient::new(setup.public.clone());
        sign_cold_with_lag(&mut session, &signer, &setup.proxies, &[cold_lag; 5]);
        assert_eq!(asked_since(&mut session, counters, None), [1; 5]);
        signer.sign(&mut session, b"warm").expect("signing");
        let warm = asked_since(&mut session, counters, None);
        assert_eq!(warm.iter().sum::<usize>(), 3, "{warm:?}");
        let turned = warm
            .iter()
            .position(|&a| a == 1)
            .expect("a domain was asked");
        turn(&setup.proxies[turned]);
        let started = Instant::now();
        let third = signer.sign(&mut session, b"turned");
        let elapsed = started.elapsed();
        let third_asked = asked_since(&mut session, counters, Some(turned));
        let fourth = signer.sign(&mut session, b"after");
        let fourth_asked = asked_since(&mut session, counters, Some(turned));
        let verify = [(b"turned".as_slice(), third), (b"after", fourth)]
            .into_iter()
            .all(|(m, sig)| sig.is_ok_and(|sig| setup.public.public_key.verify(m, &sig)));
        Turned {
            turned,
            elapsed,
            verify,
            asked: [third_asked, fourth_asked],
        }
    })
}

/// Checks what a signer did past a warm domain muted inside its first
/// `t`: the signature after the mute took less than `bound` and asked the
/// two answering domains of the first three and both spares; the next
/// signature asked three domains that answered, and not the muted one.
fn assert_one_hedge_past_a_muted_domain(turned: &Turned, bound: Duration) {
    let [third, fourth] = &turned.asked;
    assert!(turned.verify, "a signature does not verify");
    assert!(
        turned.elapsed < bound,
        "took {:?} against {bound:?}",
        turned.elapsed
    );
    assert_eq!(third[turned.turned], 0);
    assert_eq!(third.iter().sum::<usize>(), 4, "{third:?}");
    // Three requests, all answered: the muted domain was not asked, or
    // the hedge would have asked a fourth.
    assert_eq!(fourth.iter().sum::<usize>(), 3, "{fourth:?}");
    assert!(fourth.iter().all(|&a| a <= 1), "{fourth:?}");
}

/// A domain that goes silent after the gating audit, inside a warm
/// session's first `t`: the signature asks every spare at the hedge point
/// and returns a round later, far inside [`SILENCE`].
#[test]
fn a_domain_muted_inside_the_first_t_costs_one_hedge_not_silence() {
    let turned =
        sign_past_a_turned_warm_domain(COLD_LAG, |proxy| proxy.muted.store(true, Ordering::SeqCst));
    assert_one_hedge_past_a_muted_domain(&turned, SILENCE / 4);
}

/// The same, in a session whose slowest counted answer took more than
/// `SILENCE / 2`: twice it would pass the deadline, so the hedge point
/// is held at `SILENCE / 2`, and the spares it asks have the full bound
/// from their own requests. The signature still verifies, well inside
/// [`SILENCE`].
#[test]
fn a_domain_muted_after_a_slow_answer_costs_half_silence_at_most() {
    let lag = SILENCE / 2 + Duration::from_millis(100);
    let turned =
        sign_past_a_turned_warm_domain(lag, |proxy| proxy.muted.store(true, Ordering::SeqCst));
    assert_one_hedge_past_a_muted_domain(&turned, SILENCE / 2 + SLACK);
}

/// A domain whose connection closes inside a warm signature is replaced
/// as soon as the loss is seen, by one spare: the hedge, which asks every
/// spare, never comes. The next signature leaves the domain out.
#[test]
fn a_domain_that_hangs_up_inside_the_first_t_is_replaced_at_once() {
    let turned = sign_past_a_turned_warm_domain(COLD_LAG, |proxy| {
        proxy.hang_up.store(true, Ordering::SeqCst)
    });
    let [third, fourth] = &turned.asked;
    assert!(turned.verify, "a signature does not verify");
    assert!(turned.elapsed < SILENCE / 4, "took {:?}", turned.elapsed);
    assert_eq!(third[turned.turned], 0);
    assert_eq!(third.iter().sum::<usize>(), 3, "{third:?}");
    assert_eq!(fourth[turned.turned], 0, "{fourth:?}");
    assert_eq!(fourth.iter().sum::<usize>(), 3, "{fourth:?}");
}

/// A session ranks domains per method: a threshold call of another
/// method whose every answer is refused — as a recovery with a wrong
/// token is — leaves the signatures' ranking as it was. Domain 0 lags
/// longest in the session's first signature, so the three warm domains
/// are not the three lowest indices that a ranking of five refused
/// domains asks.
#[test]
fn every_answer_of_another_method_refused_leaves_the_signing_ranking_alone() {
    let (warm, after) = under_watchdog(|| {
        let mut setup = proxied_signing(b"ranked per method");
        let counters = &setup.counters;
        let mut session = setup.client.session(TrustPolicy::audited());
        let signer = ThresholdSigningClient::new(setup.public.clone());
        let lags = [3 * COLD_LAG + SLACK, COLD_LAG, COLD_LAG, COLD_LAG, COLD_LAG];
        sign_cold_with_lag(&mut session, &signer, &setup.proxies, &lags);
        asked_since(&mut session, counters, None);
        signer.sign(&mut session, b"warm").expect("signing");
        let warm = asked_since(&mut session, counters, None);
        let refused = session
            .fanout_collect(
                threshold_signer::METHOD_INDEX,
                Vec::new(),
                3,
                |_, _| None::<()>,
                |_| {},
            )
            .expect("the call runs");
        assert!(refused.is_empty());
        signer.sign(&mut session, b"after").expect("signing");
        (warm, asked_since(&mut session, counters, None))
    });
    assert_eq!(warm[0], 0, "{warm:?}");
    assert_eq!(warm.iter().sum::<usize>(), 3, "{warm:?}");
    assert_eq!(after, warm);
}

/// With no domain lagging, a warm signature's answers take a millisecond
/// or two in a release build, so twice the slowest of them is inside the
/// scheduler's jitter: the hedge point's floor, `SILENCE / 16`, keeps each
/// warm signature to the three domains it asks, fifty times over.
#[test]
fn fifty_warm_signatures_without_lag_ask_three_domains_each() {
    let asked = under_watchdog(|| {
        let mut setup = proxied_signing(b"no lag");
        let counters = &setup.counters;
        let mut session = setup.client.session(TrustPolicy::audited());
        let signer = ThresholdSigningClient::new(setup.public.clone());
        signer.sign(&mut session, b"cold").expect("signing");
        assert_eq!(asked_since(&mut session, counters, None), [1; 5]);
        (0..50u8)
            .map(|i| {
                let message = [b'w', i];
                let signature = signer.sign(&mut session, &message).expect("signing");
                assert!(setup.public.public_key.verify(&message, &signature));
                asked_since(&mut session, counters, None)
            })
            .collect::<Vec<_>>()
    });
    for (i, warm) in asked.iter().enumerate() {
        assert_eq!(
            warm.iter().sum::<usize>(),
            3,
            "warm signature {i}: {warm:?}"
        );
    }
}
