//! Concurrency: a deployment must serve many clients at once without
//! corrupting state — audits, app calls, and updates interleaved from
//! multiple threads.

mod common;

use common::app_call;
use distrust::apps::analytics::{self, AnalyticsClient};
use distrust::core::{Deployment, TrustPolicy};
use distrust::crypto::drbg::HmacDrbg;
use distrust::wire::server::FrameServer;
use distrust::wire::transport::{max_open_files, TcpTransport, Transport};
use distrust::wire::{Decode, Encode};
use std::sync::{Arc, Barrier};

/// 500 independent auditors batch-auditing one trust domain through the
/// readiness event loop, every request in flight at once, each response
/// matched back by request id and fully verified client-side — extends
/// PR 2's cross-connection regression to the batched audit path.
#[test]
fn event_loop_sustains_500_concurrent_batch_auditors() {
    use distrust::core::abi::NoImports;
    use distrust::core::framework::{EnclaveFramework, FrameworkConfig, FrameworkService};
    use distrust::core::protocol::{Request, Response};
    use distrust::core::server::DirectHost;
    use distrust::core::SignedRelease;
    use distrust::crypto::schnorr::SigningKey;
    use distrust::log::auditor::Auditor;
    use distrust::log::checkpoint::log_id;
    use distrust::log::StorageConfig;
    use distrust::sandbox::guests::counter_module;
    use distrust::sandbox::Limits;

    let dev = SigningKey::derive(b"batch audit load", b"developer");
    let checkpoint_key = SigningKey::derive(b"batch audit load", b"checkpoint");
    let mut fw = EnclaveFramework::open(
        FrameworkConfig {
            domain_index: 0,
            app_name: "audited".into(),
            developer_key: dev.verifying_key(),
            log_id: log_id(b"batch-load", 0),
            limits: Limits::default(),
            log_shards: 1,
            storage: StorageConfig::Ephemeral,
        },
        None,
        checkpoint_key,
        Box::new(NoImports),
    )
    .unwrap();
    let release = SignedRelease::create("audited", 1, "", &counter_module(1), &dev);
    let expected_status = fw.apply_update(&release).expect("v1 installs");
    // DirectHost serves through the wire crate's FrameServer.
    let mut host = DirectHost::spawn(FrameworkService::new(fw)).expect("spawn");
    let addr = host.addr();
    let vk = checkpoint_key.verifying_key();

    let workers = 8usize;
    let mut per_worker = 63usize; // 8 × 63 = 504 concurrent auditors
    if let Some(limit) = max_open_files() {
        let budget = limit.saturating_sub(200) / 2 / workers;
        if budget < per_worker {
            per_worker = budget.max(1);
            eprintln!(
                "fd limit {limit}: scaling to {} concurrent auditors",
                workers * per_worker
            );
        }
    }
    let rounds = 2u64;
    let barrier = Arc::new(Barrier::new(workers));

    let mut joins = Vec::new();
    for w in 0..workers {
        let barrier = Arc::clone(&barrier);
        let expected_status = expected_status.clone();
        joins.push(std::thread::spawn(move || {
            let mut conns: Vec<(TcpTransport, Auditor)> = (0..per_worker)
                .map(|_| {
                    (
                        TcpTransport::connect(addr).expect("connect"),
                        Auditor::new(vec![vk]),
                    )
                })
                .collect();
            // All ~500 connections are open before any traffic flows.
            barrier.wait();
            for round in 0..rounds {
                // Phase 1: every auditor's request is in flight before any
                // response is read; ids are globally unique so a response
                // delivered to the wrong connection cannot go unnoticed.
                for (i, (t, auditor)) in conns.iter_mut().enumerate() {
                    let global = (w * per_worker + i) as u64;
                    let request_id = round * 1_000_000 + global + 1;
                    let mut nonce = [0u8; 32];
                    nonce[..8].copy_from_slice(&global.to_le_bytes());
                    nonce[8..16].copy_from_slice(&round.to_le_bytes());
                    let verified_size = auditor.latest(0).map(|cp| cp.body.size).unwrap_or(0);
                    t.send(
                        &Request::BatchAudit {
                            request_id,
                            nonce,
                            verified_size,
                        }
                        .to_wire(),
                    )
                    .expect("send");
                }
                // Phase 2: collect and fully verify.
                for (i, (t, auditor)) in conns.iter_mut().enumerate() {
                    let global = (w * per_worker + i) as u64;
                    let expected_id = round * 1_000_000 + global + 1;
                    let frame = t.recv().expect("recv");
                    let response = Response::from_wire(&frame).expect("decode");
                    let Response::AuditBundle(bundle) = response else {
                        panic!("expected audit bundle, got {response:?}");
                    };
                    assert_eq!(
                        bundle.request_id, expected_id,
                        "cross-client response mix-up (worker {w}, conn {i}, round {round})"
                    );
                    // The report is clean: bundle verifies and matches the
                    // installed release's attested status.
                    assert!(
                        auditor.observe_bundle(0, &bundle.bundle).is_consistent(),
                        "auditor {global} flagged an honest domain"
                    );
                    let last = bundle.bundle.checkpoints.last().expect("non-empty");
                    assert_eq!(last.body.size, expected_status.log_size);
                    assert_eq!(last.body.head, expected_status.log_head);
                }
            }
            // Round 2 was served entirely from the verified prefix: one
            // signature verified per auditor in total, never two.
            for (_, auditor) in &conns {
                let cache = auditor.prefix_cache(0).expect("domain 0");
                assert_eq!(cache.signatures_verified(), 1);
                assert!(cache.skipped() >= 1);
            }
        }));
    }
    for j in joins {
        j.join().expect("worker panicked");
    }
    host.shutdown();
}

#[test]
fn many_concurrent_submitters() {
    let n_domains = 3;
    let deployment = Arc::new(
        Deployment::launch(analytics::app_spec(n_domains), b"concurrency seed").expect("launch"),
    );
    let dims = 2;
    let threads = 6;
    let per_thread = 10u64;

    let mut joins = Vec::new();
    for t in 0..threads {
        let deployment = Arc::clone(&deployment);
        joins.push(std::thread::spawn(move || {
            let mut client = deployment.client(format!("client {t}").as_bytes());
            let mut session = client.session(TrustPolicy::audited());
            let analytics_client = AnalyticsClient::new(dims);
            let mut rng = HmacDrbg::new(b"thread rng", &[t as u8]);
            for i in 0..per_thread {
                analytics_client
                    .submit(&mut session, &[1, i], &mut rng)
                    .expect("submit");
            }
        }));
    }
    for j in joins {
        j.join().expect("thread panicked");
    }

    // All submissions landed exactly once on every domain.
    let mut analyst_client = deployment.client(b"analyst");
    let mut analyst = analyst_client.session(TrustPolicy::audited());
    let analytics_client = AnalyticsClient::new(dims);
    let (totals, count) = analytics_client.aggregate(&mut analyst).expect("aggregate");
    assert_eq!(count, threads as u64 * per_thread);
    assert_eq!(totals[0], threads as u64 * per_thread);
    let per_thread_sum: u64 = (0..per_thread).sum();
    assert_eq!(totals[1], threads as u64 * per_thread_sum);
}

#[test]
fn concurrent_audits_and_calls() {
    let deployment = Arc::new(
        Deployment::launch(analytics::app_spec(3), b"audit concurrency seed").expect("launch"),
    );
    let digest = deployment.initial_app_digest;
    let mut joins = Vec::new();
    // Three auditors and three submitters at once.
    for t in 0..3 {
        let deployment = Arc::clone(&deployment);
        joins.push(std::thread::spawn(move || {
            let mut client = deployment.client(format!("auditor {t}").as_bytes());
            for _ in 0..5 {
                let report = client.audit(Some(&digest));
                assert!(report.is_clean(), "{report:?}");
            }
        }));
    }
    for t in 0..3 {
        let deployment = Arc::clone(&deployment);
        joins.push(std::thread::spawn(move || {
            let mut client = deployment.client(format!("submitter {t}").as_bytes());
            let mut session = client.session(TrustPolicy::audited());
            let analytics_client = AnalyticsClient::new(1);
            let mut rng = HmacDrbg::new(b"s", &[t as u8]);
            for _ in 0..10 {
                analytics_client
                    .submit(&mut session, &[1], &mut rng)
                    .expect("submit");
            }
        }));
    }
    for j in joins {
        j.join().expect("thread panicked");
    }
}

#[test]
fn event_loop_sustains_1000_concurrent_clients() {
    // 1000 connections held open simultaneously, multiplexed on a fixed
    // pool: 4 reactor threads + 1 accept thread, far under the 1000 OS
    // threads a blocking server would need.
    let service = |frame: &[u8]| {
        let req = u64::from_wire(frame).expect("request decodes");
        Some((req.wrapping_mul(31) ^ 0xd15).to_wire())
    };
    let mut server = FrameServer::spawn(Arc::new(service), 4).expect("spawn");
    let addr = server.local_addr();

    let workers = 8usize;
    // 8 × 125 = 1000 concurrent connections, scaled down only when the fd
    // budget is too tight (stock 1024-fd boxes) to hold 2000 sockets plus
    // the process's own files.
    let mut per_worker = 125usize;
    if let Some(limit) = max_open_files() {
        let budget = limit.saturating_sub(200) / 2 / workers;
        if budget < per_worker {
            per_worker = budget.max(1);
            eprintln!(
                "fd limit {limit}: scaling to {} concurrent clients",
                workers * per_worker
            );
        }
    }
    let rounds = 3u64;
    let barrier = Arc::new(Barrier::new(workers));

    let mut joins = Vec::new();
    for w in 0..workers {
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let mut clients: Vec<_> = (0..per_worker)
                .map(|_| TcpTransport::connect(addr).expect("connect"))
                .collect();
            // All 1000 connections are open before any traffic flows.
            barrier.wait();
            for round in 0..rounds {
                for (i, client) in clients.iter_mut().enumerate() {
                    let req = (w * per_worker + i) as u64 * 10 + round;
                    client.send(&req.to_wire()).expect("send");
                    let resp = u64::from_wire(&client.recv().expect("recv")).expect("decode");
                    assert_eq!(resp, req.wrapping_mul(31) ^ 0xd15);
                }
            }
        }));
    }
    for j in joins {
        j.join().expect("worker panicked");
    }
    server.shutdown();
}

/// Fan-out under partial failure: one domain dies mid-session. A
/// `Threshold(t)` quorum keeps succeeding from the survivors; an `All`
/// fan-out reports exactly the dead domain (as a connection loss, not an
/// application error) while still returning every live domain's answer.
#[test]
fn fanout_tolerates_domain_death_mid_session() {
    use distrust::core::session::{DomainOutcome, FanoutCall, QuorumPolicy};

    let mut deployment =
        Deployment::launch(analytics::app_spec(4), b"fanout partial failure seed").expect("launch");
    let mut client = deployment.client(b"fanout user");
    let mut session = client.session(TrustPolicy::pinned(deployment.initial_app_digest));

    // Healthy deployment: an All fan-out reaches all four domains. (This
    // also runs the gating audit while everyone is still alive.)
    let report = session
        .fanout(&FanoutCall::broadcast(analytics::METHOD_COUNT, Vec::new()))
        .expect("fanout");
    assert!(report.satisfied, "{report:?}");
    assert_eq!(report.ok_count(), 4);

    // Kill domain 2 mid-session.
    deployment.shutdown_domain(2);

    // Threshold(3) still succeeds: the three survivors answer and the
    // dead domain's silence costs nothing but its own outcome slot.
    let report = session
        .fanout(
            &FanoutCall::broadcast(analytics::METHOD_COUNT, Vec::new())
                .quorum(QuorumPolicy::Threshold(3)),
        )
        .expect("fanout");
    assert!(report.satisfied, "{report:?}");
    assert!(report.ok_count() >= 3, "{report:?}");
    assert!(
        !report.outcomes[2].is_ok(),
        "dead domain cannot have answered: {report:?}"
    );

    // All reports exactly the dead domain — per-domain outcomes, not a
    // first-error bail-out, and the loss is distinguishable from an
    // application error.
    let report = session
        .fanout(&FanoutCall::broadcast(analytics::METHOD_COUNT, Vec::new()))
        .expect("fanout");
    assert!(!report.satisfied);
    assert!(matches!(
        report.require(),
        Err(distrust::core::ClientError::QuorumNotMet {
            satisfied: 3,
            required: 4
        })
    ));
    for d in [0u32, 1, 3] {
        assert!(
            report.outcomes[d as usize].is_ok(),
            "live domain {d}: {report:?}"
        );
    }
    assert!(
        matches!(
            &report.outcomes[2],
            DomainOutcome::ConnectionLost(_) | DomainOutcome::Failed(_)
        ),
        "dead domain outcome: {:?}",
        report.outcomes[2]
    );

    // The session as a whole keeps working for quorum-tolerant apps.
    let report = session
        .fanout(
            &FanoutCall::broadcast(analytics::METHOD_COUNT, Vec::new())
                .quorum(QuorumPolicy::Threshold(1)),
        )
        .expect("fanout");
    assert!(report.satisfied);
}

#[test]
fn update_during_traffic_is_atomic() {
    // Clients calling during an update see either v1 or v2 behaviour,
    // never an error from a half-applied update; afterwards all domains
    // converge on v2.
    use distrust::core::abi::{AppHost, HANDLE_EXPORT, OUTBOX_ADDR};
    use distrust::core::{AppSpec, NoImports};
    use distrust::sandbox::{FuncBuilder, Limits, Module, ModuleBuilder};

    fn versioned(version: u64) -> Module {
        let mut mb = ModuleBuilder::new(1, 1);
        let mut f = FuncBuilder::new(3, 0, 1);
        f.constant(OUTBOX_ADDR)
            .constant(version)
            .store8(0)
            .constant(1)
            .ret();
        let idx = mb.function(f.build().unwrap());
        mb.export(HANDLE_EXPORT, idx);
        mb.build()
    }

    let spec = AppSpec {
        name: "atomic".into(),
        module: versioned(1),
        notes: "v1".into(),
        hosts: (0..2)
            .map(|_| Box::new(NoImports) as Box<dyn AppHost>)
            .collect(),
        limits: Limits::default(),
    };
    let deployment = Arc::new(Deployment::launch(spec, b"atomic seed").expect("launch"));

    let mut joins = Vec::new();
    // Callers hammer both domains.
    for t in 0..4 {
        let deployment = Arc::clone(&deployment);
        joins.push(std::thread::spawn(move || {
            let mut client = deployment.client(format!("caller {t}").as_bytes());
            for i in 0..50 {
                let out = app_call(&mut client, i % 2, 1, b"").expect("call never errors");
                assert!(out == vec![1] || out == vec![2], "saw {out:?}");
            }
        }));
    }
    // The developer pushes v2 mid-traffic.
    {
        let deployment = Arc::clone(&deployment);
        joins.push(std::thread::spawn(move || {
            let release = deployment.sign_release(2, "v2", &versioned(2));
            let mut client = deployment.client(b"developer");
            for r in client.push_update(&release) {
                r.expect("update accepted");
            }
        }));
    }
    for j in joins {
        j.join().expect("thread panicked");
    }
    // Convergence.
    let mut client = deployment.client(b"final check");
    for d in 0..2 {
        assert_eq!(app_call(&mut client, d, 1, b"").unwrap(), vec![2]);
    }
}
