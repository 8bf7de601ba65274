//! Audit throughput benchmark: full audit rounds per second at 100 / 1000
//! concurrent auditing clients over `BatchAudit` — one round-trip built
//! from the host's signed epochs, verified client-side through the
//! auditor's verified-prefix cache.
//!
//! Custom harness (`harness = false`), same shape as `wire_concurrency`:
//! N connections held open against one `DirectHost`-served trust domain,
//! requests pipelined per worker so every connection has an audit in
//! flight. Each connection is an independent auditor with its own
//! [`Auditor`] state — client-side verification cost is inside the
//! measurement, exactly as it would be for real clients. Results are
//! printed as a table and written to `bench_results/audit_throughput.json`.

use distrust_core::abi::NoImports;
use distrust_core::framework::{EnclaveFramework, FrameworkConfig, FrameworkService};
use distrust_core::protocol::{Request, Response};
use distrust_core::server::DirectHost;
use distrust_core::SignedRelease;
use distrust_crypto::schnorr::{SigningKey, VerifyingKey};
use distrust_log::auditor::Auditor;
use distrust_log::checkpoint::log_id;
use distrust_log::StorageConfig;
use distrust_sandbox::guests::counter_module;
use distrust_sandbox::Limits;
use distrust_wire::codec::{Decode, Encode};
use distrust_wire::transport::{max_open_files, TcpTransport, Transport};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CLIENT_COUNTS: &[usize] = &[100, 1000];
const WORKERS: usize = 8;
const WARMUP_ROUNDS: usize = 1;
const MEASURED_ROUNDS: usize = 5;
/// Epochs (updates) installed before the measurement.
const EPOCHS: u64 = 4;

fn checkpoint_key() -> SigningKey {
    SigningKey::derive(b"audit bench", b"checkpoint")
}

/// One trust domain, audited to death: a real framework with `EPOCHS`
/// installed releases behind the event-loop host.
fn spawn_domain() -> DirectHost {
    let dev = SigningKey::derive(b"audit bench", b"developer");
    let mut fw = EnclaveFramework::open(
        FrameworkConfig {
            domain_index: 0,
            app_name: "audited".into(),
            developer_key: dev.verifying_key(),
            log_id: log_id(b"audit-bench", 0),
            limits: Limits::default(),
            log_shards: 1,
            storage: StorageConfig::Ephemeral,
        },
        None,
        checkpoint_key(),
        Box::new(NoImports),
    )
    .expect("ephemeral framework opens");
    for v in 1..=EPOCHS {
        let release = SignedRelease::create("audited", v, "", &counter_module(v), &dev);
        fw.apply_update(&release).expect("release applies");
    }
    DirectHost::spawn(FrameworkService::new(fw)).expect("spawn host")
}

/// One auditing connection: transport + this client's own audit state.
struct AuditorConn {
    transport: TcpTransport,
    auditor: Auditor,
    nonce_seq: u64,
}

impl AuditorConn {
    fn connect(addr: SocketAddr, key: VerifyingKey) -> Self {
        Self {
            transport: TcpTransport::connect(addr).expect("connect"),
            auditor: Auditor::new(vec![key]),
            nonce_seq: 0,
        }
    }

    fn nonce(&mut self) -> [u8; 32] {
        self.nonce_seq += 1;
        let mut n = [0u8; 32];
        n[..8].copy_from_slice(&self.nonce_seq.to_le_bytes());
        n
    }
}

/// One full audit round for every connection of a worker, pipelined:
/// send on all connections, then collect all responses, so the host
/// always has a queue to chew through. Returns per-connection
/// whole-audit latencies.
fn audit_round(conns: &mut [AuditorConn]) -> Vec<u64> {
    let mut started = Vec::with_capacity(conns.len());
    for (i, c) in conns.iter_mut().enumerate() {
        started.push(Instant::now());
        let nonce = c.nonce();
        let verified_size = c.auditor.latest(0).map(|cp| cp.body.size).unwrap_or(0);
        c.transport
            .send(
                &Request::BatchAudit {
                    request_id: i as u64 + 1,
                    nonce,
                    verified_size,
                }
                .to_wire(),
            )
            .expect("send batch audit");
    }
    let mut latencies = Vec::with_capacity(conns.len());
    for ((i, c), started) in conns.iter_mut().enumerate().zip(&started) {
        let frame = c.transport.recv().expect("recv batch audit");
        let resp = Response::from_wire(&frame).expect("decode");
        let Response::AuditBundle(bundle) = resp else {
            panic!("expected audit bundle");
        };
        assert_eq!(bundle.request_id, i as u64 + 1, "response matches request");
        assert!(c.auditor.observe_bundle(0, &bundle.bundle).is_consistent());
        latencies.push(started.elapsed().as_nanos() as u64);
    }
    latencies
}

struct Row {
    clients: usize,
    audits: usize,
    p50: Duration,
    p99: Duration,
    throughput: f64,
    sig_verifies_per_conn: u64,
    skips_per_conn: u64,
}

fn percentile(sorted: &[u64], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    Duration::from_nanos(sorted[idx])
}

fn run(clients: usize) -> Row {
    let mut host = spawn_domain();
    let addr = host.addr();
    let key = checkpoint_key().verifying_key();
    let barrier = Arc::new(Barrier::new(WORKERS));
    let measured_start = Arc::new(Barrier::new(WORKERS));
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let per_worker = clients / WORKERS + usize::from(w < clients % WORKERS);
            let barrier = Arc::clone(&barrier);
            let measured_start = Arc::clone(&measured_start);
            std::thread::spawn(move || {
                let mut conns: Vec<AuditorConn> = (0..per_worker)
                    .map(|_| AuditorConn::connect(addr, key))
                    .collect();
                barrier.wait();
                // Warmup (first observation: full verification) happens
                // outside the measured window.
                for _ in 0..WARMUP_ROUNDS {
                    audit_round(&mut conns);
                }
                measured_start.wait();
                let started = Instant::now();
                let mut latencies = Vec::with_capacity(per_worker * MEASURED_ROUNDS);
                for _ in 0..MEASURED_ROUNDS {
                    latencies.extend(audit_round(&mut conns));
                }
                let measured_wall = started.elapsed();
                let (sigs, skips) = conns
                    .first()
                    .map(|c| {
                        let cache = c.auditor.prefix_cache(0).expect("domain 0");
                        (cache.signatures_verified(), cache.skipped())
                    })
                    .unwrap_or((0, 0));
                (latencies, measured_wall, sigs, skips)
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    let mut wall = Duration::ZERO;
    let mut sig_verifies_per_conn = 0;
    let mut skips_per_conn = 0;
    for h in handles {
        let (lat, measured_wall, sigs, skips) = h.join().expect("worker");
        latencies.extend(lat);
        // Workers start the measured phase together; the slowest one
        // defines the wall clock.
        wall = wall.max(measured_wall);
        sig_verifies_per_conn = sigs;
        skips_per_conn = skips;
    }
    host.shutdown();
    latencies.sort_unstable();
    Row {
        clients,
        audits: latencies.len(),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        throughput: latencies.len() as f64 / wall.as_secs_f64(),
        sig_verifies_per_conn,
        skips_per_conn,
    }
}

fn main() {
    let fd_budget = max_open_files().map(|limit| limit.saturating_sub(200) / 2);
    let mut rows = Vec::new();
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "clients", "audits", "p50", "p99", "audits/s", "sigs/conn", "skipped"
    );
    for &requested in CLIENT_COUNTS {
        let clients = match fd_budget {
            Some(budget) if budget < requested => {
                eprintln!("fd limit: scaling {requested} clients down to {budget}");
                budget
            }
            _ => requested,
        };
        if clients < WORKERS {
            eprintln!("fd limit too tight for {requested} clients; skipping");
            continue;
        }
        let row = run(clients);
        println!(
            "{:>8} {:>8} {:>10.2?} {:>10.2?} {:>10.0} {:>10} {:>8}",
            row.clients,
            row.audits,
            row.p50,
            row.p99,
            row.throughput,
            row.sig_verifies_per_conn,
            row.skips_per_conn
        );
        rows.push(row);
    }
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"clients\": {}, \"audits\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"audits_per_s\": {:.0}, \"sig_verifies_per_conn\": {}, \"skipped_verifications_per_conn\": {}}}",
                r.clients,
                r.audits,
                r.p50.as_secs_f64() * 1e6,
                r.p99.as_secs_f64() * 1e6,
                r.throughput,
                r.sig_verifies_per_conn,
                r.skips_per_conn
            )
        })
        .collect();
    distrust_bench::report::write(
        "audit_throughput",
        &format!("[\n{}\n]\n", entries.join(",\n")),
    );
}
