//! Concurrency benchmark for the wire layer: p50/p99 request latency at
//! 100 / 1000 / 4000 concurrent connections against one [`FrameServer`]
//! (fixed pool of 4 reactor threads + 1 accept thread).
//!
//! Custom harness (`harness = false`): a mean over iterations of one call
//! cannot express "open N sockets, keep them all live, report tail
//! latency". Requests are pipelined per worker — every connection has a
//! request in flight before any response is read — so the numbers include
//! real queueing, not just lone round-trips. Results are printed as a table
//! and appended to `bench_results/wire_concurrency.json`.

use distrust_wire::codec::{Decode, Encode};
use distrust_wire::server::FrameServer;
use distrust_wire::transport::{max_open_files, TcpTransport, Transport};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CLIENT_COUNTS: &[usize] = &[100, 1000, 4000];
const WORKERS: usize = 8;
const WARMUP_ROUNDS: usize = 1;
const MEASURED_ROUNDS: usize = 5;
const REACTOR_THREADS: usize = 4;

fn handler(req: u64) -> u64 {
    req.wrapping_mul(0x9e37_79b9) ^ 0x5bd1
}

/// The served frame protocol: a wire-encoded `u64` in, `handler` of it
/// out; an undecodable request gets an empty frame.
fn service(frame: &[u8]) -> Option<Vec<u8>> {
    Some(u64::from_wire(frame).map_or_else(|_| Vec::new(), |req| handler(req).to_wire()))
}

/// One worker: `conns` connections, pipelined send-all-then-recv-all
/// rounds, per-request latency in nanoseconds.
fn worker(
    addr: SocketAddr,
    conns: usize,
    barrier: Arc<Barrier>,
) -> std::thread::JoinHandle<Vec<u64>> {
    std::thread::spawn(move || {
        let mut transports: Vec<TcpTransport> = (0..conns)
            .map(|_| TcpTransport::connect(addr).expect("connect"))
            .collect();
        let mut latencies = Vec::with_capacity(conns * MEASURED_ROUNDS);
        let mut sent_at = vec![Instant::now(); conns];
        barrier.wait();
        for round in 0..WARMUP_ROUNDS + MEASURED_ROUNDS {
            for (i, t) in transports.iter_mut().enumerate() {
                let req = (round * conns + i) as u64;
                sent_at[i] = Instant::now();
                t.send(&req.to_wire()).expect("send");
            }
            for (i, t) in transports.iter_mut().enumerate() {
                let frame = t.recv().expect("recv");
                let elapsed = sent_at[i].elapsed();
                let resp = u64::from_wire(&frame).expect("decode");
                let req = (round * conns + i) as u64;
                assert_eq!(resp, handler(req));
                if round >= WARMUP_ROUNDS {
                    latencies.push(elapsed.as_nanos() as u64);
                }
            }
        }
        latencies
    })
}

struct Row {
    clients: usize,
    requests: usize,
    p50: Duration,
    p99: Duration,
    throughput: f64,
}

fn percentile(sorted: &[u64], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    Duration::from_nanos(sorted[idx])
}

fn run(clients: usize) -> Row {
    let mut server = FrameServer::spawn(Arc::new(service), REACTOR_THREADS).expect("spawn server");
    let addr = server.local_addr();
    let barrier = Arc::new(Barrier::new(WORKERS));
    let started = Instant::now();
    // Distribute the remainder so exactly `clients` connections open.
    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let per_worker = clients / WORKERS + usize::from(w < clients % WORKERS);
            worker(addr, per_worker, Arc::clone(&barrier))
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("worker"));
    }
    let wall = started.elapsed();
    server.shutdown();
    latencies.sort_unstable();
    Row {
        clients,
        requests: latencies.len(),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        throughput: latencies.len() as f64 / wall.as_secs_f64(),
    }
}

fn main() {
    // `cargo bench` passes harness flags like `--bench`; nothing to parse.
    let fd_budget = max_open_files().map(|limit| limit.saturating_sub(200) / 2);
    let mut rows = Vec::new();
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12}",
        "clients", "requests", "p50", "p99", "req/s"
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
            "{:>8} {:>10} {:>10.2?} {:>10.2?} {:>12.0}",
            row.clients, row.requests, row.p50, row.p99, row.throughput
        );
        rows.push(row);
    }
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"clients\": {}, \"requests\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"req_per_s\": {:.0}}}",
                r.clients,
                r.requests,
                r.p50.as_secs_f64() * 1e6,
                r.p99.as_secs_f64() * 1e6,
                r.throughput
            )
        })
        .collect();
    distrust_bench::report::write(
        "wire_concurrency",
        &format!("[\n{}\n]\n", entries.join(",\n")),
    );
}
