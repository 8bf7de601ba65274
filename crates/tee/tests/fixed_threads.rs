//! An enclave host runs a fixed number of threads, however many clients
//! it serves.
//!
//! The test reads the process's thread count from Linux's `/proc`, so it
//! has a test target to itself: no other test's threads share the
//! process.

use distrust_tee::EnclaveHost;
use distrust_wire::{TcpTransport, Transport};

/// What an enclave host runs: two frame servers (proxy and interior), each
/// one accept thread and one reactor thread.
const HOST_THREADS: usize = 4;

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let count = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("status has Threads");
    count.trim().parse().expect("a count")
}

#[test]
fn clients_add_no_threads_to_an_enclave_host() {
    let before = threads();
    let mut host = EnclaveHost::spawn(|request: Vec<u8>| request).unwrap();
    let mut clients: Vec<TcpTransport> = (0..64)
        .map(|_| TcpTransport::connect(host.addr()).unwrap())
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let request = [i as u8; 8];
        client.send(&request).unwrap();
        assert_eq!(client.recv().unwrap(), request);
    }
    let added = threads() - before;
    assert!(
        added <= HOST_THREADS,
        "64 clients of one enclave host: {added} threads added"
    );
    host.shutdown();
}
