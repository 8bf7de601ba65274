//! An idle reactor thread sleeps in the kernel.
//!
//! A reactor thread holding one quiet connection must not wake on a timer.
//! The test counts the voluntary context switches of that `wire-reactor`
//! thread, read from Linux's `/proc`, so it has a test target to itself:
//! no other test's threads share the process.

use distrust_wire::{FrameService, Reactor, TcpTransport, Transport};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Voluntary context switches so far of this process's thread `name`.
fn voluntary_switches(name: &str) -> u64 {
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let dir = task.expect("task entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end() != name {
            continue;
        }
        let status = std::fs::read_to_string(dir.join("status")).expect("task status");
        let count = status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .expect("status has voluntary_ctxt_switches");
        return count.trim().parse().expect("a count");
    }
    panic!("no thread named {name}");
}

#[test]
fn an_idle_connection_does_not_wake_its_reactor_thread() {
    let service: FrameService = Arc::new(|frame: &[u8]| Some(frame.to_vec()));
    let mut reactor = Reactor::spawn(service, 1).unwrap();
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    reactor
        .handle()
        .register(listener.accept().unwrap().0)
        .unwrap();
    // One exchange: the connection is in the thread's wait set.
    let mut client = TcpTransport::new(stream).unwrap();
    client.send(b"adopted").unwrap();
    assert_eq!(client.recv().unwrap(), b"adopted");

    std::thread::sleep(Duration::from_millis(50));
    let before = voluntary_switches("wire-reactor-0");
    std::thread::sleep(Duration::from_millis(500));
    let woken = voluntary_switches("wire-reactor-0") - before;
    assert!(
        woken <= 2,
        "the idle reactor thread woke {woken} times in 500 ms"
    );
    reactor.shutdown();
}
