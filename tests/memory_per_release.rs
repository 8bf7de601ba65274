//! What a release, an audit and a signature leave behind in memory.
//!
//! A deployment's memory may grow with *releases* — every release adds a
//! log leaf and an update notice on each domain (its signed epochs sit in
//! a fixed ring; an auditing client's checkpoints in a fixed window) —
//! and with nothing else: an audit that finds no new release must retain
//! no byte, and neither may an application call (a signing domain once
//! kept every field element of every signature, ≈ 417 KB after the
//! first).
//! The benchmark's `rss_mb` on `audit_churn` is these per-release numbers
//! times the releases a run completes, so they are pinned here where they
//! can be counted exactly: live heap bytes as the allocator hands them
//! out, on the measuring thread only. Resident memory is that plus the
//! allocator's rounding, which this test does not see; run with
//! `--nocapture` for the numbers.
//!
//! Two kinds of table are one-off costs and are not per-release memory.
//! The generator's two tables are statics, built on first use and kept
//! for the life of the process: 106 496 bytes for the spaced one (1 024
//! affine points of 104 bytes) and 13 312 for the spacing-1 one (128
//! points). And an auditing client keeps one table of each domain's pinned
//! checkpoint key and one of each attested domain's device key (53 248
//! bytes, 512 points, apiece), built during its first audits; the client
//! test counts every table the warm-up built and bounds what they took by
//! that count.
//!
//! A client remembers a window of checkpoints per domain (the
//! `WINDOW_BELOW` sizes ending at its latest, `distrust::log::auditor`),
//! so once that window is full a release costs it nothing: the client is
//! measured after its warm-up has filled it.

use distrust::apps::analytics;
use distrust::apps::threshold_signer::{signer_module, SignerHost, METHOD_SIGN};
use distrust::core::abi::{app_call, import_names, NoImports};
use distrust::core::framework::{EnclaveFramework, FrameworkConfig};
use distrust::core::{Deployment, SignedRelease};
use distrust::crypto::schnorr::SigningKey;
use distrust::log::auditor::WINDOW_BELOW;
use distrust::log::checkpoint::log_id;
use distrust::log::{DurableOptions, StorageConfig};
use distrust::sandbox::guests::counter_module;
use distrust::sandbox::{Instance, Limits};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated minus bytes it has freed. Plain
    /// data with a constant initialiser: reading it never allocates and
    /// it has no destructor to run at thread exit.
    static THREAD_NET: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's net live bytes.
struct CountingAllocator;

fn count(delta: i64) {
    let _ = THREAD_NET.try_with(|net| net.set(net.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the bookkeeping touches only a
// thread-local integer and cannot allocate or unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` for this `layout`, as the
        // caller of `dealloc` guarantees for the allocator it came from.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same block, same layout, caller-checked `new_size`.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn live_bytes() -> i64 {
    THREAD_NET.with(Cell::get)
}

/// Releases applied before anything is measured, so one-off set-up
/// (connections, first table allocations) is behind us.
const WARM_RELEASES: u64 = 32;
/// Releases a per-release figure is averaged over: enough that the
/// doubling of a `Vec` or hash table lands inside the window as often as
/// it does in a long run.
const MEASURED_RELEASES: u64 = 96;

/// Most heap a domain may retain per release (235 bytes today): the log
/// leaf and its hashes and the update notice, both as bytes appended to
/// one buffer, and the containers' spare capacity. The signed epoch is not
/// among them — a 1-shard domain keeps its newest 65 in a ring allocated
/// at boot — and a `Vec` of every epoch ever signed (160 bytes each, up to
/// twice that after a doubling), or a notice kept as a struct with two
/// heap strings, is what this bound would catch coming back.
const DOMAIN_BYTES_PER_RELEASE: i64 = 320;
/// Releases an auditing client sees before it is measured: enough to
/// fill its window of remembered checkpoints, and the warm-up.
const CLIENT_WARM_RELEASES: u64 = WINDOW_BELOW + WARM_RELEASES;
/// Most heap an auditing client of an n = 3 deployment may retain per
/// release once its window is full (0 bytes today): a checkpoint in per
/// domain and one out. Before the window was bounded it kept every
/// checkpoint, 504 bytes a release against a bound of 640, and a
/// doubling vector read 1008 bytes here.
const CLIENT_BYTES_PER_RELEASE: i64 = 16;
/// Most heap one kept key table may take in an auditing client (53 248
/// bytes of points today), counted over the audits that built the
/// tables.
const KEPT_TABLE_BYTES: i64 = 60_000;

#[test]
fn a_domain_retains_a_bounded_amount_per_release() {
    let developer = SigningKey::derive(b"memory test", b"developer");
    let dir = std::env::temp_dir().join(format!("distrust-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut framework = EnclaveFramework::open(
        FrameworkConfig {
            domain_index: 0,
            app_name: "counter".into(),
            developer_key: developer.verifying_key(),
            log_id: log_id(b"memory test", 0),
            limits: Limits::default(),
            log_shards: 1,
            storage: StorageConfig::Durable(DurableOptions::new(&dir)),
        },
        None,
        SigningKey::derive(b"memory test", b"checkpoint"),
        Box::new(NoImports),
    )
    .expect("open");
    let mut apply = |version: u64| {
        let release = SignedRelease::create(
            "counter",
            version,
            "release notes",
            &counter_module(version),
            &developer,
        );
        framework.apply_update(&release).expect("release accepted");
    };
    (1..=WARM_RELEASES).for_each(&mut apply);
    let before = live_bytes();
    (WARM_RELEASES + 1..=WARM_RELEASES + MEASURED_RELEASES).for_each(&mut apply);
    let per_release = (live_bytes() - before) / MEASURED_RELEASES as i64;
    println!("domain: {per_release} live heap bytes retained per release");
    drop(framework);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        (0..=DOMAIN_BYTES_PER_RELEASE).contains(&per_release),
        "a domain retains {per_release} bytes per release"
    );
}

#[test]
fn an_auditing_client_retains_nothing_per_audit_and_a_bounded_amount_per_release() {
    let mut deployment =
        Deployment::launch(analytics::app_spec(3), b"memory test").expect("launch");
    let mut developer = deployment.client(b"developer");
    let mut auditor = deployment.client(b"auditor");
    let mut version = 1;
    let mut push = |deployment: &Deployment| {
        version += 1;
        let release = deployment.sign_release(version, "notes", &counter_module(version));
        for ack in developer.push_update(&release) {
            ack.expect("release accepted");
        }
    };
    // Bytes retained across `audit` calls only: the developer's pushes run
    // on this thread too and are not the auditor's memory.
    let audit = |auditor: &mut distrust::core::DeploymentClient| {
        let before = live_bytes();
        let report = auditor.audit(None);
        assert!(report.is_clean(), "{report:?}");
        drop(report);
        live_bytes() - before
    };
    // The warm-up builds the kept key tables, a one-off cost, and fills
    // the window.
    let mut building = 0;
    for _ in 0..CLIENT_WARM_RELEASES {
        push(&deployment);
        let tables = auditor.kept_key_tables();
        let retained = audit(&mut auditor);
        if auditor.kept_key_tables() > tables {
            building += retained;
        }
    }
    let domains = &auditor.descriptor().domains;
    let n = domains.len();
    let attested = domains.iter().filter(|d| d.vendor.is_some()).count();
    let tables = auditor.kept_key_tables();
    println!(
        "client (n = {n}): audits that built {tables} kept key tables retained {building} bytes"
    );
    assert_eq!(
        tables,
        n + attested,
        "every pinned checkpoint key's and every device key's table built"
    );
    assert!(
        building <= tables as i64 * KEPT_TABLE_BYTES,
        "the audits that built {tables} kept key tables retained {building} bytes"
    );

    // No release, no growth — exactly.
    audit(&mut auditor);
    let idle: Vec<i64> = (0..16).map(|_| audit(&mut auditor)).collect();
    println!("client: live heap bytes retained by each of 16 audits with no release: {idle:?}");
    assert!(
        idle.iter().all(|&bytes| bytes == 0),
        "audits that found nothing new retained memory: {idle:?}"
    );

    let mut retained = 0;
    for _ in 0..MEASURED_RELEASES {
        push(&deployment);
        retained += audit(&mut auditor);
    }
    let per_release = retained / MEASURED_RELEASES as i64;
    println!("client (n = 3): {per_release} live heap bytes retained per release");
    deployment.shutdown();
    assert!(
        (0..=CLIENT_BYTES_PER_RELEASE).contains(&per_release),
        "an auditing client retains {per_release} bytes per release"
    );
}

#[test]
fn a_signing_domain_retains_nothing_per_signature() {
    let mut rng = distrust::crypto::drbg::HmacDrbg::new(b"memory test", b"dealer");
    let keys = distrust::crypto::threshold::generate(2, 3, &mut rng).expect("keygen");
    let module = signer_module();
    let names = import_names(&module);
    let mut instance = Instance::new(module, Limits::default()).expect("valid module");
    let mut host = SignerHost::new(keys.shares[0]);
    let mut sign = |i: u32| {
        let partial = app_call(
            &mut instance,
            &names,
            &mut host,
            METHOD_SIGN,
            &i.to_le_bytes(),
        );
        assert_eq!(partial.expect("signed").len(), 48);
    };
    sign(0);
    let before = live_bytes();
    (1..=64).for_each(&mut sign);
    let retained = live_bytes() - before;
    println!("signer: {retained} live heap bytes retained by 64 signatures");
    assert_eq!(retained, 0, "64 signatures retained {retained} bytes");
    // The host's state is its share and a fixed register file.
    assert!(std::mem::size_of::<SignerHost>() <= 1024);
}
