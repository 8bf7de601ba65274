//! Crash-recovery: the durable store must make a restart indistinguishable
//! from a pause, for any way the process can die.
//!
//! Two layers are exercised. At the **log** layer, a kill-at-every-offset
//! matrix truncates (and bit-flips) the on-disk segment bytes and asserts
//! the invariant the recovery algorithm promises: the recovered head
//! equals the head of some *prefix* of the pre-crash history — never a panic, never a root the log did not once have. At the
//! **framework** layer, a restarted domain must resume its *signed*
//! history: the persisted genesis/epoch checkpoints are reused (re-signing
//! would look like equivocation), so an auditing client holding the
//! pre-crash head sees ordinary growth.

mod common;

use common::{
    digest_hex, epoch_record, pinned_checkpoint_key, pinned_config, pinned_domain, pinned_release,
};
use distrust::core::abi::{AppHost, NoImports, HANDLE_EXPORT, OUTBOX_ADDR};
use distrust::core::framework::{EnclaveFramework, FrameworkConfig};
use distrust::core::{AppSpec, Deployment, Request, Response, SignedRelease};
use distrust::crypto::schnorr::SigningKey;
use distrust::log::auditor::{AuditOutcome, Auditor};
use distrust::log::checkpoint::{log_id, CheckpointBody, SignedCheckpoint};
use distrust::log::{
    DurableOptions, DurableStore, LogStore, MerkleLog, ShardedLog, StorageConfig, StoreError,
};
use distrust::sandbox::{FuncBuilder, Limits, Module, ModuleBuilder};
use std::path::{Path, PathBuf};

/// Method 1 returns `base + input[0]`.
fn adder_module(base: u64) -> Module {
    let mut mb = ModuleBuilder::new(1, 1);
    let mut f = FuncBuilder::new(3, 0, 1);
    f.constant(OUTBOX_ADDR)
        .lget(1)
        .load8(0)
        .constant(base)
        .add()
        .store8(0)
        .constant(1)
        .ret();
    let idx = mb.function(f.build().unwrap());
    mb.export(HANDLE_EXPORT, idx);
    mb.build()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "distrust-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &Path, segment_bytes: u64) -> StorageConfig {
    StorageConfig::Durable(DurableOptions {
        dir: dir.to_path_buf(),
        segment_bytes,
        fsync_every: 1,
    })
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// The log's segment files, in segment order.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".dlog"))
        })
        .collect();
    files.sort();
    files
}

/// Builds a durable log with enough leaves to span several segments,
/// returning its directory and a mirror of every prefix root:
/// `mirror.root_of_prefix(k)` is the head the log had at `k` leaves (what
/// a checkpoint signs IS the plain tree root, byte for byte — so this
/// doubles as the wire-format compatibility check).
fn seeded_log(tag: &str, leaves: usize) -> (PathBuf, MerkleLog) {
    let dir = tempdir(tag);
    let (log, meta) = ShardedLog::open(1, &durable(&dir, 192)).unwrap();
    assert!(meta.is_empty());
    let mut mirror = MerkleLog::new();
    for i in 0..leaves {
        let leaf = format!("leaf-{i:04}");
        log.append(0, leaf.as_bytes()).unwrap();
        mirror.append(leaf.as_bytes());
        assert_eq!(
            log.head(),
            ((i + 1) as u64, mirror.root_of_prefix(i + 1)),
            "the durable log must stay byte-compatible with the plain tree"
        );
    }
    (dir, mirror)
}

/// Opens the (possibly damaged) copy and asserts the recovery invariant:
/// some prefix of the pre-crash history, identical head, and the
/// log keeps working. Returns the recovered length.
fn assert_recovers_to_prefix(dir: &Path, mirror: &MerkleLog, context: &str) -> usize {
    let (log, _) = ShardedLog::open(1, &durable(dir, 192))
        .unwrap_or_else(|e| panic!("{context}: recovery must not fail: {e}"));
    let recovered = log.head().0 as usize;
    assert!(
        recovered <= mirror.len(),
        "{context}: recovered {recovered} leaves, only {} ever existed",
        mirror.len()
    );
    assert_eq!(
        log.head().1,
        mirror.root_of_prefix(recovered),
        "{context}: recovered root must be the exact pre-crash prefix root"
    );
    // The repaired log must accept appends and keep agreeing with a
    // mirror that took the same path.
    let mut extended = MerkleLog::new();
    for leaf in mirror.leaves_from(0, usize::MAX).unwrap().take(recovered) {
        extended.append(leaf);
    }
    log.append(0, b"post-crash").unwrap();
    extended.append(b"post-crash");
    assert_eq!(
        log.head().1,
        extended.root(),
        "{context}: post-repair append diverged"
    );
    recovered
}

#[test]
fn truncating_the_tail_at_every_byte_offset_recovers_a_prefix() {
    let (dir, mirror) = seeded_log("trunc", 28);
    let files = segment_files(&dir);
    assert!(
        files.len() >= 3,
        "need rotation: got {} segments",
        files.len()
    );
    let tail = files.last().unwrap();
    let tail_name = tail.file_name().unwrap().to_owned();
    let tail_len = std::fs::metadata(tail).unwrap().len();

    // Leaves safely inside sealed segments survive any tail damage.
    let sealed_floor = {
        let scratch = tempdir("trunc-floor");
        copy_dir(&dir, &scratch);
        std::fs::remove_file(scratch.join(&tail_name)).unwrap();
        let (log, _) = ShardedLog::open(1, &durable(&scratch, 192)).unwrap();
        let floor = log.head().0 as usize;
        let _ = std::fs::remove_dir_all(&scratch);
        floor
    };

    let scratch = tempdir("trunc-case");
    for cut in 0..tail_len {
        copy_dir(&dir, &scratch);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(scratch.join(&tail_name))
            .unwrap();
        file.set_len(cut).unwrap();
        drop(file);
        let recovered =
            assert_recovers_to_prefix(&scratch, &mirror, &format!("truncated tail at {cut}"));
        assert!(
            recovered >= sealed_floor,
            "truncating the tail at {cut} lost sealed history: {recovered} < {sealed_floor}"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipping_any_byte_anywhere_recovers_a_prefix() {
    let (dir, mirror) = seeded_log("flip", 28);
    let scratch = tempdir("flip-case");
    for file in segment_files(&dir) {
        let name = file.file_name().unwrap().to_owned();
        let len = std::fs::metadata(&file).unwrap().len();
        for at in 0..len {
            copy_dir(&dir, &scratch);
            let path = scratch.join(&name);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[at as usize] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            assert_recovers_to_prefix(&scratch, &mirror, &format!("bit flip in {name:?} at {at}"));
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir_all(&dir);
}

fn framework_config(dev: &SigningKey, storage: StorageConfig) -> FrameworkConfig {
    FrameworkConfig {
        domain_index: 0,
        app_name: "adder".into(),
        developer_key: dev.verifying_key(),
        log_id: log_id(b"crash", 0),
        limits: Limits::default(),
        log_shards: 1,
        storage,
    }
}

/// One audit of `fw` from wherever `auditor` stands.
fn observe(auditor: &mut Auditor, fw: &mut EnclaveFramework, id: u64) -> AuditOutcome {
    let verified_size = auditor.latest(0).map_or(0, |cp| cp.body.size);
    let request = Request::BatchAudit {
        request_id: id,
        nonce: [id as u8; 32],
        verified_size,
    };
    match fw.handle(request) {
        Response::AuditBundle(b) => auditor.observe_bundle(0, &b.bundle),
        other => panic!("expected an audit bundle, got {other:?}"),
    }
}

/// The satellite regression: restart a domain, then re-audit with a
/// client that verified the pre-crash head. Any re-signing of old history
/// (fresh genesis, shifted epoch) would surface as misbehavior here. Run
/// over one segment, and over segments small enough that the replay at
/// boot crosses a sealed one.
#[test]
fn restarted_domain_resumes_signed_history_one_shard() {
    for (segment_bytes, segments) in [(4 << 20, 1), (32, 2)] {
        let dir = tempdir(&format!("fw-restart-{segment_bytes}"));
        let storage = durable(&dir, segment_bytes);
        let dev = SigningKey::derive(b"crash", b"dev");
        let cp_key = SigningKey::derive(b"crash", b"cp");
        let mut auditor = Auditor::new(vec![cp_key.verifying_key()]);

        let (pre_size, pre_head) = {
            let mut fw = EnclaveFramework::open(
                framework_config(&dev, storage.clone()),
                None,
                cp_key,
                Box::new(NoImports),
            )
            .unwrap();
            let v1 = SignedRelease::create("adder", 1, "v1", &adder_module(100), &dev);
            fw.apply_update(&v1).expect("v1 applies");
            let v2 = SignedRelease::create("adder", 2, "v2", &adder_module(200), &dev);
            fw.apply_update(&v2).expect("v2 applies");
            assert!(
                observe(&mut auditor, &mut fw, 1).is_consistent(),
                "pre-crash audit must be clean"
            );
            let status = fw.status();
            (status.log_size, status.log_head)
        }; // domain crashes here
        assert_eq!(segment_files(&dir).len(), segments);

        let mut fw = EnclaveFramework::open(
            framework_config(&dev, storage),
            None,
            cp_key,
            Box::new(NoImports),
        )
        .expect("restart recovers");

        // The log resumed exactly where it crashed, and the version floor
        // survived even though the app instance did not.
        let status = fw.status();
        assert_eq!(status.log_size, pre_size, "restart changed the log size");
        assert_eq!(status.log_head, pre_head, "restart changed the log head");
        assert_eq!(
            fw.current_version(),
            2,
            "recovered notices must floor the version"
        );
        let replay = SignedRelease::create("adder", 2, "v2 again", &adder_module(200), &dev);
        assert!(
            matches!(
                fw.apply_update(&replay),
                Err(distrust::core::ReleaseError::StaleVersion {
                    current: 2,
                    offered: 2
                })
            ),
            "a replayed pre-crash version must stay stale after restart"
        );

        // The pre-crash auditor sees ordinary growth — no equivocation, no
        // rollback — both right after the restart and across a new release.
        assert!(
            observe(&mut auditor, &mut fw, 2).is_consistent(),
            "restart must look like a pause to an auditor holding the pre-crash head"
        );
        assert_eq!(auditor.latest(0).unwrap().body.size, pre_size);
        let v3 = SignedRelease::create("adder", 3, "v3", &adder_module(300), &dev);
        fw.apply_update(&v3).expect("post-restart update applies");
        assert!(
            observe(&mut auditor, &mut fw, 3).is_consistent(),
            "post-restart growth must chain onto the recovered history"
        );
        assert_eq!(auditor.latest(0).unwrap().body.size, pre_size + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// SHA-256 over every file of `dir`, sorted by name: the name, a zero
/// byte, the length and the contents.
fn directory_digest(dir: &Path) -> String {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let mut image = Vec::new();
    for file in files {
        let contents = std::fs::read(&file).unwrap();
        image.extend_from_slice(file.file_name().unwrap().to_str().unwrap().as_bytes());
        image.push(0);
        image.extend_from_slice(&(contents.len() as u64).to_le_bytes());
        image.extend_from_slice(&contents);
    }
    digest_hex(&image)
}

/// Six releases on the pinned domain over segments small enough to seal
/// two of them: the directory it leaves.
fn pinned_directory(tag: &str) -> (PathBuf, StorageConfig) {
    let dir = tempdir(tag);
    let storage = durable(&dir, 256);
    let mut domain = pinned_domain(storage.clone()).unwrap();
    for version in 1..=6 {
        domain.apply_update(&pinned_release(version)).unwrap();
    }
    (dir, storage)
}

#[test]
fn the_directory_a_domain_leaves_is_pinned_and_reopens() {
    // Recorded on the commit before the shard layer was deleted: file
    // names, segment headers, leaf and checkpoint records, trailers and
    // every meta record, bit for bit.
    let (dir, storage) = pinned_directory("pinned");
    let names: Vec<String> = segment_files(&dir)
        .iter()
        .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
        .collect();
    assert_eq!(
        names,
        [
            "shard-0000-seg-00000000.dlog",
            "shard-0000-seg-00000001.dlog"
        ],
        "two sealed segments"
    );
    assert_eq!(
        directory_digest(&dir),
        "fbf7cf1b5b4ac727a83d487cbb00f9939d9145c8a361aefb89f16af358bd4ca1"
    );

    // "An existing directory opens": the same bytes reopen, audit clean
    // from a client that has seen nothing, and take a seventh release.
    let mut domain = pinned_domain(storage).expect("the pinned directory reopens");
    assert_eq!(domain.status().log_size, 6);
    let mut auditor = Auditor::new(vec![pinned_checkpoint_key().verifying_key()]);
    assert!(observe(&mut auditor, &mut domain, 1).is_consistent());
    assert_eq!(auditor.latest(0).unwrap().body.size, 6);
    domain
        .apply_update(&pinned_release(7))
        .expect("a seventh release");
    assert!(observe(&mut auditor, &mut domain, 2).is_consistent());
    assert_eq!(auditor.latest(0).unwrap().body.size, 7);
    assert_eq!(segment_files(&dir).len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the pinned directory's domain answers a boot with, after `damage`
/// had the directory and its meta log to itself.
fn boot_after(tag: &str, damage: impl FnOnce(&Path, &dyn LogStore)) -> Option<StoreError> {
    let (dir, storage) = pinned_directory(tag);
    {
        let StorageConfig::Durable(opts) = &storage else {
            unreachable!("the pinned directory is durable");
        };
        damage(&dir, &DurableStore::open(opts.clone()).unwrap());
    }
    let refusal = pinned_domain(storage).err();
    let _ = std::fs::remove_dir_all(&dir);
    refusal
}

/// The epoch the pinned domain would sign after a seventh release.
fn seventh_epoch() -> SignedCheckpoint {
    SignedCheckpoint::sign(
        CheckpointBody {
            log_id: log_id(b"byte pins", 0),
            size: 7,
            head: [7; 32],
            logical_time: 99,
        },
        &pinned_checkpoint_key(),
    )
}

/// Every way a directory can say "this log was more than one tree" — or a
/// caller can ask for that — is a refusal by name: never a fresh log over
/// the directory, never one tree served as if it were the whole.
#[test]
fn a_layout_of_several_trees_is_refused_by_name() {
    const META_EPOCH: u8 = 2;
    // Undamaged, the directory boots (what the refusals below are not).
    assert!(boot_after("refuse-nothing", |_, _| {}).is_none());

    let second_chain = boot_after("refuse-chain", |dir, _| {
        std::fs::copy(
            dir.join("shard-0000-seg-00000000.dlog"),
            dir.join("shard-0001-seg-00000000.dlog"),
        )
        .unwrap();
    });
    assert!(
        matches!(
            second_chain,
            Some(StoreError::ShardCountMismatch {
                store: 2,
                configured: 1
            })
        ),
        "a second segment chain: {second_chain:?}"
    );

    let two_trees = boot_after("refuse-epoch", |_, store| {
        let record = epoch_record(&seventh_epoch(), &[4, 3], &[[1; 32], [2; 32]]);
        store.append_meta(META_EPOCH, &record).unwrap();
    });
    assert!(
        matches!(
            two_trees,
            Some(StoreError::ShardCountMismatch {
                store: 2,
                configured: 1
            })
        ),
        "an epoch record of two trees: {two_trees:?}"
    );

    let disagreeing = boot_after("refuse-snapshot", |_, store| {
        let record = epoch_record(&seventh_epoch(), &[7], &[[8; 32]]);
        store.append_meta(META_EPOCH, &record).unwrap();
    });
    assert!(
        matches!(disagreeing, Some(StoreError::Corrupt(_))),
        "an epoch record whose (size, head) is not its checkpoint's: {disagreeing:?}"
    );

    let (dir, storage) = pinned_directory("refuse-config");
    let config = FrameworkConfig {
        log_shards: 4,
        ..pinned_config(storage)
    };
    let four = EnclaveFramework::open(config, None, pinned_checkpoint_key(), Box::new(NoImports));
    assert!(
        matches!(
            four,
            Err(StoreError::ShardCountMismatch {
                store: 1,
                configured: 4
            })
        ),
        "log_shards: 4 over a directory that boots with 1"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the pinned domain answers a boot with after a seventh release —
/// two sealed segments and a tail of one leaf, so the newest seal is not
/// the end of the log — and after that seal's checkpoint record was
/// rewritten: the payload `lie` makes of its `(size, edge)`, a valid CRC,
/// the trailer pointing at it as before. A well-formed record the log
/// never wrote.
fn boot_after_resealing(
    tag: &str,
    lie: impl FnOnce(u64, Vec<[u8; 32]>) -> Vec<u8>,
) -> Option<StoreError> {
    use distrust::log::store::segment::{
        decode_trailer, encode_record, encode_trailer, scan_segment, REC_CHECKPOINT, TRAILER_LEN,
    };
    let (dir, storage) = pinned_directory(tag);
    pinned_domain(storage.clone())
        .unwrap()
        .apply_update(&pinned_release(7))
        .unwrap();
    let files = segment_files(&dir);
    assert_eq!(files.len(), 3);
    let bytes = std::fs::read(&files[1]).unwrap();
    let scanned = scan_segment(&bytes).unwrap();
    assert!(scanned.sealed, "the segment before the tail");
    let (size, edge) = scanned.checkpoint.unwrap();
    let offset = decode_trailer(&bytes[bytes.len() - TRAILER_LEN..]).unwrap();
    let mut rewritten = bytes[..offset as usize].to_vec();
    encode_record(REC_CHECKPOINT, &lie(size, edge), &mut rewritten);
    rewritten.extend_from_slice(&encode_trailer(offset));
    std::fs::write(&files[1], rewritten).unwrap();
    let refusal = pinned_domain(storage).err();
    let _ = std::fs::remove_dir_all(&dir);
    refusal
}

/// Nothing boots *from* a sealed checkpoint record — every leaf is
/// replayed — so what the record is for is this: a disk that returns
/// well-formed bytes of the wrong history is refused by name, not served.
#[test]
fn a_lying_sealed_checkpoint_is_refused_by_name() {
    use distrust::log::store::segment::encode_checkpoint_payload;
    let as_it_was = boot_after_resealing("seal-honest", |size, edge| {
        encode_checkpoint_payload(size, &edge)
    });
    assert!(as_it_was.is_none(), "{as_it_was:?}");

    // Right size, right number of digests, every CRC valid — wrong digests.
    let wrong_digests = boot_after_resealing("seal-digests", |size, mut edge| {
        edge.iter_mut().for_each(|digest| digest[0] ^= 1);
        encode_checkpoint_payload(size, &edge)
    });
    assert!(
        matches!(
            wrong_digests,
            Some(StoreError::Corrupt("recovered checkpoint root mismatch"))
        ),
        "{wrong_digests:?}"
    );

    // A record of another size than the leaves before it never reaches
    // that comparison: the scan ends at it as at a torn write, the leaf
    // after it goes with it, and what refuses the boot is the signed
    // history that leaf was part of.
    let wrong_size = boot_after_resealing("seal-size", |size, edge| {
        encode_checkpoint_payload(size - 2, &edge)
    });
    assert!(
        matches!(
            wrong_size,
            Some(StoreError::LostSignedHistory {
                signed: 7,
                recovered: 6
            })
        ),
        "{wrong_size:?}"
    );
}

#[test]
fn missing_log_behind_signed_history_refuses_to_boot() {
    // Signed checkpoints say two entries exist; the segment files are
    // gone. Serving the shorter log would equivocate against the domain's
    // own signatures, so boot must refuse — loudly, not by resetting.
    let dir = tempdir("lost-history");
    let storage = durable(&dir, 4 << 20);
    let dev = SigningKey::derive(b"lost", b"dev");
    let cp_key = SigningKey::derive(b"lost", b"cp");
    {
        let mut fw = EnclaveFramework::open(
            framework_config(&dev, storage.clone()),
            None,
            cp_key,
            Box::new(NoImports),
        )
        .unwrap();
        let v1 = SignedRelease::create("adder", 1, "v1", &adder_module(100), &dev);
        fw.apply_update(&v1).expect("v1 applies");
        let v2 = SignedRelease::create("adder", 2, "v2", &adder_module(200), &dev);
        fw.apply_update(&v2).expect("v2 applies");
    }
    for file in segment_files(&dir) {
        std::fs::remove_file(file).unwrap();
    }
    match EnclaveFramework::open(
        framework_config(&dev, storage),
        None,
        cp_key,
        Box::new(NoImports),
    ) {
        Err(StoreError::LostSignedHistory {
            signed: 2,
            recovered: 0,
        }) => {}
        Err(other) => panic!("expected LostSignedHistory, got {other:?}"),
        Ok(_) => panic!("boot must refuse a log shorter than its signed history"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_deployment_survives_a_full_restart_end_to_end() {
    // The whole stack over real sockets: launch durably, update, kill
    // every domain, relaunch on the same directory, and keep serving.
    let dir = tempdir("deploy");
    let spec = |base: u64| AppSpec {
        name: "adder".into(),
        module: adder_module(base),
        notes: "v1".into(),
        hosts: (0..2)
            .map(|_| Box::new(NoImports) as Box<dyn AppHost>)
            .collect(),
        limits: Limits::default(),
    };

    let mut deployment =
        Deployment::launch_durable(spec(100), b"durable e2e", 1, &dir).expect("fresh launch");
    let mut client = deployment.client(b"auditor");
    assert!(client
        .audit(Some(&deployment.initial_app_digest))
        .is_clean());
    let v2 = deployment.sign_release(2, "v2", &adder_module(200));
    for result in client.push_update(&v2) {
        result.expect("v2 accepted");
    }
    assert!(client.audit(None).is_clean());
    drop(client);
    deployment.shutdown();
    drop(deployment);

    // Relaunch over the recovered logs. Version 1 is not re-pushed (the
    // logs prove both domains already activated it); the app instance is
    // gone until the next release arrives.
    let deployment =
        Deployment::launch_durable(spec(100), b"durable e2e", 1, &dir).expect("relaunch recovers");
    let mut client = deployment.client(b"auditor-2");
    let v3 = deployment.sign_release(3, "v3", &adder_module(300));
    for result in client.push_update(&v3) {
        result.expect("post-restart update accepted");
    }
    let report = client.audit(None);
    assert!(report.is_clean(), "{report:?}");
    // The recovered log holds all three releases, not just the new one.
    let entries = client.log_entries(0, 0).unwrap();
    assert_eq!(
        entries.len(),
        3,
        "v1 + v2 + v3 digests survived the restart"
    );
    // And the app serves again on the new release.
    let mut session = client.session(distrust::core::session::TrustPolicy::audited());
    assert_eq!(
        session.call(1, 1, &[5]).unwrap(),
        vec![49u8],
        "300 + 5 = 305 = 0x131, low byte 0x31"
    );
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}
