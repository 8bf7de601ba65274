//! The Figure 2 scenario: auditable code updates.
//!
//! Deploys v1 of an application, pushes a developer-signed v2, and checks
//! every §4.1 guarantee: clients learn about the update (notices), the
//! digest history is in every domain's append-only log, audits stay clean,
//! and unauthorized updates are rejected everywhere.

mod common;

use common::app_call;
use distrust::core::abi::{AppHost, HANDLE_EXPORT, OUTBOX_ADDR};
use distrust::core::{AppSpec, Deployment, NoImports, Request, Response};
use distrust::sandbox::{FuncBuilder, Limits, Module, ModuleBuilder};

/// A tiny versioned app: method 1 returns `base + input[0]`.
/// v1 uses base = 100, v2 uses base = 200 — behaviour observably changes.
fn adder_module(base: u64) -> Module {
    let mut mb = ModuleBuilder::new(1, 1);
    let mut f = FuncBuilder::new(3, 0, 1);
    // out[0] = base + inbox[0]; return 1
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

fn launch(seed: &[u8], n: usize) -> Deployment {
    let spec = AppSpec {
        name: "adder".into(),
        module: adder_module(100),
        notes: "v1".into(),
        hosts: (0..n)
            .map(|_| Box::new(NoImports) as Box<dyn AppHost>)
            .collect(),
        limits: Limits::default(),
    };
    Deployment::launch(spec, seed).expect("launch")
}

#[test]
fn signed_update_flows_to_all_domains() {
    let deployment = launch(b"update flow", 4);
    let mut client = deployment.client(b"auditor");

    // v1 behaviour.
    assert_eq!(app_call(&mut client, 1, 1, &[5]).unwrap(), vec![105u8]);

    // First audit pins state.
    let report = client.audit(Some(&deployment.initial_app_digest));
    assert!(report.is_clean(), "{report:?}");

    // Developer pushes v2.
    let v2 = adder_module(200);
    let release = deployment.sign_release(2, "v2: new base", &v2);
    let v2_digest = release.digest();
    for result in client.push_update(&release) {
        let (log_size, digest) = result.expect("update accepted");
        assert_eq!(log_size, 2);
        assert_eq!(digest, v2_digest);
    }

    // Behaviour changed everywhere.
    for d in 0..4 {
        assert_eq!(app_call(&mut client, d, 1, &[5]).unwrap(), vec![205u8]);
    }

    // A read is held against the head the client last verified, and the
    // domains have grown past it: the read is refused until the next audit.
    assert!(client.notices(0, 0).is_err() && client.log_entries(0, 0).is_err());

    // The post-update audit is clean — including consistency proofs from
    // the pre-update checkpoint.
    let report = client.audit(Some(&v2_digest));
    assert!(report.is_clean(), "{report:?}");

    // Clients learn about the update: notices reference log index 1.
    for d in 0..4 {
        let notices = client.notices(d, 0).unwrap();
        assert_eq!(notices.len(), 2, "v1 install + v2 update");
        assert_eq!(notices[1].manifest.version, 2);
        assert_eq!(notices[1].log_index, 1);
        assert_eq!(notices[1].manifest.code_digest, v2_digest);
    }

    // The log now has both digests.
    for d in 0..4 {
        let leaves = client.log_entries(d, 0).unwrap();
        assert_eq!(leaves.len(), 2);
    }
}

#[test]
fn unsigned_update_rejected_everywhere() {
    let deployment = launch(b"unauthorized update", 3);
    let mut client = deployment.client(b"mallory");

    // Mallory signs with her own key.
    let mallory = distrust::crypto::schnorr::SigningKey::derive(b"mallory", b"key");
    let evil = distrust::core::SignedRelease::create(
        "adder",
        2,
        "totally legit",
        &adder_module(66),
        &mallory,
    );
    for result in client.push_update(&evil) {
        match result {
            Err(distrust::core::ClientError::UpdateRejected(msg)) => {
                assert!(msg.contains("signature"), "unexpected: {msg}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }
    // Behaviour unchanged; logs unchanged.
    assert_eq!(app_call(&mut client, 0, 1, &[1]).unwrap(), vec![101u8]);
    assert!(client.audit(None).is_clean());
    for d in 0..3 {
        assert_eq!(client.log_entries(d, 0).unwrap().len(), 1);
    }
}

#[test]
fn replayed_and_downgraded_updates_rejected() {
    let deployment = launch(b"replay update", 2);
    let mut client = deployment.client(b"auditor");

    let v2 = deployment.sign_release(2, "v2", &adder_module(200));
    for r in client.push_update(&v2) {
        r.expect("v2 accepted");
    }
    // Replay of v2 rejected (stale version).
    for r in client.push_update(&v2) {
        assert!(matches!(
            r,
            Err(distrust::core::ClientError::UpdateRejected(_))
        ));
    }
    // Downgrade to "v1 again" (signed!) also rejected — the version in the
    // manifest is what orders releases, preventing rollback attacks even
    // with a valid developer signature.
    let downgrade = deployment.sign_release(1, "rollback", &adder_module(100));
    for r in client.push_update(&downgrade) {
        assert!(matches!(
            r,
            Err(distrust::core::ClientError::UpdateRejected(_))
        ));
    }
}

#[test]
fn update_notice_precedes_new_code_serving() {
    // The §4.1 ordering guarantee, observed through the protocol: after an
    // UpdateAck, the notice must already be queryable — there is no window
    // where new code runs unannounced.
    let deployment = launch(b"notice ordering", 2);
    let mut client = deployment.client(b"auditor");
    let release = deployment.sign_release(2, "v2", &adder_module(200));

    // Push to domain 0 only, then immediately check its notices before
    // touching the app.
    match client
        .exchange(0, &Request::Update { release })
        .expect("exchange")
    {
        Response::UpdateAck { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    let notices = match client.exchange(0, &Request::GetNotices { since: 0 }) {
        Ok(Response::Notices(notices)) => notices,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(notices.last().unwrap().manifest.version, 2);
    // Only now exercise the new code.
    assert_eq!(app_call(&mut client, 0, 1, &[1]).unwrap(), vec![201u8]);
}

#[test]
fn malicious_but_signed_update_is_contained_and_evidenced() {
    // A signed hostile module activates (the framework cannot judge
    // semantics) but cannot escape the sandbox, and its digest is burned
    // into every log — the evidence trail the paper promises.
    let deployment = launch(b"hostile update", 3);
    let mut client = deployment.client(b"auditor");
    let hostile = distrust::sandbox::guests::hostile_module();
    let release = deployment.sign_release(2, "innocuous-looking", &hostile);
    let hostile_digest = release.digest();
    for r in client.push_update(&release) {
        r.expect("signed update accepted");
    }
    // The hostile module doesn't export `handle`: every call errors, the
    // framework survives, and audits still work.
    for d in 0..3 {
        assert!(app_call(&mut client, d, 1, &[1]).is_err());
    }
    let report = client.audit(Some(&hostile_digest));
    assert!(report.is_clean(), "{report:?}");
    // Third-party auditors can download the leaf history and find the
    // hostile digest at index 1 on every domain.
    for d in 0..3 {
        let leaves = client.log_entries(d, 0).unwrap();
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[0], client.log_entries((d + 1) % 3, 0).unwrap()[0]);
    }
}

/// A log no answer can hold in one piece is still read from the start:
/// `GetLogEntries` and `GetNotices` answer a page, and the client asks on
/// until an answer comes back empty. (Before, both answered with
/// everything they had, under the framework mutex, and past a couple of
/// hundred thousand releases the answer no longer fitted a frame.)
#[test]
fn long_logs_are_served_and_read_a_page_at_a_time() {
    use common::{client, descriptor_for, epoch_record, pinned_checkpoint_key, signed};
    use distrust::core::framework::{EnclaveFramework, FrameworkConfig, FrameworkService};
    use distrust::core::protocol::UpdateNotice;
    use distrust::core::server::DirectHost;
    use distrust::core::ReleaseManifest;
    use distrust::log::{LogStore, MemStore, MerkleLog, StorageConfig};
    use distrust::wire::Encode;
    use std::sync::Arc;

    const LEAVES: u64 = 10_000;
    /// The one leaf whose notice a crash lost between the log and the
    /// meta log: every later notice sits one position before its leaf.
    const LOST_NOTICE: u64 = 5_000;
    const META_EPOCH: u8 = 2;
    const META_NOTICE: u8 = 3;

    // 10 000 releases as a restart finds them — leaves and notices in the
    // store, and of the signed epochs only the newest (signing them all
    // would take minutes and change nothing about reading the log back):
    // the head a reader audits and is then held to.
    let store = Arc::new(MemStore::new());
    let mut mirror = MerkleLog::new();
    let manifest = |i: u64| ReleaseManifest {
        app_name: "counter".into(),
        version: i + 1,
        code_digest: [i as u8; 32],
        notes: format!("release notes {i}"),
        locks_updates: false,
    };
    let leaf = |i: u64| manifest(i).log_leaf();
    for i in 0..LEAVES {
        store.append(i, &leaf(i)).unwrap();
        mirror.append(&leaf(i));
        if i == LOST_NOTICE {
            continue;
        }
        let notice = UpdateNotice {
            manifest: manifest(i),
            log_index: i,
            logical_time: 2 * i + 1,
        };
        store.append_meta(META_NOTICE, &notice.to_wire()).unwrap();
    }
    let key = pinned_checkpoint_key();
    let head = signed(&key, [9; 32], LEAVES, mirror.root(), 2 * LEAVES);
    let epoch = epoch_record(&head, &[LEAVES], &[mirror.root()]);
    store.append_meta(META_EPOCH, &epoch).unwrap();
    let framework = EnclaveFramework::open_with_store(
        FrameworkConfig {
            domain_index: 0,
            app_name: "counter".into(),
            developer_key: key.verifying_key(),
            log_id: [9; 32],
            limits: Limits::default(),
            log_shards: 1,
            storage: StorageConfig::Ephemeral,
        },
        None,
        key,
        Box::new(NoImports),
        store,
    )
    .unwrap();
    let mut host = DirectHost::spawn(FrameworkService::new(framework)).unwrap();
    let mut client = client(&descriptor_for(host.addr(), &key), b"reader");

    // One answer is one page: the start of what was asked for, well short
    // of all of it.
    let page = match client.exchange(0, &Request::GetLogEntries { from: 0 }) {
        Ok(Response::LogEntries(page)) => page,
        other => panic!("unexpected {other:?}"),
    };
    assert!(!page.is_empty() && (page.len() as u64) < LEAVES / 2);
    assert!(page.iter().map(Vec::len).sum::<usize>() <= 256 << 10);
    assert_eq!(page[0], leaf(0));
    let notice_page = match client.exchange(0, &Request::GetNotices { since: 0 }) {
        Ok(Response::Notices(page)) => page,
        other => panic!("unexpected {other:?}"),
    };
    assert!(!notice_page.is_empty() && (notice_page.len() as u64) < LEAVES / 2);

    // A reader stands on a head it has verified, and has none yet.
    assert!(matches!(
        client.log_entries(0, 0),
        Err(distrust::core::ClientError::AuditFailed(_))
    ));
    assert!(matches!(
        client.notices(0, 0),
        Err(distrust::core::ClientError::AuditFailed(_))
    ));
    let report = client.audit(None);
    assert!(report.misbehavior.is_empty() && report.domains[0].failure.is_none());

    // The client reassembles the whole log — 10 000 leaves under the root
    // it verified — and any suffix of it.
    let all = client.log_entries(0, 0).unwrap();
    assert_eq!(all.len() as u64, LEAVES);
    assert!(all.iter().zip(0..).all(|(got, i)| *got == leaf(i)));
    assert_eq!(
        client.log_entries(0, LEAVES - 10).unwrap(),
        all[all.len() - 10..]
    );
    assert!(client.log_entries(0, LEAVES).unwrap().is_empty());
    assert!(client.log_entries(0, LEAVES + 1).is_err());

    // Notices likewise, by log index — across the one that is missing.
    let notices = client.notices(0, 0).unwrap();
    assert_eq!(notices.len() as u64, LEAVES - 1);
    assert!(notices.windows(2).all(|w| w[0].log_index < w[1].log_index));
    for since in [LOST_NOTICE - 1, LOST_NOTICE, LOST_NOTICE + 1, LEAVES - 3] {
        let got = client.notices(0, since).unwrap();
        let expected: Vec<_> = notices.iter().filter(|n| n.log_index >= since).collect();
        assert_eq!(got.iter().collect::<Vec<_>>(), expected, "since {since}");
    }
    assert!(client.notices(0, LEAVES).unwrap().is_empty());
    assert!(client.notices(0, u64::MAX).unwrap().is_empty());
    host.shutdown();
}
