//! Golden-format pins and client edge cases.
//!
//! The transparency story depends on byte-stable formats: a digest computed
//! today must be recomputable by an auditor years later. These tests pin
//! the canonical encodings (via their SHA-256) so accidental wire-format
//! changes fail loudly instead of silently invalidating old logs.

mod common;

use common::{app_call, digest_hex, pinned_domain, pinned_release};
use distrust::core::protocol::{DomainStatus, Request, Response};
use distrust::core::Deployment;
use distrust::log::StorageConfig;
use distrust::wire::{Decode, DecodeError, Encode};

#[test]
fn golden_request_encodings() {
    // If any of these change, the protocol version must be bumped and old
    // transcripts re-validated. (Values captured from the v1 format.)
    let audit = Request::BatchAudit {
        request_id: 0x0102,
        nonce: [7; 32],
        verified_size: 5,
    };
    let call = Request::AppCall {
        method: 3,
        payload: b"payload".to_vec(),
    };
    // Structural pins (cheap to maintain, catch format drift):
    assert_eq!(Request::WitnessHead.to_wire(), vec![11]);
    assert_eq!(call.to_wire().len(), 1 + 8 + 4 + 7);
    // Exact-content pins:
    assert_eq!(
        audit.to_wire(),
        [
            vec![8u8],
            vec![2, 1, 0, 0, 0, 0, 0, 0],
            vec![7; 32],
            vec![5, 0, 0, 0, 0, 0, 0, 0]
        ]
        .concat(),
    );
}

#[test]
fn golden_tag_assignments() {
    // One tag per message, never renumbered: a transcript recorded against
    // any release decodes to the same messages, or not at all.
    let requests = [
        (
            Request::AppCall {
                method: 0,
                payload: vec![],
            },
            2u8,
        ),
        (Request::GetLogEntries { from: 0 }, 6),
        (Request::GetNotices { since: 0 }, 7),
        (
            Request::BatchAudit {
                request_id: 0,
                nonce: [0; 32],
                verified_size: 0,
            },
            8,
        ),
        (Request::WitnessHead, 11),
    ];
    for (request, tag) in requests {
        assert_eq!(request.to_wire()[0], tag, "{request:?}");
    }
    let responses = [
        (Response::AppResult { payload: vec![] }, 3u8),
        (Response::AppError(String::new()), 4),
        (Response::UpdateRejected(String::new()), 6),
        (Response::LogEntries(vec![]), 9),
        (Response::Notices(vec![]), 10),
        (Response::Error(String::new()), 11),
        (Response::WitnessHead { cosigned: None }, 15),
    ];
    for (response, tag) in responses {
        assert_eq!(response.to_wire()[0], tag, "{response:?}");
    }
    // The gaps are retired for good and refuse to decode: the per-step
    // audit messages (request tags 0/1/4/5, response tags 0/1/2/7/8), and
    // the per-tree read and second audit-bundle format of a log that could
    // be several trees (request tag 9, response tag 13).
    for tag in [0u8, 1, 4, 5, 9] {
        assert_eq!(
            Request::from_wire(&[tag, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(DecodeError::InvalidTag(tag))
        );
    }
    for tag in [0u8, 1, 2, 7, 8, 13] {
        assert_eq!(
            Response::from_wire(&[tag, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(DecodeError::InvalidTag(tag))
        );
    }
}

#[test]
fn golden_batch_audit_answers() {
    // Recorded on the commit before the shard layer was deleted: what
    // domain 0 answers a fresh client and one standing on size 3, after
    // six releases, byte for byte — tag 12, the unattested status, the
    // signed epochs and the pooled consistency proof.
    let mut domain = pinned_domain(StorageConfig::Ephemeral).unwrap();
    for version in 1..=6 {
        domain.apply_update(&pinned_release(version)).unwrap();
    }
    let pins = [
        (
            0u64,
            1458usize,
            "c7591b5412a2d20c5ddcbf9a7ef31a748716418c7441c01026a7fa30c9cc13b8",
        ),
        (
            3,
            898,
            "427c5d7046c8fc81dd23c42dff316e4d0db2406bd9c0169f1ca5ead7ac10143d",
        ),
    ];
    for (verified_size, len, digest) in pins {
        let wire = domain
            .handle(Request::BatchAudit {
                request_id: 7,
                nonce: [3; 32],
                verified_size,
            })
            .to_wire();
        assert_eq!(wire[0], 12);
        assert_eq!(
            (wire.len(), digest_hex(&wire).as_str()),
            (len, digest),
            "verified_size {verified_size}"
        );
    }
}

#[test]
fn golden_domain_status_encoding() {
    let status = DomainStatus {
        domain_index: 1,
        app_digest: [2; 32],
        app_version: 3,
        log_size: 4,
        log_head: [5; 32],
        framework_measurement: [6; 32],
    };
    let wire = status.to_wire();
    // Layout: u32 + 32 + u64 + u64 + 32 + 32 = 116 bytes, little-endian.
    assert_eq!(wire.len(), 116);
    assert_eq!(&wire[..4], &1u32.to_le_bytes());
    assert_eq!(&wire[4..36], &[2u8; 32]);
    assert_eq!(&wire[36..44], &3u64.to_le_bytes());
    assert_eq!(&wire[44..52], &4u64.to_le_bytes());
}

#[test]
fn golden_module_digest() {
    // The counter module's digest is a function of the module format; pin
    // its stability across two construction calls and against the digest
    // recomputed from serialized bytes.
    let m = distrust::sandbox::guests::counter_module(1);
    let d1 = m.digest();
    let reparsed =
        <distrust::sandbox::Module as distrust::wire::Decode>::from_wire(&m.to_wire()).unwrap();
    assert_eq!(reparsed.digest(), d1);
}

#[test]
fn audit_flags_unexpected_published_digest() {
    // A client that compiled DIFFERENT source than what the deployment
    // runs must see digests_agree == false even when all domains agree
    // with each other.
    let deployment = Deployment::launch(
        distrust::apps::analytics::app_spec(2),
        b"expected digest seed",
    )
    .unwrap();
    let mut client = deployment.client(b"auditor");
    let wrong_expectation = [0xab; 32];
    let report = client.audit(Some(&wrong_expectation));
    assert!(!report.digests_agree);
    assert!(!report.is_clean());
    // Per-domain checks all passed — it is specifically the published-code
    // pin that failed.
    assert!(report.domains.iter().all(|d| d.failure.is_none()));
}

#[test]
fn a_domain_serving_an_overlong_bundle_fails_its_own_audit_quickly() {
    use common::{bundle_fake, signed, status_with};
    use distrust::core::server::DirectHost;
    use distrust::crypto::schnorr::SigningKey;
    use distrust::log::batch::{CheckpointBundle, ProofBundle};

    // Domain 1 of a live deployment is byzantine (here a stand-in at its
    // address, unattested, under the checkpoint key the client pins for
    // it): it answers every `BatchAudit` with 20 000 checkpoints, each
    // correctly signed under that key. Every one used to be a signature verification
    // owed by every auditing client, and then compared with every other.
    let seed = b"overlong bundle seed";
    let mut deployment =
        Deployment::launch(distrust::apps::analytics::app_spec(3), seed).expect("launch");
    let key = SigningKey::derive(seed, b"byzantine domain 1");
    let mut descriptor = deployment.descriptor.clone();
    let checkpoint = signed(&key, distrust::log::log_id(seed, 1), 1, [0xaa; 32], 1);
    let mut byzantine = DirectHost::spawn(bundle_fake(move || {
        let bundle = CheckpointBundle {
            checkpoints: vec![checkpoint.clone(); 20_000],
            proof: ProofBundle::default(),
        };
        (status_with([0xaa; 32], 1), bundle)
    }))
    .expect("spawn");
    descriptor.domains[1].addr = byzantine.addr();
    descriptor.domains[1].vendor = None;
    descriptor.domains[1].checkpoint_key = key.verifying_key();
    let mut client = distrust::core::DeploymentClient::new(
        descriptor,
        Box::new(distrust::crypto::drbg::HmacDrbg::new(b"c", b"")),
    );

    let started = std::time::Instant::now();
    let report = client.audit(None);
    let took = started.elapsed();
    assert!(!report.is_clean());
    let failure = report.domains[1].failure.as_deref().expect("audit failed");
    assert!(
        failure.contains("checkpoint bundle length"),
        "refused for its length, at decode: {failure}"
    );
    assert!(report.domains[0].failure.is_none() && report.domains[2].failure.is_none());
    let checked = client.auditor_prefix_cache(1).expect("domain exists");
    assert_eq!(checked.signatures_verified(), 0);
    // 20 000 verifications are seconds in release and a minute in debug;
    // refusing the frame is a copy of its 3.4 MB.
    assert!(took < std::time::Duration::from_secs(5), "took {took:?}");

    byzantine.shutdown();
    deployment.shutdown();
}

#[test]
fn client_surfaces_unreachable_domains() {
    let deployment =
        Deployment::launch(distrust::apps::analytics::app_spec(2), b"unreachable seed").unwrap();
    let mut descriptor = deployment.descriptor.clone();
    descriptor.domains[1].addr = "127.0.0.1:1".parse().unwrap();
    let mut client = distrust::core::DeploymentClient::new(
        descriptor,
        Box::new(distrust::crypto::drbg::HmacDrbg::new(b"c", b"")),
    );
    let report = client.audit(None);
    assert!(!report.is_clean());
    assert!(report.domains[0].failure.is_none());
    assert!(report.domains[1].failure.is_some());
    // App calls to the dead domain error; to the live one succeed.
    assert!(app_call(&mut client, 1, 1, b"").is_err());
    assert!(app_call(&mut client, 0, distrust::apps::analytics::METHOD_COUNT, b"").is_ok());
}

#[test]
fn audit_is_repeatable_and_monotone() {
    // Repeated audits keep succeeding and reuse consistency proofs; the
    // auditor state never wedges on an honest deployment.
    let deployment =
        Deployment::launch(distrust::apps::analytics::app_spec(3), b"repeat audit seed").unwrap();
    let mut client = deployment.client(b"auditor");
    for round in 0..5 {
        let report = client.audit(Some(&deployment.initial_app_digest));
        assert!(report.is_clean(), "round {round}: {report:?}");
    }
    // Push an update mid-stream; audits continue cleanly with growth.
    let release = deployment.sign_release(2, "v2", &distrust::apps::analytics::analytics_module());
    // Same module bytes → same digest → same version bump only.
    for r in client.push_update(&release) {
        r.expect("accepted");
    }
    for round in 0..3 {
        let report = client.audit(Some(&release.digest()));
        assert!(report.is_clean(), "post-update round {round}: {report:?}");
    }
}
