//! Protocol robustness: trust domains face the open network, so the
//! request decoder and the framework dispatcher must survive arbitrary
//! bytes — answering with error frames, never crashing or hanging.

use distrust::core::abi::{NoImports, HANDLE_EXPORT, OUTBOX_ADDR};
use distrust::core::framework::{EnclaveFramework, FrameworkConfig, FrameworkService};
use distrust::core::protocol::{BundleAttestation, Request, Response};
use distrust::core::SignedRelease;
use distrust::crypto::drbg::HmacDrbg;
use distrust::crypto::schnorr::SigningKey;
use distrust::log::StorageConfig;
use distrust::sandbox::guests::counter_module;
use distrust::sandbox::{FuncBuilder, Instr, Limits, Module, ModuleBuilder};
use distrust::tee::host::EnclaveService;
use distrust::tee::{Vendor, VendorKind};
use distrust::wire::{Decode, Encode};
use proptest::prelude::*;

fn service() -> FrameworkService {
    let dev = SigningKey::derive(b"protocol fuzz", b"dev");
    FrameworkService::new(
        EnclaveFramework::open(
            FrameworkConfig {
                domain_index: 0,
                app_name: "fuzzed".into(),
                developer_key: dev.verifying_key(),
                log_id: [1; 32],
                limits: Limits::default(),
                log_shards: 1,
                storage: StorageConfig::Ephemeral,
            },
            None,
            SigningKey::derive(b"protocol fuzz", b"cp"),
            Box::new(NoImports),
        )
        .unwrap(),
    )
}

/// A service with three installed releases, so batched audit responses
/// carry real multi-checkpoint bundles with consistency steps.
fn service_with_history() -> FrameworkService {
    let dev = SigningKey::derive(b"protocol fuzz", b"dev");
    let mut svc = service();
    for v in 1..=3u64 {
        let release = SignedRelease::create("fuzzed", v, "", &counter_module(v), &dev);
        svc.framework_mut().apply_update(&release).expect("applies");
    }
    svc
}

/// A TEE-backed service (simulated vendor + provisioned device): its
/// audit answer carries a real quote instead of the unattested fallback.
fn attested_service() -> FrameworkService {
    let dev = SigningKey::derive(b"protocol fuzz", b"dev");
    let vendor = Vendor::new(VendorKind::ALL[0], b"protocol fuzz vendor");
    let mut rng = HmacDrbg::new(b"protocol fuzz", b"device-rng");
    let device = vendor.provision_device(&mut rng);
    let enclave = device.launch([3; 32]);
    let checkpoint_key = enclave.derive_signing_key(b"checkpoint");
    FrameworkService::new(
        EnclaveFramework::open(
            FrameworkConfig {
                domain_index: 1,
                app_name: "fuzzed".into(),
                developer_key: dev.verifying_key(),
                log_id: [3; 32],
                limits: Limits::default(),
                log_shards: 1,
                storage: StorageConfig::Ephemeral,
            },
            Some(enclave),
            checkpoint_key,
            Box::new(NoImports),
        )
        .unwrap(),
    )
}

/// An ABI-speaking echo app: its `handle` export copies the inbox to the
/// outbox, so a successful `AppCall` is answered with a real
/// `Response::AppResult` carrying the request payload back.
fn echo_app_module() -> Module {
    let mut mb = ModuleBuilder::new(1, 1);
    // handle(method, addr, len) -> len ; copy byte-by-byte (local 3 = i)
    let mut f = FuncBuilder::new(3, 1, 1);
    f.constant(0).lset(3);
    f.label("loop")
        .lget(3)
        .lget(2)
        .op(Instr::GeU)
        .jnz("done")
        // outbox[i] = inbox[addr + i]
        .constant(OUTBOX_ADDR)
        .lget(3)
        .add()
        .lget(1)
        .lget(3)
        .add()
        .load8(0)
        .store8(0)
        .lget(3)
        .constant(1)
        .add()
        .lset(3)
        .jmp("loop")
        .label("done")
        .lget(2)
        .ret();
    let idx = mb.function(f.build().expect("echo builds"));
    mb.export(HANDLE_EXPORT, idx);
    mb.build()
}

/// A real server-produced `AuditBundle` response frame. Built once per
/// process (release signing is expensive in debug builds) and cached for
/// verified sizes 0..=5.
fn batch_audit_response_frame(verified_size: u64) -> Vec<u8> {
    use std::sync::OnceLock;
    static FRAMES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    let frames = FRAMES.get_or_init(|| {
        let mut svc = service_with_history();
        (0..=5u64)
            .map(|vs| {
                let frame = svc.handle(
                    Request::BatchAudit {
                        request_id: 99,
                        nonce: [9; 32],
                        verified_size: vs,
                    }
                    .to_wire(),
                );
                assert!(matches!(
                    Response::from_wire(&frame),
                    Ok(Response::AuditBundle(_))
                ));
                frame
            })
            .collect()
    });
    frames[verified_size as usize].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary request bytes always produce a decodable response frame.
    #[test]
    fn garbage_requests_get_error_responses(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut svc = service();
        let response_bytes = svc.handle(bytes);
        let response = Response::from_wire(&response_bytes).expect("response always decodes");
        // With no app installed, everything either errors or reports
        // benign state — but never panics.
        let _ = response;
    }

    /// Request decode/encode round-trips (the framework and the client
    /// must agree byte-for-byte, since responses are hashed into quotes).
    #[test]
    fn structured_requests_round_trip(
        tag in 0u8..4,
        nonce in any::<[u8; 32]>(),
        method in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        number in any::<u64>(),
    ) {
        let request = match tag {
            0 => Request::AppCall { method, payload: payload.clone() },
            1 => Request::GetLogEntries { from: number },
            2 => Request::GetNotices { since: number },
            _ => Request::BatchAudit {
                request_id: method,
                nonce,
                verified_size: number,
            },
        };
        let wire = request.to_wire();
        prop_assert_eq!(Request::from_wire(&wire), Ok(request));
    }

    /// Truncating a valid request at any point yields a decode error (or a
    /// shorter valid request), never a panic; the service still answers.
    #[test]
    fn truncated_requests_are_handled(
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        cut in 0usize..64,
    ) {
        let request = Request::AppCall { method: 1, payload };
        let mut wire = request.to_wire();
        wire.truncate(cut.min(wire.len()));
        let mut svc = service();
        let response_bytes = svc.handle(wire);
        prop_assert!(Response::from_wire(&response_bytes).is_ok());
    }

    /// Truncating a real AuditBundle response at any point must error —
    /// never panic, never decode to a different value.
    #[test]
    fn truncated_audit_bundle_rejected(verified_size in 0u64..5, cut_seed in any::<u64>()) {
        let frame = batch_audit_response_frame(verified_size);
        let cut = (cut_seed as usize) % frame.len();
        prop_assert!(Response::from_wire(&frame[..cut]).is_err());
    }

    /// Flipping any single bit of an AuditBundle response either fails to
    /// decode or decodes to a *different* value — a mutated frame can
    /// never misparse back into the original (canonical encoding), so a
    /// tampered bundle always reaches the verifier visibly changed.
    #[test]
    fn bit_flipped_audit_bundle_never_misparses(
        verified_size in 0u64..5,
        flip_seed in any::<u64>(),
    ) {
        let frame = batch_audit_response_frame(verified_size);
        let original = Response::from_wire(&frame).expect("valid frame decodes");
        let mut mutated = frame.clone();
        let bit = (flip_seed as usize) % (frame.len() * 8);
        mutated[bit / 8] ^= 1 << (bit % 8);
        match Response::from_wire(&mutated) {
            Err(_) => {}
            Ok(decoded) => {
                prop_assert_ne!(decoded, original);
            }
        }
    }

    /// Oversized trailing garbage after a complete AuditBundle is
    /// rejected, not silently dropped.
    #[test]
    fn audit_bundle_with_trailing_bytes_rejected(
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut frame = batch_audit_response_frame(0);
        frame.extend_from_slice(&garbage);
        prop_assert!(Response::from_wire(&frame).is_err());
    }

    /// Arbitrary read offsets — far past the end included — always get a
    /// decodable answer back, never a panic or a hang: the leaves (or
    /// notices) from there on, or an error for a leaf offset past the end.
    #[test]
    fn arbitrary_read_offsets_answered(
        offset in prop_oneof![0u64..6, any::<u64>()],
        with_history in any::<bool>(),
    ) {
        let (mut svc, len) = if with_history { (service_with_history(), 3u64) } else { (service(), 0) };
        let expected = len.saturating_sub(offset) as usize;
        match Response::from_wire(&svc.handle(Request::GetLogEntries { from: offset }.to_wire())) {
            Ok(Response::LogEntries(leaves)) => {
                prop_assert!(offset <= len);
                prop_assert_eq!(leaves.len(), expected);
            }
            Ok(Response::Error(_)) => prop_assert!(offset > len),
            other => prop_assert!(false, "unexpected answer {:?}", other),
        }
        match Response::from_wire(&svc.handle(Request::GetNotices { since: offset }.to_wire())) {
            Ok(Response::Notices(notices)) => {
                prop_assert_eq!(notices.len(), expected);
                prop_assert!(notices.iter().all(|n| n.log_index >= offset));
            }
            other => prop_assert!(false, "unexpected answer {:?}", other),
        }
    }

    /// Arbitrary bytes led by a retired tag — the per-step audit messages
    /// (requests 0/1/4/5, responses 0/1/2/7/8), the per-tree read
    /// (request 9) and the second audit-bundle format (response 13) —
    /// never decode and never panic: the decoder names the tag, the
    /// service answers with an error frame.
    #[test]
    fn bytes_led_by_a_retired_tag_never_decode(
        pick in 0usize..11,
        rest in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        use distrust::wire::DecodeError;
        const RETIRED: [(bool, u8); 11] = [
            (true, 0),
            (true, 1),
            (true, 4),
            (true, 5),
            (true, 9),
            (false, 0),
            (false, 1),
            (false, 2),
            (false, 7),
            (false, 8),
            (false, 13),
        ];
        let (is_request, tag) = RETIRED[pick];
        let mut frame = vec![tag];
        frame.extend_from_slice(&rest);
        if is_request {
            prop_assert_eq!(Request::from_wire(&frame), Err(DecodeError::InvalidTag(tag)));
            let answered_with_an_error = matches!(
                Response::from_wire(&service().handle(frame)),
                Ok(Response::Error(_))
            );
            prop_assert!(answered_with_an_error);
        } else {
            prop_assert_eq!(Response::from_wire(&frame), Err(DecodeError::InvalidTag(tag)));
        }
    }
}

proptest! {
    // Each case pays release-signing cost; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary BatchAudit parameters — including verified sizes far past
    /// the log head — always get a decodable AuditBundle back, and the
    /// request id is echoed faithfully.
    #[test]
    fn arbitrary_batch_audit_parameters_answered(
        request_id in any::<u64>(),
        nonce in any::<[u8; 32]>(),
        verified_size in any::<u64>(),
        with_history in any::<bool>(),
    ) {
        let mut svc = if with_history { service_with_history() } else { service() };
        let response_bytes = svc.handle(Request::BatchAudit { request_id, nonce, verified_size }.to_wire());
        match Response::from_wire(&response_bytes) {
            Ok(Response::AuditBundle(b)) => {
                prop_assert_eq!(b.request_id, request_id);
                prop_assert!(!b.bundle.checkpoints.is_empty());
            }
            other => prop_assert!(false, "expected audit bundle, got {:?}", other),
        }
    }

    /// The full update-then-call flow over the wire: `Request::Update` is
    /// acknowledged with `Response::UpdateAck`, a stale replay is refused
    /// with `Response::UpdateRejected`, and an `AppCall` into the freshly
    /// installed echo app answers `Response::AppResult` with the request
    /// payload echoed back byte-for-byte.
    #[test]
    fn update_then_app_call_round_trips(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let dev = SigningKey::derive(b"protocol fuzz", b"dev");
        let mut svc = service();
        let release = SignedRelease::create("fuzzed", 1, "", &echo_app_module(), &dev);
        let update = Request::Update { release: release.clone() };
        let wire = update.to_wire();
        // The fan-out fast path stays in lockstep with the Encode impl.
        prop_assert_eq!(&wire, &Request::encode_update(&release));
        let ack = Response::from_wire(&svc.handle(wire.clone()));
        prop_assert!(
            matches!(ack, Ok(Response::UpdateAck { log_size: 1, .. })),
            "expected ack at log size 1, got {:?}",
            ack
        );
        // The same version again is stale; the rejection decodes cleanly.
        let replay = Response::from_wire(&svc.handle(wire));
        prop_assert!(
            matches!(replay, Ok(Response::UpdateRejected(_))),
            "expected rejection, got {:?}",
            replay
        );
        let call = Request::AppCall { method: 0, payload: payload.clone() };
        match Response::from_wire(&svc.handle(call.to_wire())) {
            Ok(Response::AppResult { payload: echoed }) => prop_assert_eq!(echoed, payload),
            other => prop_assert!(false, "expected echoed app result, got {:?}", other),
        }
    }

    /// Truncating an update frame at any point never panics the service —
    /// it always answers with a frame that decodes.
    #[test]
    fn truncated_update_requests_are_handled(cut_seed in any::<u64>()) {
        let dev = SigningKey::derive(b"protocol fuzz", b"dev");
        let release = SignedRelease::create("fuzzed", 1, "", &counter_module(1), &dev);
        let wire = Request::encode_update(&release);
        let cut = (cut_seed as usize) % wire.len();
        let mut svc = service();
        let response_bytes = svc.handle(wire[..cut].to_vec());
        prop_assert!(Response::from_wire(&response_bytes).is_ok());
    }
}

#[test]
fn attest_on_a_tee_domain_answers_with_a_quote() {
    let mut svc = attested_service();
    let request = Request::BatchAudit {
        request_id: 1,
        nonce: [5; 32],
        verified_size: 0,
    };
    let frame = svc.handle(request.to_wire());
    let response = Response::from_wire(&frame).expect("decodes");
    let carries_a_quote = matches!(
        &response,
        Response::AuditBundle(answer) if matches!(answer.attestation, BundleAttestation::Quote(_))
    );
    assert!(carries_a_quote, "expected a quote, got {response:?}");
    // Canonical encoding: re-encoding the decoded quote reproduces the
    // server's exact bytes.
    assert_eq!(response.to_wire(), frame);
}

#[test]
fn consistency_proofs_between_installed_epochs_decode_and_verify() {
    // Log size 3: a client at size 1 is served epochs 2 and 3 plus the
    // steps 1→2 and 2→3.
    let all = match Response::from_wire(&batch_audit_response_frame(0)).expect("decodes") {
        Response::AuditBundle(b) => b.bundle.checkpoints,
        other => panic!("expected audit bundle, got {other:?}"),
    };
    let frame = batch_audit_response_frame(1);
    match Response::from_wire(&frame).expect("decodes") {
        Response::AuditBundle(b) => {
            assert_eq!(b.bundle.checkpoints, all[1..]);
            assert_eq!(b.bundle.proof.len(), 2);
            for i in 0..2 {
                let step = b.bundle.proof.step(i).expect("step");
                assert!(step.verify(&all[i].body.head, &all[i + 1].body.head));
            }
            // Canonical encoding: the decoded bundle re-encodes to the
            // server's exact bytes.
            assert_eq!(Response::AuditBundle(b).to_wire(), frame);
        }
        other => panic!("expected audit bundle, got {other:?}"),
    }
}

/// The guarantees the single audit exchange rests on: serving an audit
/// signs nothing, and only an update moves a domain's logical clock.
#[test]
fn only_updates_advance_logical_time_and_audits_reuse_signatures() {
    fn audit(svc: &mut FrameworkService, request_id: u64) -> Vec<SignedCheckpoint> {
        let request = Request::BatchAudit {
            request_id,
            nonce: [request_id as u8; 32],
            verified_size: 0,
        };
        match Response::from_wire(&svc.handle(request.to_wire())).expect("decodes") {
            Response::AuditBundle(b) => b.bundle.checkpoints,
            other => panic!("expected audit bundle, got {other:?}"),
        }
    }
    let mut svc = service_with_history();
    let before = audit(&mut svc, 1);
    assert_eq!(
        before.iter().map(|cp| cp.to_wire()).collect::<Vec<_>>(),
        audit(&mut svc, 2)
            .iter()
            .map(|cp| cp.to_wire())
            .collect::<Vec<_>>(),
        "two audits with no update in between serve byte-identical checkpoints"
    );
    // Every request that is not an update, then audit again: still the
    // same signed bytes, so nothing re-signed and no clock tick.
    for request in [
        Request::AppCall {
            method: 0,
            payload: vec![],
        },
        Request::GetLogEntries { from: 0 },
        Request::GetNotices { since: 0 },
        Request::Gossip {
            envelope: GossipEnvelope::empty(),
        },
        Request::WitnessHead,
    ] {
        svc.handle(request.to_wire());
    }
    assert_eq!(audit(&mut svc, 3), before);
    // An update does move the clock: one notice tick, one checkpoint tick.
    let dev = SigningKey::derive(b"protocol fuzz", b"dev");
    let release = SignedRelease::create("fuzzed", 4, "", &counter_module(4), &dev);
    svc.framework_mut().apply_update(&release).expect("applies");
    let after = audit(&mut svc, 4);
    assert_eq!(after[..3], before[..]);
    assert_eq!(
        after[3].body.logical_time,
        before[2].body.logical_time + 2,
        "the only ticks since the last epoch are the update's own"
    );
}

/// The per-step audit messages are gone for good: their tags decode as
/// invalid instead of being quietly reassigned.
#[test]
fn retired_per_step_tags_do_not_decode() {
    use distrust::wire::DecodeError;
    for tag in [0u8, 1, 4, 5] {
        let mut frame = vec![tag];
        frame.extend_from_slice(&[0; 16]);
        assert_eq!(
            Request::from_wire(&frame),
            Err(DecodeError::InvalidTag(tag))
        );
        assert!(matches!(
            Response::from_wire(&service().handle(frame)),
            Ok(Response::Error(_))
        ));
    }
    for tag in [0u8, 1, 2, 7, 8] {
        let mut frame = vec![tag];
        frame.extend_from_slice(&[0; 16]);
        assert_eq!(
            Response::from_wire(&frame),
            Err(DecodeError::InvalidTag(tag))
        );
    }
}

#[test]
fn audit_bundle_length_bombs_rejected_before_allocation() {
    // A frame claiming a ludicrous checkpoint count must fail fast on the
    // length guard, not attempt the allocation.
    let frame = batch_audit_response_frame(0);
    // The checkpoint sequence length prefix sits right after the tag(1) +
    // request_id(8) + attestation tag(1) + DomainStatus(88) prefix of an
    // unattested bundle; overwrite it with u32::MAX.
    let status_len = distrust::core::DomainStatus {
        domain_index: 0,
        app_digest: [0; 32],
        app_version: 0,
        log_size: 0,
        log_head: [0; 32],
        framework_measurement: [0; 32],
    }
    .to_wire()
    .len();
    let off = 1 + 8 + 1 + status_len;
    let mut bomb = frame.clone();
    bomb[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(Response::from_wire(&bomb).is_err());
    // Sanity: patching the same bytes back decodes again.
    let mut intact = bomb;
    intact[off..off + 4].copy_from_slice(&frame[off..off + 4]);
    assert!(Response::from_wire(&intact).is_ok());
}

#[test]
fn audit_bundle_longer_than_a_domain_may_send_rejected_at_decode() {
    use distrust::log::MAX_BUNDLE_CHECKPOINTS;
    use distrust::wire::DecodeError;
    // No lying length prefix here: a well-formed frame that really holds
    // more checkpoints than a bundle may. Each would be a signature
    // verification for the client, so the decoder is where it stops.
    let Ok(Response::AuditBundle(mut answer)) = Response::from_wire(&batch_audit_response_frame(0))
    else {
        panic!("the fixture is an audit bundle");
    };
    let last = answer.bundle.checkpoints.last().expect("non-empty").clone();
    answer
        .bundle
        .checkpoints
        .resize(MAX_BUNDLE_CHECKPOINTS, last.clone());
    let full = Response::AuditBundle(answer.clone()).to_wire();
    assert_eq!(
        Response::from_wire(&full),
        Ok(Response::AuditBundle(answer.clone()))
    );
    for len in [MAX_BUNDLE_CHECKPOINTS + 1, 20_000] {
        answer.bundle.checkpoints.resize(len, last.clone());
        let bomb = Response::AuditBundle(answer.clone()).to_wire();
        assert_eq!(
            Response::from_wire(&bomb),
            Err(DecodeError::Invalid("checkpoint bundle length")),
            "{len} checkpoints"
        );
    }
}

#[test]
fn every_request_variant_gets_a_sensible_answer_without_an_app() {
    type ResponseCheck = fn(&Response) -> bool;
    let mut svc = service();
    let cases: Vec<(Request, ResponseCheck)> = vec![
        (
            Request::BatchAudit {
                request_id: 1,
                nonce: [0; 32],
                verified_size: 0,
            },
            |r| matches!(r, Response::AuditBundle(_)),
        ),
        (
            Request::AppCall {
                method: 1,
                payload: vec![],
            },
            |r| matches!(r, Response::AppError(_)),
        ),
        (Request::GetLogEntries { from: 0 }, |r| {
            matches!(r, Response::LogEntries(_))
        }),
        (Request::GetNotices { since: 0 }, |r| {
            matches!(r, Response::Notices(_))
        }),
    ];
    for (request, check) in cases {
        let resp_bytes = svc.handle(request.to_wire());
        let response = Response::from_wire(&resp_bytes).expect("decodes");
        assert!(check(&response), "unexpected response {response:?}");
    }
}

// --- Gossip / witness-head wire surface (epidemic checkpoint exchange) ---
//
// Every encoding added by the gossip subsystem gets the same treatment as
// the audit bundles above: truncation at every cut must error, a single
// flipped bit must never misparse back to the original value, and length
// bombs must die on the guard instead of allocating.

use distrust::gossip::envelope::{GossipEnvelope, GossipHead};
use distrust::gossip::evidence::EvidenceBundle;
use distrust::gossip::witness::{cosign_signing_bytes, CosignedHeads};
use distrust::log::checkpoint::{log_id, CheckpointBody, EquivocationProof, SignedCheckpoint};

fn gossip_checkpoint(domain: u32, head: u8, size: u64) -> SignedCheckpoint {
    let sk = SigningKey::derive(b"protocol fuzz", b"gossip domain");
    SignedCheckpoint::sign(
        CheckpointBody {
            log_id: log_id(b"protocol fuzz", domain),
            size,
            head: [head; 32],
            logical_time: size,
        },
        &sk,
    )
}

fn fuzz_gossip_envelope() -> GossipEnvelope {
    GossipEnvelope {
        heads: vec![
            GossipHead {
                domain: 0,
                checkpoint: gossip_checkpoint(0, 0x11, 4),
            },
            GossipHead {
                domain: 1,
                checkpoint: gossip_checkpoint(1, 0x22, 7),
            },
        ],
        evidence: vec![EvidenceBundle {
            domain: 2,
            proof: EquivocationProof {
                a: gossip_checkpoint(2, 0x33, 5),
                b: gossip_checkpoint(2, 0x44, 5),
            },
        }],
    }
}

fn fuzz_cosigned_heads() -> CosignedHeads {
    let mut rng = HmacDrbg::new(b"protocol fuzz", b"witness quorum");
    let quorum = distrust::crypto::threshold::generate(1, 1, &mut rng).expect("keygen");
    let heads = vec![
        gossip_checkpoint(0, 0x55, 3).body,
        gossip_checkpoint(1, 0x66, 6).body,
    ];
    // With t = 1 a single partial IS the group signature.
    let partial =
        distrust::crypto::threshold::partial_sign(&quorum.shares[0], &cosign_signing_bytes(&heads));
    CosignedHeads {
        heads,
        signature: partial.value,
    }
}

/// Every frame shape the gossip surface puts on the wire: `Gossip` and
/// `WitnessHead` requests, `Gossip` and `WitnessHead` (Some and None)
/// responses. Paired with whether the frame is a request, so the fuzz
/// cases decode each against the right type.
fn gossip_surface_frames() -> Vec<(bool, Vec<u8>)> {
    vec![
        (
            true,
            Request::Gossip {
                envelope: fuzz_gossip_envelope(),
            }
            .to_wire(),
        ),
        (true, Request::WitnessHead.to_wire()),
        (
            false,
            Response::Gossip {
                envelope: fuzz_gossip_envelope(),
            }
            .to_wire(),
        ),
        (
            false,
            Response::WitnessHead {
                cosigned: Some(fuzz_cosigned_heads()),
            }
            .to_wire(),
        ),
        (false, Response::WitnessHead { cosigned: None }.to_wire()),
    ]
}

#[test]
fn gossip_surface_frames_round_trip() {
    for (is_request, frame) in gossip_surface_frames() {
        if is_request {
            let decoded = Request::from_wire(&frame).expect("request decodes");
            assert_eq!(decoded.to_wire(), frame, "canonical request encoding");
        } else {
            let decoded = Response::from_wire(&frame).expect("response decodes");
            assert_eq!(decoded.to_wire(), frame, "canonical response encoding");
        }
    }
}

#[test]
fn gossip_surface_truncation_rejected_at_every_cut() {
    for (is_request, frame) in gossip_surface_frames() {
        for cut in 0..frame.len() {
            let prefix = &frame[..cut];
            let rejected = if is_request {
                Request::from_wire(prefix).is_err()
            } else {
                Response::from_wire(prefix).is_err()
            };
            assert!(
                rejected,
                "prefix of {cut}/{} bytes must not parse",
                frame.len()
            );
        }
    }
}

#[test]
fn gossip_surface_length_bombs_rejected() {
    // A Gossip request claiming u32::MAX heads must die on the length
    // guard without allocating.
    let mut bomb = vec![10u8];
    u32::MAX.encode(&mut bomb);
    assert!(Request::from_wire(&bomb).is_err());
    // Same for the response side.
    bomb[0] = 14;
    assert!(Response::from_wire(&bomb).is_err());
    // A WitnessHead response claiming u32::MAX cosigned heads likewise.
    let mut bomb = vec![15u8, 1u8];
    u32::MAX.encode(&mut bomb);
    assert!(Response::from_wire(&bomb).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Flipping any single bit of any gossip-surface frame either fails
    /// to decode or decodes to a *different* value — canonical encodings
    /// mean a tampered frame can never impersonate the original.
    #[test]
    fn bit_flipped_gossip_frames_never_misparse(
        frame_seed in any::<u64>(),
        flip_seed in any::<u64>(),
    ) {
        let frames = gossip_surface_frames();
        let (is_request, frame) = &frames[(frame_seed as usize) % frames.len()];
        let bit = (flip_seed as usize) % (frame.len() * 8);
        let mut mutated = frame.clone();
        mutated[bit / 8] ^= 1 << (bit % 8);
        if *is_request {
            let original = Request::from_wire(frame).expect("valid frame decodes");
            if let Ok(decoded) = Request::from_wire(&mutated) {
                prop_assert_ne!(decoded, original);
            }
        } else {
            let original = Response::from_wire(frame).expect("valid frame decodes");
            if let Ok(decoded) = Response::from_wire(&mutated) {
                prop_assert_ne!(decoded, original);
            }
        }
    }

    /// Trailing garbage after any complete gossip-surface frame is
    /// rejected, not silently dropped.
    #[test]
    fn gossip_frames_with_trailing_bytes_rejected(
        frame_seed in any::<u64>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let frames = gossip_surface_frames();
        let (is_request, frame) = &frames[(frame_seed as usize) % frames.len()];
        let mut extended = frame.clone();
        extended.extend_from_slice(&garbage);
        if *is_request {
            prop_assert!(Request::from_wire(&extended).is_err());
        } else {
            prop_assert!(Response::from_wire(&extended).is_err());
        }
    }

    /// A live framework answers arbitrary gossip envelopes (including
    /// ones full of unverifiable heads) with a decodable Gossip response,
    /// and WitnessHead requests with a decodable answer — never a panic.
    #[test]
    fn framework_answers_gossip_and_witness_head(
        domain in any::<u32>(),
        head in any::<u8>(),
        size in any::<u64>(),
    ) {
        let mut svc = service();
        let envelope = GossipEnvelope {
            heads: vec![GossipHead {
                domain,
                checkpoint: gossip_checkpoint(domain, head, size),
            }],
            evidence: Vec::new(),
        };
        let frame = svc.handle(Request::Gossip { envelope }.to_wire());
        let gossip_answered = matches!(
            Response::from_wire(&frame),
            Ok(Response::Gossip { .. })
        );
        prop_assert!(gossip_answered);
        let frame = svc.handle(Request::WitnessHead.to_wire());
        let witness_head_answered = matches!(
            Response::from_wire(&frame),
            Ok(Response::WitnessHead { cosigned: None })
        );
        prop_assert!(witness_head_answered);
    }
}

// ---------------------------------------------------------------------
// Signed checkpoints: the signature travels as 80 opaque bytes and is
// parsed by `verify`, so decoding accepts any 80 bytes and verification
// is where a malformed or tampered signature is refused.
// ---------------------------------------------------------------------

fn checkpoint_key() -> SigningKey {
    SigningKey::derive(b"protocol fuzz", b"gossip domain")
}

/// Body (32 + 8 + 32 + 8) plus signature (80).
const CHECKPOINT_WIRE_BYTES: usize = 160;

/// Every single-bit flip of a genuine checkpoint, body and signature
/// alike, decodes (as a different value) and fails verification — one
/// head refused, never a panic and never a frame-level decode error.
#[test]
fn every_single_bit_flip_of_a_checkpoint_fails_verification() {
    let vk = checkpoint_key().verifying_key();
    let genuine = gossip_checkpoint(0, 0x5a, 9);
    let wire = genuine.to_wire();
    assert_eq!(wire.len(), CHECKPOINT_WIRE_BYTES);
    assert!(SignedCheckpoint::from_wire(&wire).unwrap().verify(&vk));
    for bit in 0..wire.len() * 8 {
        let mut mutated = wire.clone();
        mutated[bit / 8] ^= 1 << (bit % 8);
        let decoded = SignedCheckpoint::from_wire(&mutated).unwrap_or_else(|e| {
            panic!("bit {bit}: a checkpoint of the right length must decode: {e}")
        });
        assert_ne!(decoded, genuine, "bit {bit}");
        assert_eq!(
            decoded.to_wire(),
            mutated,
            "bit {bit}: re-encoding changed bytes"
        );
        assert!(
            !decoded.verify(&vk),
            "bit {bit}: tampered checkpoint verified"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any body under any 80 signature bytes decodes, re-encodes to the
    /// exact input, and does not verify; every proper prefix and every
    /// extension is refused by the decoder.
    #[test]
    fn arbitrary_checkpoint_bytes_decode_exactly_and_never_verify(
        bytes in proptest::collection::vec(any::<u8>(), CHECKPOINT_WIRE_BYTES),
        cut in 0usize..CHECKPOINT_WIRE_BYTES,
        garbage in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let decoded = SignedCheckpoint::from_wire(&bytes).expect("160 bytes always decode");
        prop_assert_eq!(decoded.to_wire(), bytes.clone());
        prop_assert!(!decoded.verify(&checkpoint_key().verifying_key()));
        prop_assert!(SignedCheckpoint::from_wire(&bytes[..cut]).is_err());
        let mut extended = bytes;
        extended.extend_from_slice(&garbage);
        prop_assert!(SignedCheckpoint::from_wire(&extended).is_err());
    }

    /// A genuine body under arbitrary signature bytes: decodes, does not
    /// verify. (The forger's cheapest attempt — keep the head, invent the
    /// signature.)
    #[test]
    fn a_genuine_body_under_arbitrary_signature_bytes_never_verifies(
        signature in proptest::collection::vec(any::<u8>(), 80),
    ) {
        let mut forged = gossip_checkpoint(0, 0x5a, 9);
        prop_assume!(forged.signature[..] != signature[..]);
        forged.signature.copy_from_slice(&signature);
        let decoded = SignedCheckpoint::from_wire(&forged.to_wire()).expect("decodes");
        prop_assert_eq!(&decoded, &forged);
        prop_assert!(!decoded.verify(&checkpoint_key().verifying_key()));
    }
}
