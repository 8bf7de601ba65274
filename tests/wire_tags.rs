//! The wire layout of every tagged enum, pinned byte for byte.
//!
//! One instance of each variant of the six enums that cross a trust
//! boundary — client requests, domain answers, the audit's attestation,
//! platform evidence, vendors and sandbox instructions — is encoded and
//! compared with the bytes the protocol has always had, then decoded
//! back. Every tag no variant holds, retired or never assigned, must
//! decode to `DecodeError::InvalidTag`: a retired message can never be
//! read as a new one.

mod common;

use distrust::core::protocol::{AuditBundle, BundleAttestation, DomainStatus};
use distrust::core::{ReleaseManifest, Request, Response, SignedRelease, UpdateNotice};
use distrust::crypto::schnorr::SchnorrSignature;
use distrust::gossip::GossipEnvelope;
use distrust::log::{BundleStep, CheckpointBundle, ProofBundle};
use distrust::sandbox::Instr;
use distrust::tee::{AttestationDocument, DeviceCert, PlatformEvidence, Quote, VendorKind};
use distrust::wire::{Decode, Encode};
use std::fmt::Debug;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Checks each `(value, hex)` pin both ways, then that the tags the pins
/// lead with are exactly the decoder's live tags, `retired` not among
/// them: every other tag is refused by name.
fn pin_all<T: Encode + Decode + PartialEq + Debug>(pins: Vec<(T, &str)>, retired: &[u8]) {
    let mut assigned = Vec::new();
    for (value, expected) in pins {
        let wire = value.to_wire();
        assert_eq!(hex(&wire), expected, "{value:?}");
        assert_eq!(T::from_wire(&wire), Ok(value));
        assigned.push(wire[0]);
    }
    for tag in retired {
        assert!(!assigned.contains(tag), "retired tag {tag} is in use");
    }
    assigned.sort_unstable();
    assert_eq!(assigned, common::live_tags::<T>());
}

fn manifest() -> ReleaseManifest {
    ReleaseManifest {
        app_name: "a".into(),
        version: 1,
        code_digest: [2; 32],
        notes: String::new(),
        locks_updates: true,
    }
}

fn status() -> DomainStatus {
    DomainStatus {
        domain_index: 1,
        app_digest: [2; 32],
        app_version: 3,
        log_size: 4,
        log_head: [5; 32],
        framework_measurement: [6; 32],
    }
}

fn quote() -> Quote {
    Quote {
        document: AttestationDocument {
            vendor: VendorKind::NitroSim,
            device_id: [1; 16],
            measurement: [2; 32],
            user_data: vec![3],
            logical_time: 4,
            evidence: PlatformEvidence::Nitro {
                pcrs: vec![[5; 32]],
                module_id: "m".into(),
            },
        },
        signature: SchnorrSignature::from_bytes(&[6; 80]),
        cert: DeviceCert {
            vendor: VendorKind::NitroSim,
            device_id: [1; 16],
            device_key: [7; 48],
            signature: SchnorrSignature::from_bytes(&[8; 80]),
        },
    }
}

#[test]
fn request_layout_is_pinned() {
    let release = SignedRelease {
        manifest: manifest(),
        module_bytes: vec![3],
        signature: SchnorrSignature::from_bytes(&[4; 80]),
    };
    pin_all(
        vec![
            (
                Request::AppCall {
                    method: 7,
                    payload: vec![1, 2],
                },
                "020700000000000000020000000102",
            ),
            (Request::Update { release }, "03010000006101000000000000000202020202020202020202020202020202020202020202020202020202020202000000000101000000030404040404040404040404040404040404040404040404040404040404040404040404040404040404040404040404040404040404040404040404040404040404040404040404040404040404040404"),
            (Request::GetLogEntries { from: 5 }, "060500000000000000"),
            (Request::GetNotices { since: 6 }, "070600000000000000"),
            (
                Request::BatchAudit {
                    request_id: 7,
                    nonce: [8; 32],
                    verified_size: 9,
                },
                "08070000000000000008080808080808080808080808080808080808080808080808080808080808080900000000000000",
            ),
            (
                Request::Gossip {
                    envelope: GossipEnvelope::empty(),
                },
                "0a0000000000000000",
            ),
            (Request::WitnessHead, "0b"),
        ],
        &[0, 1, 4, 5, 9],
    );
}

#[test]
fn response_layout_is_pinned() {
    let bundle = AuditBundle {
        request_id: 5,
        attestation: BundleAttestation::Unattested(status()),
        bundle: CheckpointBundle {
            checkpoints: Vec::new(),
            proof: ProofBundle {
                nodes: vec![[6; 32]],
                steps: vec![BundleStep {
                    old_size: 1,
                    new_size: 2,
                    path: vec![0],
                }],
            },
        },
    };
    pin_all(
        vec![
            (Response::AppResult { payload: vec![1] }, "030100000001"),
            (Response::AppError("e".into()), "040100000065"),
            (
                Response::UpdateAck {
                    log_size: 2,
                    digest: [3; 32],
                },
                "0502000000000000000303030303030303030303030303030303030303030303030303030303030303",
            ),
            (Response::UpdateRejected("r".into()), "060100000072"),
            (Response::LogEntries(vec![vec![4], Vec::new()]), "0902000000010000000400000000"),
            (
                Response::Notices(vec![UpdateNotice {
                    manifest: manifest(),
                    log_index: 1,
                    logical_time: 2,
                }]),
                "0a01000000010000006101000000000000000202020202020202020202020202020202020202020202020202020202020202000000000101000000000000000200000000000000",
            ),
            (Response::Error("x".into()), "0b0100000078"),
            (Response::AuditBundle(Box::new(bundle)), "0c05000000000000000101000000020202020202020202020202020202020202020202020202020202020202020203000000000000000400000000000000050505050505050505050505050505050505050505050505050505050505050506060606060606060606060606060606060606060606060606060606060606060000000001000000060606060606060606060606060606060606060606060606060606060606060601000000010000000000000002000000000000000100000000000000"),
            (
                Response::Gossip {
                    envelope: GossipEnvelope::empty(),
                },
                "0e0000000000000000",
            ),
            (Response::WitnessHead { cosigned: None }, "0f00"),
        ],
        &[0, 1, 2, 7, 8, 13],
    );
}

#[test]
fn bundle_attestation_layout_is_pinned() {
    pin_all(
        vec![
            (BundleAttestation::Quote(Box::new(quote())), "00010101010101010101010101010101010102020202020202020202020202020202020202020202020202020202020202020100000003040000000000000001010000000505050505050505050505050505050505050505050505050505050505050505010000006d060606060606060606060606060606060606060606060606060606060606060606060606060606060606060606060606060606060606060606060606060606060606060606060606060606060606060601010101010101010101010101010101010707070707070707070707070707070707070707070707070707070707070707070707070707070707070707070707070808080808080808080808080808080808080808080808080808080808080808080808080808080808080808080808080808080808080808080808080808080808080808080808080808080808080808"),
            (BundleAttestation::Unattested(status()), "010100000002020202020202020202020202020202020202020202020202020202020202020300000000000000040000000000000005050505050505050505050505050505050505050505050505050505050505050606060606060606060606060606060606060606060606060606060606060606"),
        ],
        &[],
    );
}

#[test]
fn platform_evidence_layout_is_pinned() {
    pin_all(
        vec![
            (
                PlatformEvidence::Sgx {
                    mr_enclave: [1; 32],
                    mr_signer: [2; 32],
                    isv_svn: 3,
                },
                "00010101010101010101010101010101010101010101010101010101010101010102020202020202020202020202020202020202020202020202020202020202020300",
            ),
            (
                PlatformEvidence::Nitro {
                    pcrs: vec![[4; 32], [5; 32]],
                    module_id: "n".into(),
                },
                "010200000004040404040404040404040404040404040404040404040404040404040404040505050505050505050505050505050505050505050505050505050505050505010000006e",
            ),
            (
                PlatformEvidence::Keystone {
                    sm_hash: [6; 32],
                    runtime_hash: [7; 32],
                },
                "0206060606060606060606060606060606060606060606060606060606060606060707070707070707070707070707070707070707070707070707070707070707",
            ),
        ],
        &[],
    );
}

#[test]
fn vendor_layout_is_pinned() {
    pin_all(
        vec![
            (VendorKind::SgxSim, "00"),
            (VendorKind::NitroSim, "01"),
            (VendorKind::KeystoneSim, "02"),
        ],
        &[],
    );
}

#[test]
fn instruction_layout_is_pinned() {
    pin_all(
        vec![
            (Instr::Const(0x0102_0304_0506_0708), "010807060504030201"),
            (Instr::LocalGet(7), "020700"),
            (Instr::LocalSet(0x0100), "030001"),
            (Instr::Add, "10"),
            (Instr::Sub, "11"),
            (Instr::Mul, "12"),
            (Instr::DivU, "13"),
            (Instr::RemU, "14"),
            (Instr::And, "15"),
            (Instr::Or, "16"),
            (Instr::Xor, "17"),
            (Instr::Shl, "18"),
            (Instr::ShrU, "19"),
            (Instr::Rotr, "1a"),
            (Instr::Eq, "20"),
            (Instr::Ne, "21"),
            (Instr::LtU, "22"),
            (Instr::GtU, "23"),
            (Instr::LeU, "24"),
            (Instr::GeU, "25"),
            (Instr::JumpIfZero(3), "3003000000"),
            (Instr::JumpIfNonZero(4), "3104000000"),
            (Instr::Jump(5), "3205000000"),
            (Instr::Call(1), "330100"),
            (Instr::HostCall(2), "340200"),
            (Instr::Return, "35"),
            (Instr::Load8(16), "4010000000"),
            (Instr::Load64(24), "4118000000"),
            (Instr::Store8(0), "4200000000"),
            (Instr::Store64(8), "4308000000"),
            (Instr::MemSize, "44"),
            (Instr::MemGrow, "45"),
            (Instr::Drop, "50"),
            (Instr::Dup, "51"),
            (Instr::Swap, "52"),
            (Instr::Select, "53"),
            (Instr::Trap, "5f"),
        ],
        &[],
    );
}
