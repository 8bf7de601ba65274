//! Fake single-domain deployments for the detection suites: an
//! unattested trust domain that answers `BatchAudit` with whatever view a
//! test scripts, plus the descriptor/client plumbing to audit it — and the
//! un-gated application call the update and lockdown suites use.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use distrust::core::abi::NoImports;
use distrust::core::framework::{EnclaveFramework, FrameworkConfig};
use distrust::core::protocol::{AuditBundle, BundleAttestation, Request, Response};
use distrust::core::{
    ClientError, DeploymentClient, DeploymentDescriptor, DomainInfo, DomainStatus, SignedRelease,
};
use distrust::crypto::drbg::HmacDrbg;
use distrust::crypto::schnorr::SigningKey;
use distrust::log::batch::CheckpointBundle;
use distrust::log::checkpoint::{log_id, CheckpointBody, SignedCheckpoint};
use distrust::log::{StorageConfig, StoreError};
use distrust::sandbox::guests::counter_module;
use distrust::sandbox::Limits;
use distrust::tee::host::EnclaveService;
use distrust::tee::vendor::VendorRoots;
use distrust::wire::codec::encode_seq;
use distrust::wire::{Decode, Encode};
use std::net::SocketAddr;

/// A one-domain deployment at `addr` whose checkpoint key is pinned to
/// `key`.
pub fn descriptor_for(addr: SocketAddr, key: &SigningKey) -> DeploymentDescriptor {
    DeploymentDescriptor {
        app_name: "any".into(),
        developer_key: SigningKey::derive(b"dev", b"k").verifying_key(),
        vendor_roots: VendorRoots::new(vec![]),
        domains: vec![DomainInfo {
            index: 0,
            addr,
            vendor: None,
            checkpoint_key: key.verifying_key(),
        }],
    }
}

/// One application call on one domain with no audit in front of it, for
/// suites that are about what a domain runs rather than whether to trust
/// it. Applications go through `Session`, which audits first.
pub fn app_call(
    client: &mut DeploymentClient,
    domain: u32,
    method: u64,
    payload: &[u8],
) -> Result<Vec<u8>, ClientError> {
    let request = Request::AppCall {
        method,
        payload: payload.to_vec(),
    };
    match client.exchange(domain, &request)? {
        Response::AppResult { payload } => Ok(payload),
        Response::AppError(e) => Err(ClientError::App(e)),
        other => Err(ClientError::Unexpected(format!("{other:?}"))),
    }
}

pub fn client(descriptor: &DeploymentDescriptor, seed: &[u8]) -> DeploymentClient {
    DeploymentClient::new(descriptor.clone(), Box::new(HmacDrbg::new(seed, b"")))
}

pub fn status_with(head: [u8; 32], size: u64) -> DomainStatus {
    DomainStatus {
        domain_index: 0,
        app_digest: [1; 32],
        app_version: 1,
        log_size: size,
        log_head: head,
        framework_measurement: [2; 32],
    }
}

pub fn signed(
    key: &SigningKey,
    log_id: [u8; 32],
    size: u64,
    head: [u8; 32],
    logical_time: u64,
) -> SignedCheckpoint {
    SignedCheckpoint::sign(
        CheckpointBody {
            log_id,
            size,
            head,
            logical_time,
        },
        key,
    )
}

/// A fake unattested trust domain: every `BatchAudit` is answered with
/// the `(status, bundle)` that `view` returns for that round, everything
/// else with an error frame.
pub fn bundle_fake(
    view: impl FnMut() -> (DomainStatus, CheckpointBundle) + Send + 'static,
) -> impl EnclaveService {
    bundle_fake_with(view, |_| Response::Error("not implemented".into()))
}

/// [`bundle_fake`] for a domain that is also read from: every request
/// that is not a `BatchAudit` gets what `other` answers it.
pub fn bundle_fake_with(
    mut view: impl FnMut() -> (DomainStatus, CheckpointBundle) + Send + 'static,
    mut other: impl FnMut(Request) -> Response + Send + 'static,
) -> impl EnclaveService {
    move |request: Vec<u8>| {
        let response = match Request::from_wire(&request) {
            Ok(Request::BatchAudit { request_id, .. }) => {
                let (status, bundle) = view();
                Response::AuditBundle(Box::new(AuditBundle {
                    request_id,
                    attestation: BundleAttestation::Unattested(status),
                    bundle,
                }))
            }
            Ok(request) => other(request),
            Err(e) => Response::Error(format!("{e}")),
        };
        response.to_wire()
    }
}

/// A `META_EPOCH` payload: `checkpoint`, then the `(sizes, heads)` pair
/// of sequences that follows it on disk.
pub fn epoch_record(checkpoint: &SignedCheckpoint, sizes: &[u64], heads: &[[u8; 32]]) -> Vec<u8> {
    let mut wire = checkpoint.to_wire();
    encode_seq(sizes, &mut wire);
    encode_seq(heads, &mut wire);
    wire
}

/// The checkpoint key of [`pinned_domain`].
pub fn pinned_checkpoint_key() -> SigningKey {
    SigningKey::derive(b"byte pins", b"checkpoint")
}

/// Release `version` of the byte-pin fixture.
pub fn pinned_release(version: u64) -> SignedRelease {
    SignedRelease::create(
        "counter",
        version,
        &format!("release {version}"),
        &counter_module(version),
        &SigningKey::derive(b"byte pins", b"developer"),
    )
}

/// The domain behind the byte pins (`tests/crash_recovery.rs` pins its
/// directory, `tests/golden_and_edges.rs` its audit answers): trust domain
/// 0 of a fixed deployment over `storage`, as a boot finds it. Signing,
/// release creation and logical time are all deterministic, so everything
/// it writes and answers is a constant of the formats.
pub fn pinned_domain(storage: StorageConfig) -> Result<EnclaveFramework, StoreError> {
    EnclaveFramework::open(
        pinned_config(storage),
        None,
        pinned_checkpoint_key(),
        Box::new(NoImports),
    )
}

/// The configuration [`pinned_domain`] opens with.
pub fn pinned_config(storage: StorageConfig) -> FrameworkConfig {
    FrameworkConfig {
        domain_index: 0,
        app_name: "counter".into(),
        developer_key: SigningKey::derive(b"byte pins", b"developer").verifying_key(),
        log_id: log_id(b"byte pins", 0),
        limits: Limits::default(),
        log_shards: 1,
        storage,
    }
}

/// Lower-case hex of `bytes`' SHA-256.
pub fn digest_hex(bytes: &[u8]) -> String {
    distrust::crypto::sha256(bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}
