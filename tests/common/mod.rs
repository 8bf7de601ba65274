//! Fake single-domain deployments for the detection suites: an
//! unattested trust domain that answers `BatchAudit` with whatever view a
//! test scripts, plus the descriptor/client plumbing to audit it — and the
//! un-gated application call the update and lockdown suites use.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use distrust::core::protocol::{AuditBundle, BundleAttestation, Request, Response};
use distrust::core::{
    ClientError, DeploymentClient, DeploymentDescriptor, DomainInfo, DomainStatus,
};
use distrust::crypto::drbg::HmacDrbg;
use distrust::crypto::schnorr::SigningKey;
use distrust::log::batch::CheckpointBundle;
use distrust::log::checkpoint::{CheckpointBody, SignedCheckpoint};
use distrust::tee::host::EnclaveService;
use distrust::tee::vendor::VendorRoots;
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
    mut view: impl FnMut() -> (DomainStatus, CheckpointBundle) + Send + 'static,
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
            Ok(_) => Response::Error("not implemented".into()),
            Err(e) => Response::Error(format!("{e}")),
        };
        response.to_wire()
    }
}
