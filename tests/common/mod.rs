//! Fake single-domain deployments for the detection suites: an
//! unattested trust domain that answers `BatchAudit` with whatever view a
//! test scripts, plus the descriptor/client plumbing to audit it — and the
//! un-gated application call the update and lockdown suites use; an
//! echo deployment and a silent domain for the suites about silence; a
//! counter of the sign requests that reach each domain of a signing
//! deployment; and the live-tag probe the wire suites hold their enums to.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

pub mod mesh;

use distrust::core::abi::{AppHost, NoImports, HANDLE_EXPORT, OUTBOX_ADDR};
use distrust::core::framework::{EnclaveFramework, FrameworkConfig};
use distrust::core::protocol::{AuditBundle, BundleAttestation, Request, Response};
use distrust::core::{
    AppSpec, ClientError, Deployment, DeploymentClient, DeploymentDescriptor, DomainInfo,
    DomainStatus, SignedRelease,
};
use distrust::crypto::drbg::HmacDrbg;
use distrust::crypto::schnorr::SigningKey;
use distrust::log::batch::CheckpointBundle;
use distrust::log::checkpoint::{log_id, CheckpointBody, SignedCheckpoint};
use distrust::log::{StorageConfig, StoreError};
use distrust::sandbox::guests::counter_module;
use distrust::sandbox::vm::Memory;
use distrust::sandbox::{FuncBuilder, Limits, Module, ModuleBuilder};
use distrust::tee::host::EnclaveService;
use distrust::tee::vendor::VendorRoots;
use distrust::wire::codec::encode_seq;
use distrust::wire::{Decode, DecodeError, Encode};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Method 1 answers `input[0] + step`.
pub fn echo_module(step: u64) -> Module {
    let mut mb = ModuleBuilder::new(1, 1);
    let mut f = FuncBuilder::new(3, 0, 1);
    f.constant(OUTBOX_ADDR)
        .lget(1)
        .load8(0)
        .constant(step)
        .add()
        .store8(0)
        .constant(1)
        .ret();
    let idx = mb.function(f.build().unwrap());
    mb.export(HANDLE_EXPORT, idx);
    mb.build()
}

/// A real `n`-domain deployment of `echo_module(1)`.
pub fn echo_deployment(n: usize, seed: &[u8]) -> Deployment {
    let spec = AppSpec {
        name: "echo".into(),
        module: echo_module(1),
        notes: "v1".into(),
        hosts: (0..n)
            .map(|_| Box::new(NoImports) as Box<dyn AppHost>)
            .collect(),
        limits: Limits::default(),
    };
    Deployment::launch(spec, seed).expect("launch")
}

/// A listener that accepts every connection and never writes a byte back
/// — the sockets are parked alive for the life of the test process. Put in
/// a descriptor, it is a domain that is connected, alive and silent.
pub fn hung_listener() -> SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::Builder::new()
        .name("hung-domain".into())
        .spawn(move || {
            let mut parked = Vec::new();
            for conn in listener.incoming().flatten() {
                parked.push(conn);
            }
        })
        .expect("spawn");
    addr
}

/// The tags `T`'s decoder accepts, ascending: each `tag` whose frame
/// `[tag, 0, 0, …]` decodes to anything but `InvalidTag(tag)`, a value or
/// another error. A tag no row of the type's table holds, retired or never
/// assigned, is refused by name and so is not live.
pub fn live_tags<T: Decode>() -> Vec<u8> {
    (0..=u8::MAX)
        .filter(|&tag| {
            let mut frame = vec![tag];
            frame.extend_from_slice(&[0; 64]);
            !matches!(T::from_wire(&frame), Err(DecodeError::InvalidTag(t)) if t == tag)
        })
        .collect()
}

/// One domain's host imports behind a counter of the sign requests that
/// reach it: the threshold signer's guest hashes the message exactly once
/// per request.
pub struct CountingHost {
    inner: Box<dyn AppHost>,
    asked: Arc<AtomicUsize>,
}

impl AppHost for CountingHost {
    fn call(&mut self, name: &str, args: &[u64], memory: &mut Memory) -> Result<Vec<u64>, String> {
        if name == "bls.hash_msg" {
            self.asked.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.call(name, args, memory)
    }
}

/// Puts every host of a signing deployment's `spec` behind a
/// [`CountingHost`]; returns the counters, one per domain.
pub fn count_sign_requests(spec: &mut AppSpec) -> Vec<Arc<AtomicUsize>> {
    let hosts = std::mem::take(&mut spec.hosts);
    let asked: Vec<Arc<AtomicUsize>> = hosts.iter().map(|_| Arc::default()).collect();
    spec.hosts = hosts
        .into_iter()
        .zip(&asked)
        .map(|(inner, asked)| {
            Box::new(CountingHost {
                inner,
                asked: Arc::clone(asked),
            }) as Box<dyn AppHost>
        })
        .collect();
    asked
}
