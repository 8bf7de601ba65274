//! The three execution environments of Table 3, the §4.2 projection,
//! and the guest's algorithm run natively.
//!
//! Each environment serves the identical workload — produce one BLS
//! threshold signature share for a client-supplied message — behind the
//! identical client interface (one framed TCP request/response), varying
//! only the execution substrate, exactly as in the paper's §5 setup.

use distrust_apps::threshold_signer::{signer_module, Replay, SignerHost};
use distrust_core::abi::{app_call, import_names};
use distrust_core::server::DirectHost;
use distrust_crypto::bls::Signature;
use distrust_crypto::threshold::{self, KeyShare};
use distrust_sandbox::{Instance, Limits};
use distrust_tee::host::EnclaveHost;
use distrust_wire::transport::{TcpTransport, Transport};

/// Which Table 3 row an environment implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Environment {
    /// Native execution: no TEE, no sandbox.
    Baseline,
    /// The guest's algorithm without the VM: the host calls a sandboxed
    /// signature makes, replayed natively. No paper row; it splits the
    /// Sandbox row's increase into algorithm and interpreter.
    GuestNative,
    /// Sandboxed execution (bytecode VM), no TEE.
    Sandbox,
    /// Sandboxed execution behind the simulated-TEE socket topology.
    TeeSandbox,
    /// §4.2 "deployment tomorrow": hardware that isolates the framework
    /// from the application directly, eliminating the in-TEE socket — the
    /// sandboxed app runs in-process behind the single proxy hop.
    TeeTomorrow,
}

impl Environment {
    /// Paper-facing row label.
    pub fn label(&self) -> &'static str {
        match self {
            Environment::Baseline => "Baseline",
            Environment::GuestNative => "Guest algorithm, native (host calls replayed)",
            Environment::Sandbox => "Sandbox",
            Environment::TeeSandbox => "TEE + Sandbox",
            Environment::TeeTomorrow => "TEE (tomorrow)",
        }
    }
}

/// Keeps the server stack alive (RAII: hosts shut down on drop); the
/// fields are never read, only held.
#[allow(dead_code)]
enum Server {
    Direct(DirectHost),
    /// Outer proxy + inner sandbox-process host.
    Tee(EnclaveHost, DirectHost),
    /// §4.2 topology: enclave proxy with the sandbox in-process.
    TeeDirect(EnclaveHost),
}

/// A running signing service in one of the three environments, plus a
/// connected client.
pub struct SigningBench {
    client: TcpTransport,
    _server: Server,
    share: KeyShare,
}

fn native_service(share: KeyShare) -> impl FnMut(Vec<u8>) -> Vec<u8> + Send + 'static {
    move |message: Vec<u8>| {
        threshold::partial_sign(&share, &message)
            .value
            .to_bytes()
            .to_vec()
    }
}

fn replay_service(share: KeyShare) -> impl FnMut(Vec<u8>) -> Vec<u8> + Send + 'static {
    let mut replay = Replay::new(share);
    move |message: Vec<u8>| replay.sign(&message).expect("signing succeeds")
}

fn sandbox_service(share: KeyShare) -> impl FnMut(Vec<u8>) -> Vec<u8> + Send + 'static {
    let module = signer_module();
    let names = import_names(&module);
    let mut instance = Instance::new(module, Limits::default()).expect("valid module");
    let mut host = SignerHost::new(share);
    move |message: Vec<u8>| {
        app_call(
            &mut instance,
            &names,
            &mut host,
            distrust_apps::threshold_signer::METHOD_SIGN,
            &message,
        )
        .expect("signing succeeds")
    }
}

impl SigningBench {
    /// Spins up the requested environment with a deterministic share.
    pub fn start(environment: Environment) -> std::io::Result<Self> {
        let mut rng = distrust_crypto::drbg::HmacDrbg::new(b"table3 bench", b"dealer");
        let keys = threshold::generate(3, 5, &mut rng).expect("keygen");
        let share = keys.shares[0];

        let (server, addr) = match environment {
            Environment::Baseline => {
                let host = DirectHost::spawn(native_service(share))?;
                let addr = host.addr();
                (Server::Direct(host), addr)
            }
            Environment::GuestNative => {
                let host = DirectHost::spawn(replay_service(share))?;
                let addr = host.addr();
                (Server::Direct(host), addr)
            }
            Environment::Sandbox => {
                let host = DirectHost::spawn(sandbox_service(share))?;
                let addr = host.addr();
                (Server::Direct(host), addr)
            }
            Environment::TeeSandbox => {
                // The sandboxed application runs as its own "process"
                // behind a socket (the framework ↔ app socket of §5)…
                let inner = DirectHost::spawn(sandbox_service(share))?;
                let inner_addr = inner.addr();
                // …and the enclave interior forwards to it, itself sitting
                // behind the host's vsock-like proxy (the second extra
                // socket).
                let mut upstream = TcpTransport::connect(inner_addr)?;
                let outer = EnclaveHost::spawn(move |message: Vec<u8>| {
                    upstream.send(&message).expect("sandbox process reachable");
                    upstream.recv().expect("sandbox process answers")
                })?;
                let addr = outer.addr();
                (Server::Tee(outer, inner), addr)
            }
            Environment::TeeTomorrow => {
                // §4.2: "the hardware could instead isolate the framework
                // from the application binary directly" — no in-TEE
                // socket; the sandbox runs in the enclave interior.
                let host = EnclaveHost::spawn(sandbox_service(share))?;
                let addr = host.addr();
                (Server::TeeDirect(host), addr)
            }
        };
        let client = TcpTransport::connect(addr)?;
        Ok(Self {
            client,
            _server: server,
            share,
        })
    }

    /// One end-to-end signing request: the request/response exchange and
    /// nothing else, so a timed sample holds no client-side decoding.
    /// Returns the reply, a compressed partial signature.
    pub fn sign(&mut self, message: &[u8]) -> Vec<u8> {
        self.client.send(message).expect("send");
        self.client.recv().expect("exchange")
    }

    /// Decodes a reply and checks it against native signing (all the
    /// environments must produce bit-identical signatures).
    pub fn verify_output(&self, message: &[u8], reply: &[u8]) -> bool {
        let decoded = <[u8; 48]>::try_from(reply)
            .ok()
            .and_then(|bytes| Signature::from_bytes(&bytes));
        decoded == Some(threshold::partial_sign(&self.share, message).value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_environments_produce_identical_signatures() {
        let msg = b"cross-environment agreement";
        let mut sigs = Vec::new();
        for env in [
            Environment::Baseline,
            Environment::GuestNative,
            Environment::Sandbox,
            Environment::TeeSandbox,
            Environment::TeeTomorrow,
        ] {
            let mut bench = SigningBench::start(env).expect("start");
            let sig = bench.sign(msg);
            assert!(bench.verify_output(msg, &sig), "{env:?}");
            sigs.push(sig);
        }
        assert_eq!(sigs[0], sigs[1]);
        assert_eq!(sigs[1], sigs[2]);
        assert_eq!(sigs[2], sigs[3]);
        assert_eq!(sigs[3], sigs[4]);
    }

    #[test]
    fn repeated_requests_are_stable() {
        let mut bench = SigningBench::start(Environment::TeeSandbox).expect("start");
        let a = bench.sign(b"m1");
        let b = bench.sign(b"m2");
        let a2 = bench.sign(b"m1");
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }
}
