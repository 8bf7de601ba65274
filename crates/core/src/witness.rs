//! Witness relays: one socket that answers for the whole deployment.
//!
//! The paper's checkpoint-gossip story assumes clients with the time and
//! connectivity to audit every trust domain. A *relay* serves the clients
//! that have neither: it holds the witness quorum's latest cosigned head
//! vector ([`CosignedHeads`]) and hands it out over a single
//! request/response exchange — one aggregated-signature verification on
//! the client covers all `n` domains. The relay also participates in the
//! gossip mesh ([`GossipNode`]), so transferable misbehavior evidence it
//! has collected rides along to every thin client that asks.
//!
//! A relay is *untrusted for safety*: it serves bytes that carry their own
//! cryptographic weight (an aggregated BLS signature, domain-signed
//! checkpoints, conflicting-signature evidence). A lying relay can
//! withhold news — a liveness attack the client bounds with its staleness
//! policy — but cannot forge a head vector the quorum never signed.

use crate::client::ClientError;
use crate::protocol::{Request, Response};
use crate::server::DirectHost;
use distrust_crypto::schnorr::VerifyingKey;
use distrust_gossip::envelope::GossipEnvelope;
use distrust_gossip::mesh::GossipNode;
use distrust_gossip::witness::CosignedHeads;
use distrust_tee::host::EnclaveClient;
use distrust_wire::codec::{Decode, Encode};
use distrust_wire::sync::HealthyMutex;
use std::net::SocketAddr;
use std::sync::Arc;

/// Shared state behind the relay's service closure.
struct RelayState {
    /// The freshest cosigned head vector installed so far.
    cosigned: Option<CosignedHeads>,
    /// Gossip-mesh participation: verified heads and evidence.
    node: GossipNode,
}

/// A running witness relay on an ephemeral loopback port.
///
/// Serves exactly two requests — [`Request::WitnessHead`] and
/// [`Request::Gossip`] — and answers everything else (including
/// undecodable frames) with [`Response::Error`], the same shape a
/// pre-gossip domain gives, so probing clients degrade identically.
pub struct WitnessRelay {
    host: DirectHost,
    state: Arc<HealthyMutex<RelayState>>,
}

impl WitnessRelay {
    /// Spawns a relay for a deployment whose per-domain checkpoint keys
    /// are `keys` (index = domain). The relay starts with no cosigned
    /// head; [`WitnessRelay::install`] publishes one.
    pub fn spawn(keys: Vec<VerifyingKey>) -> std::io::Result<Self> {
        let state = Arc::new(HealthyMutex::new(RelayState {
            cosigned: None,
            node: GossipNode::new(keys),
        }));
        let shared = Arc::clone(&state);
        let host = DirectHost::spawn(move |request: Vec<u8>| handle(&shared, &request).to_wire())?;
        Ok(Self { host, state })
    }

    /// Address thin clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.host.addr()
    }

    /// Publishes a fresh cosigned head vector. The relay does not verify
    /// it — it cannot, without knowing which quorum key each client
    /// trusts — and does not need to: clients verify on receipt.
    pub fn install(&self, cosigned: CosignedHeads) {
        self.state.lock_healthy().cosigned = Some(cosigned);
    }

    /// Feeds an envelope into the relay's gossip node directly (the
    /// local path an operator-side auditor uses; remote peers use
    /// [`Request::Gossip`]).
    pub fn ingest(&self, envelope: &GossipEnvelope) {
        self.state.lock_healthy().node.ingest(envelope);
    }

    /// Domains the relay holds verified equivocation evidence against.
    pub fn convicted_domains(&self) -> Vec<u32> {
        self.state.lock_healthy().node.convicted_domains()
    }

    /// Stops serving. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.host.shutdown();
    }
}

/// One relay request, decoded, dispatched, answered.
fn handle(state: &HealthyMutex<RelayState>, request: &[u8]) -> Response {
    let request = match Request::from_wire(request) {
        Ok(request) => request,
        Err(e) => return Response::Error(format!("malformed request: {e}")),
    };
    // One lock acquisition for the whole dispatch: requests are short
    // and taking the guard once keeps the lock discipline trivial.
    let mut state = state.lock_healthy();
    match request {
        Request::WitnessHead => Response::WitnessHead {
            cosigned: state.cosigned.clone(),
        },
        Request::Gossip { envelope } => {
            state.node.ingest(&envelope);
            Response::Gossip {
                envelope: state.node.envelope(),
            }
        }
        other => Response::Error(format!(
            "relay serves only gossip and witness-head requests, got {other:?}"
        )),
    }
}

/// Fetches the relay's current cosigned head vector over one exchange.
/// `Ok(None)` means the relay is up but has no head installed yet.
pub fn fetch_witness_head(addr: SocketAddr) -> Result<Option<CosignedHeads>, ClientError> {
    let response = exchange(addr, &Request::WitnessHead)?;
    match response {
        Response::WitnessHead { cosigned } => Ok(cosigned),
        Response::Error(e) => Err(ClientError::App(e)),
        other => Err(ClientError::Unexpected(format!(
            "expected WitnessHead response, got {other:?}"
        ))),
    }
}

/// One gossip exchange with a relay (or any gossip-capable peer): offers
/// `envelope`, returns whatever the peer knows. The caller verifies the
/// reply's contents against its own pinned keys before acting on them.
pub fn exchange_gossip(
    addr: SocketAddr,
    envelope: &GossipEnvelope,
) -> Result<GossipEnvelope, ClientError> {
    let response = exchange(
        addr,
        &Request::Gossip {
            envelope: envelope.clone(),
        },
    )?;
    match response {
        Response::Gossip { envelope } => Ok(envelope),
        Response::Error(e) => Err(ClientError::App(e)),
        other => Err(ClientError::Unexpected(format!(
            "expected Gossip response, got {other:?}"
        ))),
    }
}

fn exchange(addr: SocketAddr, request: &Request) -> Result<Response, ClientError> {
    let mut client = EnclaveClient::connect(addr).map_err(ClientError::Io)?;
    let raw = client
        .exchange(&request.to_wire())
        .map_err(ClientError::Io)?;
    Response::from_wire(&raw).map_err(ClientError::Decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_crypto::drbg::HmacDrbg;
    use distrust_crypto::schnorr::SigningKey;
    use distrust_crypto::threshold;
    use distrust_gossip::envelope::GossipHead;
    use distrust_gossip::witness::cosign_signing_bytes;
    use distrust_log::checkpoint::{log_id, CheckpointBody, SignedCheckpoint};

    fn domain_key(domain: u32) -> SigningKey {
        SigningKey::derive(b"relay-tests", &domain.to_le_bytes())
    }

    fn checkpoint(domain: u32, head: u8, size: u64) -> SignedCheckpoint {
        SignedCheckpoint::sign(
            CheckpointBody {
                log_id: log_id(b"relay-tests", domain),
                size,
                head: [head; 32],
                logical_time: size,
            },
            &domain_key(domain),
        )
    }

    fn spawn_relay(domains: u32) -> WitnessRelay {
        let keys = (0..domains)
            .map(|d| domain_key(d).verifying_key())
            .collect();
        WitnessRelay::spawn(keys).unwrap()
    }

    #[test]
    fn serves_installed_cosigned_head() {
        let mut relay = spawn_relay(2);
        assert_eq!(fetch_witness_head(relay.addr()).unwrap(), None);

        let mut rng = HmacDrbg::new(b"relay-tests", b"quorum");
        let keys = threshold::generate(1, 1, &mut rng).unwrap();
        let heads = vec![checkpoint(0, 0x11, 1).body, checkpoint(1, 0x22, 2).body];
        let partial = threshold::partial_sign(&keys.shares[0], &cosign_signing_bytes(&heads));
        let cosigned = CosignedHeads {
            heads,
            signature: partial.value,
        };
        relay.install(cosigned.clone());

        let fetched = fetch_witness_head(relay.addr()).unwrap().unwrap();
        assert_eq!(fetched, cosigned);
        assert!(fetched.verify(&keys.public_key));
        relay.shutdown();
    }

    #[test]
    fn gossip_exchange_spreads_heads() {
        let mut relay = spawn_relay(2);
        let offer = GossipEnvelope {
            heads: vec![GossipHead {
                domain: 1,
                checkpoint: checkpoint(1, 0x33, 5),
            }],
            evidence: Vec::new(),
        };
        // The relay merges the offer first, so even the offering exchange
        // sees its own head reflected in the reply.
        let reply = exchange_gossip(relay.addr(), &offer).unwrap();
        assert_eq!(reply.heads.len(), 1);
        // A later empty exchange still sees the head the first delivered.
        let reply = exchange_gossip(relay.addr(), &GossipEnvelope::empty()).unwrap();
        assert_eq!(reply.heads.len(), 1);
        assert_eq!(reply.heads[0].domain, 1);
        relay.shutdown();
    }

    #[test]
    fn refuses_non_gossip_requests_and_garbage() {
        let mut relay = spawn_relay(1);
        let mut client = EnclaveClient::connect(relay.addr()).unwrap();
        let raw = client
            .exchange(&Request::GetLogEntries { from: 0 }.to_wire())
            .unwrap();
        assert!(matches!(
            Response::from_wire(&raw).unwrap(),
            Response::Error(_)
        ));
        let raw = client.exchange(&[0xff, 0xee]).unwrap();
        match Response::from_wire(&raw).unwrap() {
            Response::Error(e) => assert!(e.starts_with("malformed request")),
            other => panic!("expected error, got {other:?}"),
        }
        relay.shutdown();
    }
}
