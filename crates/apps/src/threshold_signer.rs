//! The paper's prototype application (§5): BLS threshold signing.
//!
//! "We implement a BLS threshold signature application on top of our
//! framework: each trust domain stores a secret key share, and the trust
//! domains can jointly sign a message."
//!
//! Faithful to the prototype's architecture, the signing computation runs
//! *inside the sandbox*: the guest executes the complete double-and-add
//! scalar ladder — including the Jacobian point-doubling and mixed-addition
//! formulas — with only the 381-bit **field operations** exposed as host
//! imports (the analogue of a Wasm build calling a native bignum, with the
//! thousands of guest↔host boundary crossings and interpreted control flow
//! that the paper's Table 3 prices). The share itself lives host-side,
//! sealed to the trust domain; partial signatures leave through the guest
//! outbox and aggregate client-side into a standard BLS signature under
//! the group public key.
//!
//! The client verifies what it returns, not what it receives: it
//! aggregates the first `t` partials that parse and checks the *aggregate*
//! under the group key — one pairing check per signature. BLS signatures
//! are unique, so an aggregate that passes is the group signature whatever
//! the partials looked like one by one. The per-partial Feldman checks are
//! the slow path that names a lying domain, and run only once an aggregate
//! has failed (see [`distrust_crypto::threshold::Combiner`]).
//!
//! Method ids: `1` = sign (payload = message bytes, response = 48-byte
//! compressed partial signature), `2` = share index (1 byte).

use distrust_core::abi::{AppHost, OUTBOX_ADDR};
use distrust_core::deploy::AppSpec;
use distrust_core::session::Session;
use distrust_core::ClientError;
use distrust_crypto::bls::{PublicKey, Signature};
use distrust_crypto::fp::Fp;
use distrust_crypto::g1::{hash_to_g1, G1Projective};
use distrust_crypto::threshold::{
    self, FeldmanCommitments, KeyShare, PartialSignature, ThresholdError,
};
use distrust_sandbox::vm::Memory;
use distrust_sandbox::{FuncBuilder, Instr, Limits, Module, ModuleBuilder};

/// Method id for signing.
pub const METHOD_SIGN: u64 = 1;
/// Method id for querying the share index.
pub const METHOD_INDEX: u64 = 2;

/// Guest memory slots holding the Fp handles of the accumulator (Jacobian)
/// and the base point (affine).
mod layout {
    pub const ACC_X: u64 = 256;
    pub const ACC_Y: u64 = 264;
    pub const ACC_Z: u64 = 272;
    pub const BASE_X: u64 = 288;
    pub const BASE_Y: u64 = 296;
}

/// Import indices (order of declaration below).
struct Imports {
    hash_msg: u16,
    sq: u16,
    mul: u16,
    add: u16,
    sub: u16,
    dbl: u16,
    tpl: u16,
    one: u16,
    is_zero: u16,
    share_bit: u16,
    emit: u16,
    share_index: u16,
}

fn declare_imports(mb: &mut ModuleBuilder) -> Imports {
    Imports {
        // Resets the handle table, hashes the message to an affine G1
        // point, returns (x_handle, y_handle).
        hash_msg: mb.import("bls.hash_msg", 2, 2),
        sq: mb.import("fp.sq", 1, 1),
        mul: mb.import("fp.mul", 2, 1),
        add: mb.import("fp.add", 2, 1),
        sub: mb.import("fp.sub", 2, 1),
        dbl: mb.import("fp.dbl", 1, 1),
        tpl: mb.import("fp.tpl", 1, 1),
        one: mb.import("fp.one", 0, 1),
        is_zero: mb.import("fp.is_zero", 1, 1),
        share_bit: mb.import("bls.share_bit", 1, 1),
        // emit(x, y, z): Jacobian → affine → compressed bytes → outbox.
        emit: mb.import("bls.emit", 3, 1),
        share_index: mb.import("bls.share_index", 0, 1),
    }
}

/// Builds the guest function for Jacobian point doubling (a = 0 curve):
/// reads the accumulator handles from memory, runs the dbl-2009-l-style
/// formula through field host calls, writes the result handles back.
fn build_double(im: &Imports) -> distrust_sandbox::Function {
    // locals: 0=X 1=Y 2=Z 3=A 4=B 5=C 6=D 7=E 8=F 9=Z3
    // Z3 is computed first because it needs the old Y, which the Y3 slot
    // overwrites.
    let mut f = FuncBuilder::new(0, 10, 0);
    f.constant(layout::ACC_X).load64(0).lset(0);
    f.constant(layout::ACC_Y).load64(0).lset(1);
    f.constant(layout::ACC_Z).load64(0).lset(2);
    // Z3 first (needs old Y and old Z): Z3 = 2·Y·Z  → stash in local 9.
    f.lget(1).lget(2).host(im.mul).host(im.dbl).lset(9);
    // A = X²; B = Y²; C = B²
    f.lget(0).host(im.sq).lset(3);
    f.lget(1).host(im.sq).lset(4);
    f.lget(4).host(im.sq).lset(5);
    // D = 2·((X + B)² − A − C)  → local 6
    f.lget(0).lget(4).host(im.add).host(im.sq).lset(6);
    f.lget(6).lget(3).host(im.sub).lset(6);
    f.lget(6).lget(5).host(im.sub).lset(6);
    f.lget(6).host(im.dbl).lset(6);
    // E = 3A → 7 ; F = E² → 8
    f.lget(3).host(im.tpl).lset(7);
    f.lget(7).host(im.sq).lset(8);
    // X3 = F − 2D → local 0
    f.lget(6).host(im.dbl).lset(4); // reuse 4 as temp (B dead)
    f.lget(8).lget(4).host(im.sub).lset(0);
    // Y3 = E·(D − X3) − 8C → local 1
    f.lget(6).lget(0).host(im.sub).lset(4);
    f.lget(7).lget(4).host(im.mul).lset(4);
    f.lget(5).host(im.dbl).host(im.dbl).host(im.dbl).lset(5);
    f.lget(4).lget(5).host(im.sub).lset(1);
    // Store back.
    f.constant(layout::ACC_X).lget(0).store64(0);
    f.constant(layout::ACC_Y).lget(1).store64(0);
    f.constant(layout::ACC_Z).lget(9).store64(0);
    f.ret();
    f.build().expect("double builds")
}

/// Builds the guest function for mixed addition `acc += base` (madd-2007-bl
/// with Z2 = 1). Traps if `acc == ±base` (probability ≈ 2⁻²⁵⁵ in the
/// ladder; a trap is contained by the framework).
fn build_add_base(im: &Imports) -> distrust_sandbox::Function {
    // locals: 0=X1 1=Y1 2=Z1 3=X2 4=Y2 5=Z1Z1 6=H 7=I 8=J 9=r 10=V 11=t 12=u
    let mut f = FuncBuilder::new(0, 13, 0);
    f.constant(layout::ACC_X).load64(0).lset(0);
    f.constant(layout::ACC_Y).load64(0).lset(1);
    f.constant(layout::ACC_Z).load64(0).lset(2);
    f.constant(layout::BASE_X).load64(0).lset(3);
    f.constant(layout::BASE_Y).load64(0).lset(4);
    // Z1Z1 = Z1²
    f.lget(2).host(im.sq).lset(5);
    // U2 = X2·Z1Z1 → t ; H = U2 − X1
    f.lget(3).lget(5).host(im.mul).lset(11);
    f.lget(11).lget(0).host(im.sub).lset(6);
    // Degenerate case guard.
    f.lget(6).host(im.is_zero).jz("ok");
    f.op(Instr::Trap);
    f.label("ok");
    // S2 = Y2·Z1·Z1Z1 → t
    f.lget(4).lget(2).host(im.mul).lset(11);
    f.lget(11).lget(5).host(im.mul).lset(11);
    // r = 2·(S2 − Y1)
    f.lget(11).lget(1).host(im.sub).host(im.dbl).lset(9);
    // HH = H² → u ; I = 4·HH ; J = H·I
    f.lget(6).host(im.sq).lset(12);
    f.lget(12).host(im.dbl).host(im.dbl).lset(7);
    f.lget(6).lget(7).host(im.mul).lset(8);
    // V = X1·I
    f.lget(0).lget(7).host(im.mul).lset(10);
    // X3 = r² − J − 2V
    f.lget(9).host(im.sq).lset(11);
    f.lget(11).lget(8).host(im.sub).lset(11);
    f.lget(10).host(im.dbl).lset(7); // reuse 7 (I dead)
    f.lget(11).lget(7).host(im.sub).lset(11); // X3 in t (11)
                                              // Y3 = r·(V − X3) − 2·Y1·J
    f.lget(10).lget(11).host(im.sub).lset(7);
    f.lget(9).lget(7).host(im.mul).lset(7);
    f.lget(1).lget(8).host(im.mul).host(im.dbl).lset(8);
    f.lget(7).lget(8).host(im.sub).lset(7); // Y3 in 7
                                            // Z3 = (Z1 + H)² − Z1Z1 − HH
    f.lget(2).lget(6).host(im.add).host(im.sq).lset(8);
    f.lget(8).lget(5).host(im.sub).lset(8);
    f.lget(8).lget(12).host(im.sub).lset(8); // Z3 in 8
                                             // Store back.
    f.constant(layout::ACC_X).lget(11).store64(0);
    f.constant(layout::ACC_Y).lget(7).store64(0);
    f.constant(layout::ACC_Z).lget(8).store64(0);
    f.ret();
    f.build().expect("add_base builds")
}

/// Builds the threshold-signer guest module. Function indices: 0 = the
/// exported `handle`, 1 = point doubling, 2 = mixed addition.
pub fn signer_module() -> Module {
    let mut mb = ModuleBuilder::new(1, 1);
    let im = declare_imports(&mut mb);

    // handle(method, addr, len) -> outbox length
    // locals: 3 = bit index i
    let mut f = FuncBuilder::new(3, 1, 1);
    f.lget(0).constant(METHOD_SIGN).op(Instr::Eq).jnz("sign");
    f.lget(0).constant(METHOD_INDEX).op(Instr::Eq).jnz("index");
    f.op(Instr::Trap);

    // --- share index query.
    f.label("index")
        .constant(OUTBOX_ADDR)
        .host(im.share_index)
        .store8(0)
        .constant(1)
        .ret();

    // --- the signing ladder.
    f.label("sign");
    // base = H(m): host returns (x, y); store handles (y on top).
    f.lget(1).lget(2).host(im.hash_msg);
    f.constant(layout::BASE_Y).op(Instr::Swap).store64(0);
    f.constant(layout::BASE_X).op(Instr::Swap).store64(0);
    // Find the top set bit of the share, scanning from 254 down.
    f.constant(254).lset(3);
    f.label("scan");
    f.lget(3).host(im.share_bit).jnz("found");
    f.lget(3).constant(1).sub().lset(3);
    f.jmp("scan"); // share == 0 is rejected at keygen; bit must exist.
    f.label("found");
    // acc = (base_x, base_y, 1)
    f.constant(layout::ACC_X)
        .constant(layout::BASE_X)
        .load64(0)
        .store64(0);
    f.constant(layout::ACC_Y)
        .constant(layout::BASE_Y)
        .load64(0)
        .store64(0);
    f.constant(layout::ACC_Z).host(im.one).store64(0);
    // for i-1 down to 0: acc = 2·acc; if bit(i): acc += base
    f.label("ladder");
    f.lget(3).jz("emit_point");
    f.lget(3).constant(1).sub().lset(3);
    f.call(1); // double
    f.lget(3).host(im.share_bit).jz("ladder");
    f.call(2); // add_base
    f.jmp("ladder");
    // Emit the compressed point and return its length.
    f.label("emit_point");
    f.constant(layout::ACC_X).load64(0);
    f.constant(layout::ACC_Y).load64(0);
    f.constant(layout::ACC_Z).load64(0);
    f.host(im.emit).ret();

    let handle_idx = mb.function(f.build().expect("signer guest builds"));
    let double_idx = mb.function(build_double(&im));
    let add_idx = mb.function(build_add_base(&im));
    debug_assert_eq!((handle_idx, double_idx, add_idx), (0, 1, 2));
    mb.export(distrust_core::abi::HANDLE_EXPORT, handle_idx);
    mb.build()
}

/// Host-side state for one trust domain: its key share and the Fp-element
/// slot table the guest addresses by handle.
pub struct SignerHost {
    share: KeyShare,
    share_bits: [u64; 4],
    slots: Vec<Fp>,
}

impl SignerHost {
    /// Wraps a share.
    pub fn new(share: KeyShare) -> Self {
        Self {
            share_bits: share.value.to_canonical_limbs(),
            share,
            slots: Vec::new(),
        }
    }

    fn push_slot(&mut self, v: Fp) -> u64 {
        self.slots.push(v);
        (self.slots.len() - 1) as u64
    }

    fn slot(&self, h: u64) -> Result<Fp, String> {
        self.slots
            .get(h as usize)
            .copied()
            .ok_or_else(|| format!("invalid field handle {h}"))
    }
}

impl AppHost for SignerHost {
    fn call(&mut self, name: &str, args: &[u64], memory: &mut Memory) -> Result<Vec<u64>, String> {
        match name {
            "bls.hash_msg" => {
                let (addr, len) = (args[0], args[1]);
                let msg = memory.read(addr, len).map_err(|e| e.to_string())?.to_vec();
                self.slots.clear();
                let h = hash_to_g1(&msg, distrust_crypto::bls::MSG_DST).to_affine();
                let hx = self.push_slot(h.x);
                let hy = self.push_slot(h.y);
                Ok(vec![hx, hy])
            }
            "fp.sq" => {
                let a = self.slot(args[0])?;
                Ok(vec![self.push_slot(a.square())])
            }
            "fp.mul" => {
                let (a, b) = (self.slot(args[0])?, self.slot(args[1])?);
                Ok(vec![self.push_slot(a.mul(&b))])
            }
            "fp.add" => {
                let (a, b) = (self.slot(args[0])?, self.slot(args[1])?);
                Ok(vec![self.push_slot(a.add(&b))])
            }
            "fp.sub" => {
                let (a, b) = (self.slot(args[0])?, self.slot(args[1])?);
                Ok(vec![self.push_slot(a.sub(&b))])
            }
            "fp.dbl" => {
                let a = self.slot(args[0])?;
                Ok(vec![self.push_slot(a.double())])
            }
            "fp.tpl" => {
                let a = self.slot(args[0])?;
                Ok(vec![self.push_slot(a.double().add(&a))])
            }
            "fp.one" => Ok(vec![self.push_slot(Fp::ONE)]),
            "fp.is_zero" => {
                let a = self.slot(args[0])?;
                Ok(vec![a.is_zero() as u64])
            }
            "bls.share_bit" => {
                let i = args[0];
                if i >= 256 {
                    return Err(format!("share bit index {i} out of range"));
                }
                let bit = (self.share_bits[(i / 64) as usize] >> (i % 64)) & 1;
                Ok(vec![bit])
            }
            "bls.emit" => {
                let point = G1Projective {
                    x: self.slot(args[0])?,
                    y: self.slot(args[1])?,
                    z: self.slot(args[2])?,
                };
                let bytes = point.to_affine().to_compressed();
                memory
                    .write(OUTBOX_ADDR, &bytes)
                    .map_err(|e| e.to_string())?;
                Ok(vec![bytes.len() as u64])
            }
            "bls.share_index" => Ok(vec![self.share.index as u64]),
            other => Err(format!("unknown import {other:?}")),
        }
    }
}

/// Public parameters of a threshold-signing deployment.
#[derive(Clone, Debug)]
pub struct ThresholdPublic {
    /// Signing threshold `t`.
    pub threshold: usize,
    /// The group public key (a standard BLS key).
    pub public_key: PublicKey,
    /// Feldman commitments for partial-signature verification.
    pub commitments: FeldmanCommitments,
}

/// Dealer setup: generates shares for `n` domains with threshold `t` and
/// packages the [`AppSpec`] (module + per-domain hosts) plus the public
/// parameters.
pub fn setup<R: rand::RngCore + ?Sized>(
    t: usize,
    n: usize,
    rng: &mut R,
) -> Result<(AppSpec, ThresholdPublic), ThresholdError> {
    let keys = threshold::generate(t, n, rng)?;
    // Every share holder verifies its share against the commitments before
    // accepting it (Feldman VSS): a dealer that hands one domain a share
    // off the committed polynomial is caught here, not at signing time.
    for share in &keys.shares {
        assert!(
            keys.commitments.verify_share(share),
            "dealer produced an invalid share"
        );
    }
    let hosts: Vec<Box<dyn AppHost>> = keys
        .shares
        .iter()
        .map(|s| Box::new(SignerHost::new(*s)) as Box<dyn AppHost>)
        .collect();
    let spec = AppSpec {
        name: "bls-threshold-signer".to_string(),
        module: signer_module(),
        notes: "v1: BLS threshold signing service".to_string(),
        hosts,
        limits: Limits::default(),
    };
    Ok((
        spec,
        ThresholdPublic {
            threshold: t,
            public_key: keys.public_key,
            commitments: keys.commitments,
        },
    ))
}

/// Errors from the signing client.
#[derive(Debug)]
pub enum SignError {
    /// Too few domains answered with valid partial signatures.
    NotEnoughPartials {
        /// Partials still held when no domain was left to ask: every one
        /// parses, none has failed a Feldman check.
        got: usize,
        /// Threshold required.
        need: usize,
    },
    /// Aggregation failed, or the aggregate fails under the group key
    /// although every partial passes its Feldman check
    /// ([`ThresholdError::KeyMismatch`]: inconsistent public parameters).
    Threshold(ThresholdError),
    /// Transport failure talking to a domain.
    Client(ClientError),
}

impl core::fmt::Display for SignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NotEnoughPartials { got, need } => {
                write!(f, "only {got} valid partial signatures, need {need}")
            }
            Self::Threshold(e) => write!(f, "aggregation failed: {e}"),
            Self::Client(e) => write!(f, "transport failure: {e}"),
        }
    }
}

impl std::error::Error for SignError {}

/// Client-side signing orchestration: request partial signatures from
/// domains, aggregate the first `t` that parse, verify the aggregate under
/// the group key, and fall back to the per-partial Feldman checks only to
/// name and replace a lying domain.
pub struct ThresholdSigningClient {
    /// Public parameters.
    pub public: ThresholdPublic,
}

impl ThresholdSigningClient {
    /// Creates the client.
    pub fn new(public: ThresholdPublic) -> Self {
        Self { public }
    }

    /// Requests one partial signature from one domain (domain `d` holds
    /// share index `d + 1`).
    pub fn partial_from_domain(
        &self,
        session: &mut Session<'_>,
        domain: u32,
        message: &[u8],
    ) -> Result<PartialSignature, SignError> {
        let payload = session
            .call(domain, METHOD_SIGN, message)
            .map_err(SignError::Client)?;
        Self::parse_partial(domain, &payload)
    }

    fn parse_partial(domain: u32, payload: &[u8]) -> Result<PartialSignature, SignError> {
        let bytes: [u8; 48] = payload
            .try_into()
            .map_err(|_| SignError::Client(ClientError::Unexpected("bad sig length".into())))?;
        let value = Signature::from_bytes(&bytes)
            .ok_or_else(|| SignError::Client(ClientError::Unexpected("bad sig point".into())))?;
        Ok(PartialSignature {
            index: (domain + 1) as u8,
            value,
        })
    }

    /// Full signing flow across the deployment.
    ///
    /// The message is broadcast to every domain in one pipelined fan-out
    /// under [`distrust_core::QuorumPolicy::Threshold`]`(t)` (via
    /// [`Session::fanout_collect`]): all `n` sign requests are in flight
    /// at once and collection stops at the `t`-th answer that parses
    /// (48 canonical bytes, on the curve, in the subgroup) — a slow or
    /// dead domain does not delay the signature as long as `t` domains are
    /// healthy.
    ///
    /// Order of operations: hash the message once; aggregate the `t`
    /// partials; check the aggregate under the group key; return it. That
    /// is one pairing check per signature, and it is the check the caller
    /// relies on: `Ok(σ)` is returned only for a `σ` this call has itself
    /// verified under [`ThresholdPublic::public_key`]. Because exactly one
    /// signature verifies for a given key and message, a passing aggregate
    /// *is* the group signature — no statement is made about the partials
    /// it came from. Only when the aggregate fails are the held partials
    /// checked one by one against the Feldman commitments (same `H(m)`,
    /// each partial at most once): the failing ones are dropped, and
    /// collection continues from the domains whose responses were
    /// abandoned. A domain whose answer was read is never asked again, so
    /// a lying minority costs one failed check per round it spoils, at
    /// most `n − t` rounds, and cannot stop signing.
    pub fn sign(&self, session: &mut Session<'_>, message: &[u8]) -> Result<Signature, SignError> {
        let t = self.public.threshold;
        let mut combiner = threshold::Combiner::new(
            t,
            &self.public.public_key,
            &self.public.commitments,
            message,
        );
        let mut combined = Ok(None);
        let partials = session
            .fanout_collect(
                METHOD_SIGN,
                message.to_vec(),
                t,
                |d, payload| Self::parse_partial(d, payload).ok(),
                |batch| combined = combiner.combine(batch),
            )
            .map_err(SignError::Client)?;
        combined
            .map_err(SignError::Threshold)?
            .ok_or(SignError::NotEnoughPartials {
                got: partials.len(),
                need: t,
            })
    }
}

/// Runs the signing ladder directly on an instance (no deployment, no
/// sockets) — the "Sandbox" row of Table 3.
pub fn sign_in_sandbox(
    instance: &mut distrust_sandbox::Instance,
    import_names: &[String],
    host: &mut SignerHost,
    message: &[u8],
) -> Result<Signature, String> {
    let out = distrust_core::abi::app_call(instance, import_names, host, METHOD_SIGN, message)
        .map_err(|e| e.to_string())?;
    let bytes: [u8; 48] = out
        .as_slice()
        .try_into()
        .map_err(|_| "bad length".to_string())?;
    Signature::from_bytes(&bytes).ok_or_else(|| "bad point".to_string())
}

/// Native partial signing — the "Baseline" row of Table 3.
pub fn sign_native(share: &KeyShare, message: &[u8]) -> Signature {
    threshold::partial_sign(share, message).value
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_core::abi::import_names;
    use distrust_crypto::drbg::HmacDrbg;
    use distrust_sandbox::Instance;

    #[test]
    fn guest_ladder_matches_native_partial_sign() {
        let mut rng = HmacDrbg::new(b"signer tests", b"ladder");
        let keys = threshold::generate(2, 3, &mut rng).unwrap();
        let module = signer_module();
        let names = import_names(&module);
        for share in &keys.shares {
            let mut inst = Instance::new(module.clone(), Limits::default()).unwrap();
            let mut host = SignerHost::new(*share);
            let msg = b"table 3 workload";
            let guest_sig = sign_in_sandbox(&mut inst, &names, &mut host, msg).unwrap();
            let native_sig = sign_native(share, msg);
            assert_eq!(guest_sig, native_sig, "share {}", share.index);
        }
    }

    #[test]
    fn guest_ladder_many_messages() {
        let mut rng = HmacDrbg::new(b"signer tests", b"many");
        let keys = threshold::generate(1, 1, &mut rng).unwrap();
        let share = keys.shares[0];
        let module = signer_module();
        let names = import_names(&module);
        let mut inst = Instance::new(module, Limits::default()).unwrap();
        let mut host = SignerHost::new(share);
        for i in 0..5 {
            let msg = format!("message number {i}");
            let guest = sign_in_sandbox(&mut inst, &names, &mut host, msg.as_bytes()).unwrap();
            assert_eq!(guest, sign_native(&share, msg.as_bytes()), "msg {i}");
        }
    }

    #[test]
    fn guest_partials_aggregate_to_valid_group_signature() {
        let mut rng = HmacDrbg::new(b"signer tests", b"aggregate");
        let keys = threshold::generate(3, 5, &mut rng).unwrap();
        let module = signer_module();
        let names = import_names(&module);
        let msg = b"joint statement";
        let mut partials = Vec::new();
        for share in &keys.shares[1..4] {
            let mut inst = Instance::new(module.clone(), Limits::default()).unwrap();
            let mut host = SignerHost::new(*share);
            let sig = sign_in_sandbox(&mut inst, &names, &mut host, msg).unwrap();
            partials.push(PartialSignature {
                index: share.index,
                value: sig,
            });
        }
        let agg = threshold::aggregate(3, &partials).unwrap();
        assert!(keys.public_key.verify(msg, &agg));
    }

    #[test]
    fn share_index_method() {
        let mut rng = HmacDrbg::new(b"signer tests", b"index");
        let keys = threshold::generate(1, 2, &mut rng).unwrap();
        let module = signer_module();
        let names = import_names(&module);
        let mut inst = Instance::new(module, Limits::default()).unwrap();
        let mut host = SignerHost::new(keys.shares[1]);
        let out =
            distrust_core::abi::app_call(&mut inst, &names, &mut host, METHOD_INDEX, b"").unwrap();
        assert_eq!(out, vec![2u8]);
    }

    #[test]
    fn unknown_method_traps_cleanly() {
        let mut rng = HmacDrbg::new(b"signer tests", b"unknown");
        let keys = threshold::generate(1, 1, &mut rng).unwrap();
        let module = signer_module();
        let names = import_names(&module);
        let mut inst = Instance::new(module, Limits::default()).unwrap();
        let mut host = SignerHost::new(keys.shares[0]);
        let err = distrust_core::abi::app_call(&mut inst, &names, &mut host, 99, b"");
        assert!(err.is_err());
    }

    #[test]
    fn setup_produces_consistent_public() {
        let mut rng = HmacDrbg::new(b"signer tests", b"setup");
        let (spec, public) = setup(2, 4, &mut rng).unwrap();
        assert_eq!(spec.hosts.len(), 4);
        assert_eq!(public.threshold, 2);
        assert_eq!(public.commitments.public_key(), public.public_key);
    }

    #[test]
    fn small_scalar_edge_cases() {
        // Shares with tiny values exercise the top-bit scan.
        let module = signer_module();
        let names = import_names(&module);
        for v in [1u64, 2, 3, 255] {
            let share = KeyShare {
                index: 1,
                value: distrust_crypto::fr::Fr::from_u64(v),
            };
            let mut inst = Instance::new(module.clone(), Limits::default()).unwrap();
            let mut host = SignerHost::new(share);
            let guest = sign_in_sandbox(&mut inst, &names, &mut host, b"edge").unwrap();
            assert_eq!(guest, sign_native(&share, b"edge"), "scalar {v}");
        }
    }
}
