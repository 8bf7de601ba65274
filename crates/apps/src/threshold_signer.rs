//! The paper's prototype application (§5): BLS threshold signing.
//!
//! "We implement a BLS threshold signature application on top of our
//! framework: each trust domain stores a secret key share, and the trust
//! domains can jointly sign a message."
//!
//! Faithful to the prototype's architecture, the signing computation runs
//! *inside the sandbox*: the guest executes the complete scalar ladder —
//! one Jacobian point doubling per digit of the share's width-2 NAF and
//! one mixed addition of `±H(m)` per further non-zero digit, formulas
//! included — with only the 381-bit **field operations** exposed as host
//! imports (the analogue of a Wasm build calling a native bignum, with the
//! thousands of guest↔host boundary crossings and interpreted control flow
//! that the paper's Table 3 prices). The imports are three-address over a
//! fixed host-side register file, the convention every native bignum
//! exposes (`mpz_mul(rop, a, b)`): the guest names the destination
//! register, one crossing per field operation, and a crossing allocates
//! nothing and grows nothing on the host. The share itself lives host-side,
//! sealed to the trust domain; partial signatures leave through the guest
//! outbox and aggregate client-side into a standard BLS signature under
//! the group public key.
//!
//! Table 3's two rows here do not run the same algorithm, as the paper's
//! do (one algorithm compiled to Wasm and natively). Native
//! [`sign_native`] runs the endomorphism-split windowed-NAF kernel
//! ([`G1Projective::multi_scalar`]); the guest walks one signed digit at a
//! time, 7 469 crossings per signature on `e2e`'s share (8 694 with the
//! binary double-and-add before it). `e2e`'s `sandbox.overhead_pct`
//! (traced `share_single`) reads a median ≈ 163 % (≈ 215 % with the
//! binary ladder), not the paper's 46 %. Much of that gap is the
//! algorithm: the host side of the crossings alone (field operations and
//! dispatch, `crypto.host_us_per_sign`) reads about twice native's whole
//! signature. The guest's own split is left until `e2e` stops keeping
//! every reply (ROADMAP 1(c)).
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
use distrust_crypto::bls::{PreparedPublicKey, Signature};
use distrust_crypto::fp::Fp;
use distrust_crypto::fr::Fr;
use distrust_crypto::g1::{hash_to_g1, G1Affine, G1Projective, Naf};
use distrust_crypto::threshold::{
    self, FeldmanCommitments, KeyShare, PartialSignature, ThresholdError,
};
use distrust_sandbox::vm::Memory;
use distrust_sandbox::{FuncBuilder, Instr, Limits, Module, ModuleBuilder};

/// Method id for signing.
pub const METHOD_SIGN: u64 = 1;
/// Method id for querying the share index.
pub const METHOD_INDEX: u64 = 2;

/// The host's field registers, as the guest names them: the accumulator
/// (Jacobian), the base point `H(m)` (affine) with the `y` of `−H(m)`
/// beside it, and the eight temporaries the two point formulas need
/// between them.
mod reg {
    pub const ACC_X: u64 = 0;
    pub const ACC_Y: u64 = 1;
    pub const ACC_Z: u64 = 2;
    pub const BASE_X: u64 = 3;
    pub const BASE_Y: u64 = 4;
    pub const BASE_NEG_Y: u64 = 5;
    /// The first of the eight temporaries.
    pub const T: u64 = 6;
    pub const COUNT: usize = T as usize + 8;
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
    mov: u16,
    is_zero: u16,
    share_digit: u16,
    emit: u16,
    share_index: u16,
}

fn declare_imports(mb: &mut ModuleBuilder) -> Imports {
    Imports {
        // hash_msg(addr, len): hashes the message to an affine G1 point
        // and writes it into the two base registers.
        hash_msg: mb.import("bls.hash_msg", 2, 0),
        // Field operations name their destination register first and
        // return nothing: sq(dst, a), mul(dst, a, b), …, one(dst).
        sq: mb.import("fp.sq", 2, 0),
        mul: mb.import("fp.mul", 3, 0),
        add: mb.import("fp.add", 3, 0),
        sub: mb.import("fp.sub", 3, 0),
        dbl: mb.import("fp.dbl", 2, 0),
        tpl: mb.import("fp.tpl", 2, 0),
        one: mb.import("fp.one", 1, 0),
        mov: mb.import("fp.mov", 2, 0),
        is_zero: mb.import("fp.is_zero", 1, 1),
        // share_digit(i): digit `i` of the share's NAF, as an `i64`.
        share_digit: mb.import("bls.share_digit", 1, 1),
        // emit(x, y, z): the Jacobian point in those three registers →
        // affine → compressed bytes → outbox; returns the length.
        emit: mb.import("bls.emit", 3, 1),
        share_index: mb.import("bls.share_index", 0, 1),
    }
}

/// Emits `import(dst, a)`: one crossing, no result.
fn op2(f: &mut FuncBuilder, import: u16, dst: u64, a: u64) {
    f.constant(dst).constant(a).host(import);
}

/// Emits `import(dst, a, b)`: one crossing, no result.
fn op3(f: &mut FuncBuilder, import: u16, dst: u64, a: u64, b: u64) {
    f.constant(dst).constant(a).constant(b).host(import);
}

/// Builds the guest function for Jacobian point doubling (a = 0 curve):
/// runs the dbl-2009-l formula on the accumulator registers through field
/// host calls, writing X3, Y3 and Z3 in place.
fn build_double(im: &Imports) -> distrust_sandbox::Function {
    use reg::{ACC_X as X, ACC_Y as Y, ACC_Z as Z};
    let [a, b, c, d, e, ff] = [0, 1, 2, 3, 4, 5].map(|t| reg::T + t);
    let mut f = FuncBuilder::new(0, 0, 0);
    // Z3 = 2·Y·Z first: it needs the old Y, which Y3 overwrites.
    op3(&mut f, im.mul, Z, Y, Z);
    op2(&mut f, im.dbl, Z, Z);
    // A = X²; B = Y²; C = B²
    op2(&mut f, im.sq, a, X);
    op2(&mut f, im.sq, b, Y);
    op2(&mut f, im.sq, c, b);
    // D = 2·((X + B)² − A − C)
    op3(&mut f, im.add, d, X, b);
    op2(&mut f, im.sq, d, d);
    op3(&mut f, im.sub, d, d, a);
    op3(&mut f, im.sub, d, d, c);
    op2(&mut f, im.dbl, d, d);
    // E = 3A; F = E²
    op2(&mut f, im.tpl, e, a);
    op2(&mut f, im.sq, ff, e);
    // X3 = F − 2D (B is dead: reuse it)
    op2(&mut f, im.dbl, b, d);
    op3(&mut f, im.sub, X, ff, b);
    // Y3 = E·(D − X3) − 8C
    op3(&mut f, im.sub, b, d, X);
    op3(&mut f, im.mul, b, e, b);
    op2(&mut f, im.dbl, c, c);
    op2(&mut f, im.dbl, c, c);
    op2(&mut f, im.dbl, c, c);
    op3(&mut f, im.sub, Y, b, c);
    f.ret();
    f.build().expect("double builds")
}

/// Builds the guest function for mixed addition `acc += (BASE_X, y)`
/// (madd-2007-bl with Z2 = 1), in place on the accumulator registers; its
/// one parameter names the register of `y`, `BASE_Y` to add `H(m)` and
/// `BASE_NEG_Y` to add `−H(m)`. Traps if `acc == ±(BASE_X, y)`, that is if
/// `H = 0`, which the ladder never asks. Walking a NAF of magnitude
/// `m < r` from its top digit, the accumulator before each addition is
/// `±v·H(m)` with `2 ≤ v`; before every addition but the last digit's
/// `v ≤ m/2 + 2 < r − 1`, and before that one `v ≤ m + 1`. So `v ≡ ±1`
/// (mod `r`) needs `m = r − 2` ending on digit `−1`, and [`share_naf`]
/// never walks that NAF: the share's other NAF, of `2`, takes no
/// addition at all. The trap stays for a guest of another release; a
/// trap is contained by the framework.
fn build_add_base(im: &Imports) -> distrust_sandbox::Function {
    use reg::{ACC_X as X1, ACC_Y as Y1, ACC_Z as Z1, BASE_X as X2};
    let [z1z1, t, h, r, hh, i, j, v] = [0, 1, 2, 3, 4, 5, 6, 7].map(|t| reg::T + t);
    let mut f = FuncBuilder::new(1, 0, 0);
    // Z1Z1 = Z1²; U2 = X2·Z1Z1 → t; H = U2 − X1
    op2(&mut f, im.sq, z1z1, Z1);
    op3(&mut f, im.mul, t, X2, z1z1);
    op3(&mut f, im.sub, h, t, X1);
    // Degenerate case guard.
    f.constant(h).host(im.is_zero).jz("ok");
    f.op(Instr::Trap);
    f.label("ok");
    // S2 = Y2·Z1·Z1Z1 → t (Y2 in the register parameter 0 names);
    // r = 2·(S2 − Y1)
    f.constant(t).lget(0).constant(Z1).host(im.mul);
    op3(&mut f, im.mul, t, t, z1z1);
    op3(&mut f, im.sub, r, t, Y1);
    op2(&mut f, im.dbl, r, r);
    // HH = H²; I = 4·HH; J = H·I; V = X1·I
    op2(&mut f, im.sq, hh, h);
    op2(&mut f, im.dbl, i, hh);
    op2(&mut f, im.dbl, i, i);
    op3(&mut f, im.mul, j, h, i);
    op3(&mut f, im.mul, v, X1, i);
    // X3 = r² − J − 2V (I is dead: reuse it)
    op2(&mut f, im.sq, t, r);
    op3(&mut f, im.sub, t, t, j);
    op2(&mut f, im.dbl, i, v);
    op3(&mut f, im.sub, X1, t, i);
    // Y3 = r·(V − X3) − 2·Y1·J
    op3(&mut f, im.sub, i, v, X1);
    op3(&mut f, im.mul, i, r, i);
    op3(&mut f, im.mul, j, Y1, j);
    op2(&mut f, im.dbl, j, j);
    op3(&mut f, im.sub, Y1, i, j);
    // Z3 = (Z1 + H)² − Z1Z1 − HH
    op3(&mut f, im.add, t, Z1, h);
    op2(&mut f, im.sq, t, t);
    op3(&mut f, im.sub, t, t, z1z1);
    op3(&mut f, im.sub, Z1, t, hh);
    f.ret();
    f.build().expect("add_base builds")
}

/// Emits code that pushes the register of the `y` that digit `±1` (in
/// local 4) adds: `BASE_Y` for `1`, `BASE_NEG_Y` for `−1`.
fn push_base_y(f: &mut FuncBuilder) {
    f.lget(4).constant(1).op(Instr::Eq);
    f.constant(reg::BASE_Y)
        .constant(reg::BASE_NEG_Y)
        .op(Instr::Select);
}

/// Builds the threshold-signer guest module. Function indices: 0 = the
/// exported `handle`, 1 = point doubling, 2 = mixed addition.
pub fn signer_module() -> Module {
    let mut mb = ModuleBuilder::new(1, 1);
    let im = declare_imports(&mut mb);

    // handle(method, addr, len) -> outbox length
    // locals: 3 = digit index i, 4 = digit i
    let mut f = FuncBuilder::new(3, 2, 1);
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

    // --- the signing ladder, over the share's NAF.
    f.label("sign");
    // base = H(m); −y = (y − y) − y, two field operations like any other
    f.lget(1).lget(2).host(im.hash_msg);
    let (y, neg_y) = (reg::BASE_Y, reg::BASE_NEG_Y);
    op3(&mut f, im.sub, neg_y, y, y);
    op3(&mut f, im.sub, neg_y, neg_y, y);
    // Find the top non-zero digit, scanning from 255 down.
    f.constant(255).lset(3);
    f.label("scan");
    f.lget(3).host(im.share_digit).lset(4);
    f.lget(4).jnz("found");
    f.lget(3).constant(1).sub().lset(3);
    f.jmp("scan"); // share == 0 is rejected at keygen; a digit must exist.
    f.label("found");
    // acc = (base_x, ±base_y, 1), signed as the top digit
    f.constant(reg::ACC_Y);
    push_base_y(&mut f);
    f.host(im.mov);
    op2(&mut f, im.mov, reg::ACC_X, reg::BASE_X);
    f.constant(reg::ACC_Z).host(im.one);
    // for i-1 down to 0: acc = 2·acc; if digit(i) = ±1: acc += ±base
    f.label("ladder");
    f.lget(3).jz("emit_point");
    f.lget(3).constant(1).sub().lset(3);
    f.call(1); // double
    f.lget(3).host(im.share_digit).lset(4);
    f.lget(4).jz("ladder");
    push_base_y(&mut f);
    f.call(2); // add_base
    f.jmp("ladder");
    // Emit the compressed point and return its length.
    f.label("emit_point");
    f.constant(reg::ACC_X)
        .constant(reg::ACC_Y)
        .constant(reg::ACC_Z);
    f.host(im.emit).ret();

    let handle_idx = mb.function(f.build().expect("signer guest builds"));
    let double_idx = mb.function(build_double(&im));
    let add_idx = mb.function(build_add_base(&im));
    debug_assert_eq!((handle_idx, double_idx, add_idx), (0, 1, 2));
    mb.export(distrust_core::abi::HANDLE_EXPORT, handle_idx);
    mb.build()
}

/// Host-side state for one trust domain: its key share, recoded for the
/// ladder, and the field registers the guest computes in. Nothing here
/// grows with use.
pub struct SignerHost {
    index: u8,
    share_naf: Naf<256>,
    regs: [Fp; reg::COUNT],
}

impl SignerHost {
    /// Wraps a share, recoded once into the width-2 NAF the guest walks.
    pub fn new(share: KeyShare) -> Self {
        Self {
            index: share.index,
            share_naf: share_naf(&share.value),
            regs: [Fp::ZERO; reg::COUNT],
        }
    }

    /// Reads register `r`; the guest chooses `r`, so it is checked.
    fn reg(&self, r: u64) -> Result<Fp, String> {
        let slot = usize::try_from(r).ok().and_then(|r| self.regs.get(r));
        slot.copied()
            .ok_or_else(|| format!("field register {r} out of range"))
    }

    /// Writes register `dst`, checked like [`Self::reg`].
    fn set(&mut self, dst: u64, v: Fp) -> Result<Vec<u64>, String> {
        let slot = usize::try_from(dst)
            .ok()
            .and_then(|dst| self.regs.get_mut(dst))
            .ok_or_else(|| format!("field register {dst} out of range"))?;
        *slot = v;
        Ok(Vec::new())
    }
}

/// The width-2 NAF (digits `0` and `±1`, at most 256 of them) the ladder
/// walks for the share `k`. Two stand for the same point `k·H(m)`: the
/// NAF of `k` and the NAF of `r − k` negated. The ladder walks whichever
/// takes fewer point operations (a doubling per digit, an addition per
/// non-zero one), the first on a tie.
fn share_naf(k: &Fr) -> Naf<256> {
    let point_ops = |naf: &Naf<256>| {
        let digits = naf.digits();
        digits.len() + digits.iter().filter(|&&d| d != 0).count()
    };
    let plain = Naf::new(&k.to_canonical_limbs(), 2);
    let negated = -Naf::new(&k.neg().to_canonical_limbs(), 2);
    if point_ops(&negated) < point_ops(&plain) {
        negated
    } else {
        plain
    }
}

impl AppHost for SignerHost {
    /// The module that declares an import also declares how many arguments
    /// it passes, and a release may carry any module: a name paired with
    /// the wrong argument count is an error like an unknown name.
    fn call(&mut self, name: &str, args: &[u64], memory: &mut Memory) -> Result<Vec<u64>, String> {
        // Matched as bytes, not as `str`: byte-string patterns compile to a
        // decision tree on length and bytes, and this runs about 7 500 times
        // per signature.
        match (name.as_bytes(), args) {
            (b"fp.sq", &[dst, a]) => self.set(dst, self.reg(a)?.square()),
            (b"fp.mul", &[dst, a, b]) => self.set(dst, self.reg(a)?.mul(&self.reg(b)?)),
            (b"fp.add", &[dst, a, b]) => self.set(dst, self.reg(a)?.add(&self.reg(b)?)),
            (b"fp.sub", &[dst, a, b]) => self.set(dst, self.reg(a)?.sub(&self.reg(b)?)),
            (b"fp.dbl", &[dst, a]) => self.set(dst, self.reg(a)?.double()),
            (b"fp.tpl", &[dst, a]) => {
                let a = self.reg(a)?;
                self.set(dst, a.double().add(&a))
            }
            (b"fp.one", &[dst]) => self.set(dst, Fp::ONE),
            (b"fp.mov", &[dst, a]) => self.set(dst, self.reg(a)?),
            (b"fp.is_zero", &[a]) => Ok(vec![self.reg(a)?.is_zero() as u64]),
            (b"bls.share_digit", &[i]) => {
                let digit = usize::try_from(i)
                    .ok()
                    .and_then(|i| self.share_naf.digit(i))
                    .ok_or_else(|| format!("share digit index {i} out of range"))?;
                Ok(vec![i64::from(digit) as u64])
            }
            (b"bls.hash_msg", &[addr, len]) => {
                let msg = memory.read(addr, len).map_err(|e| e.to_string())?;
                let h = hash_to_g1(msg, distrust_crypto::bls::MSG_DST).to_affine();
                self.set(reg::BASE_X, h.x)?;
                self.set(reg::BASE_Y, h.y)
            }
            (b"bls.emit", &[x, y, z]) => {
                let point = G1Projective {
                    x: self.reg(x)?,
                    y: self.reg(y)?,
                    z: self.reg(z)?,
                };
                let bytes = point.to_affine().to_compressed();
                memory
                    .write(OUTBOX_ADDR, &bytes)
                    .map_err(|e| e.to_string())?;
                Ok(vec![bytes.len() as u64])
            }
            (b"bls.share_index", &[]) => Ok(vec![self.index as u64]),
            _ => Err(format!(
                "unknown import {name:?} with {} arguments",
                args.len()
            )),
        }
    }
}

/// Public parameters of a threshold-signing deployment. Cheap to clone:
/// the group key's line table is shared, not copied.
#[derive(Clone, Debug)]
pub struct ThresholdPublic {
    /// Signing threshold `t`.
    pub threshold: usize,
    /// The group public key (a standard BLS key), prepared once for the
    /// pairing check every signature takes.
    pub public_key: PreparedPublicKey,
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
            public_key: PreparedPublicKey::new(keys.public_key),
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

    /// Decodes domain `domain`'s answer: 48 canonical bytes of a point on
    /// the curve. Not tested for membership of G1 here: the aggregate is,
    /// before its pairing check, and so is every partial the Feldman
    /// checks look at once an aggregate fails — which names a partial
    /// outside G1 rather than dropping it unnamed.
    fn parse_partial(domain: u32, payload: &[u8]) -> Result<PartialSignature, SignError> {
        let bytes: [u8; 48] = payload
            .try_into()
            .map_err(|_| SignError::Client(ClientError::Unexpected("bad sig length".into())))?;
        let point = G1Affine::from_compressed_unchecked(&bytes)
            .ok_or_else(|| SignError::Client(ClientError::Unexpected("bad sig point".into())))?;
        Ok(PartialSignature {
            index: (domain + 1) as u8,
            value: Signature(point),
        })
    }

    /// Full signing flow across the deployment.
    ///
    /// The message is broadcast to every domain in one pipelined fan-out
    /// under [`distrust_core::QuorumPolicy::Threshold`]`(t)` (via
    /// [`Session::fanout_collect`]): all `n` sign requests are in flight
    /// at once and collection stops at the `t`-th answer that parses
    /// (48 canonical bytes of a point on the curve; the subgroup test is
    /// made once, on the aggregate, and on each partial the Feldman checks
    /// look at) — a slow or dead domain does not delay the signature as
    /// long as `t` domains are healthy.
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
        assert_eq!(public.commitments.public_key(), *public.public_key.key());
        // The group key's kept table is a fresh preparation of the key,
        // and a clone of the parameters shares it.
        let fresh = PreparedPublicKey::new(public.commitments.public_key());
        assert_eq!(public.public_key, fresh);
        assert_eq!(public.clone().public_key, fresh);
    }

    /// A partial `σᵢ + T`, with `T = (0, 2)` of order 3, is a point of
    /// the curve outside G1. It parses, the aggregate it joins fails its
    /// checks, and the combiner names its domain; an honest replacement
    /// then completes the group signature.
    #[test]
    fn a_partial_outside_g1_is_named_not_dropped() {
        let mut rng = HmacDrbg::new(b"signer tests", b"outside g1");
        let keys = threshold::generate(2, 3, &mut rng).unwrap();
        let public = ThresholdPublic {
            threshold: 2,
            public_key: PreparedPublicKey::new(keys.public_key),
            commitments: keys.commitments.clone(),
        };
        let msg = b"one partial off the subgroup";
        let honest: Vec<PartialSignature> = keys
            .shares
            .iter()
            .map(|s| threshold::partial_sign(s, msg))
            .collect();
        let t = G1Affine {
            x: Fp::ZERO,
            y: Fp::from_u64(2),
            infinity: false,
        };
        let shifted = G1Projective::from(honest[0].value.0)
            .add_affine(&t)
            .to_affine();
        let bytes = shifted.to_compressed();
        assert!(Signature::from_bytes(&bytes).is_none(), "not a point of G1");
        let parsed = ThresholdSigningClient::parse_partial(0, &bytes).expect("on the curve");
        assert_eq!(parsed.index, 1);
        assert_eq!(parsed.value.0, shifted);

        // An `x` whose `x³ + 4` is not a square is no point at all.
        let off_curve = (1u64..)
            .map(Fp::from_u64)
            .find(|x| !x.square().mul(x).add(&Fp::from_u64(4)).is_square())
            .expect("a non-square below 2^64");
        let mut off_curve = off_curve.to_bytes_be();
        off_curve[0] |= 0x80;
        assert!(ThresholdSigningClient::parse_partial(0, &off_curve).is_err());

        let mut combiner =
            threshold::Combiner::new(2, &public.public_key, &public.commitments, msg);
        let mut batch = vec![parsed, honest[1]];
        assert_eq!(combiner.combine(&mut batch), Ok(None));
        assert_eq!(combiner.culprits(), &[1]);
        assert_eq!(batch, vec![honest[1]]);
        batch.push(honest[2]);
        let signature = combiner
            .combine(&mut batch)
            .unwrap()
            .expect("two honest partials");
        assert!(public.public_key.verify(msg, &signature));
        assert_eq!(signature, threshold::aggregate(2, &honest[1..]).unwrap());
    }

    /// `2^k` as a scalar.
    fn pow2(k: u32) -> Fr {
        Fr::from_u64(2).pow_vartime(&[u64::from(k)])
    }

    /// Shares at the edges of the recoding sign byte for byte as natively:
    /// tiny ones (a top digit near the bottom of the scan), `r − 1`,
    /// `r − 2` and `r − 3` (walked as `−1`, `−2` and `−3`; the NAF of
    /// `r − 2` itself would end on the doubling case), both sides of
    /// `r/2`, powers of two and the runs of ones below them (one long
    /// carry), alternating bits, and a share whose NAF takes all 256
    /// digits.
    #[test]
    fn small_scalar_edge_cases() {
        let module = signer_module();
        let names = import_names(&module);
        let minus = |v: u64| Fr::ZERO.sub(&Fr::from_u64(v));
        let half = Fr::from_u64(2).invert().expect("2 is invertible");
        let all_256_digits = pow2(254).add(&pow2(253));
        assert_eq!(share_naf(&all_256_digits).digits().len(), 256);
        let mut shares: Vec<Fr> = [1u64, 2, 3, 255].map(Fr::from_u64).to_vec();
        shares.extend([minus(1), minus(2), minus(3), all_256_digits]);
        // (r − 1)/2, (r + 1)/2 and their neighbours
        shares.extend([minus(1), Fr::ZERO, Fr::ONE].map(|d| half.add(&d)));
        for k in [1, 2, 63, 64, 65, 127, 128, 200, 253, 254] {
            shares.extend([pow2(k), pow2(k).sub(&Fr::ONE)]);
        }
        for pattern in [0x5555_5555_5555_5555u64, 0xaaaa_aaaa_aaaa_aaaa] {
            let limbs = [pattern, pattern, pattern, pattern >> 2];
            shares.push(Fr::from_canonical_limbs(limbs).expect("below r"));
        }
        for value in shares {
            let share = KeyShare { index: 1, value };
            let mut inst = Instance::new(module.clone(), Limits::default()).unwrap();
            let mut host = SignerHost::new(share);
            let guest = sign_in_sandbox(&mut inst, &names, &mut host, b"edge").unwrap();
            assert_eq!(
                guest,
                sign_native(&share, b"edge"),
                "scalar {:x?}",
                value.to_canonical_limbs()
            );
        }
    }

    /// Forwards to the signer and counts its crossings by import name.
    struct Counting {
        host: SignerHost,
        calls: std::collections::BTreeMap<String, usize>,
    }

    impl AppHost for Counting {
        fn call(
            &mut self,
            name: &str,
            args: &[u64],
            memory: &mut Memory,
        ) -> Result<Vec<u64>, String> {
            *self.calls.entry(name.to_string()).or_default() += 1;
            self.host.call(name, args, memory)
        }
    }

    /// The ladder walks the share's NAF: one doubling per digit below the
    /// top one and one addition per further non-zero digit. `fp.tpl` is
    /// the doubling's alone and `fp.is_zero` the addition's; every other
    /// crossing is the formulas' field operations, the 256 digit reads
    /// (the scan down to the top digit, then one per digit below it), the
    /// hash and the two subtractions that negate its `y`, the
    /// accumulator's three initial moves and the emit.
    #[test]
    fn crossings_follow_the_shares_naf() {
        let module = signer_module();
        let names = import_names(&module);
        let crossings = |f: usize| {
            let code = &module.functions[f].code;
            code.iter()
                .filter(|i| matches!(i, Instr::HostCall(_)))
                .count()
        };
        let (per_double, per_add) = (crossings(1), crossings(2));
        let mut rng = HmacDrbg::new(b"signer tests", b"crossings");
        let keys = threshold::generate(2, 6, &mut rng).unwrap();
        for share in &keys.shares {
            let naf = share_naf(&share.value);
            let digits = naf.digits();
            let doublings = digits.len() - 1;
            let additions = digits.iter().filter(|&&d| d != 0).count() - 1;

            let mut inst = Instance::new(module.clone(), Limits::default()).unwrap();
            let mut counting = Counting {
                host: SignerHost::new(*share),
                calls: Default::default(),
            };
            let msg = b"count the crossings";
            let out =
                distrust_core::abi::app_call(&mut inst, &names, &mut counting, METHOD_SIGN, msg)
                    .unwrap();
            assert_eq!(out, sign_native(share, msg).to_bytes());
            let calls = counting.calls;
            let at = |name: &str| calls.get(name).copied().unwrap_or(0);
            assert_eq!(at("fp.tpl"), doublings, "share {}", share.index);
            assert_eq!(at("fp.is_zero"), additions, "share {}", share.index);
            assert_eq!(at("bls.share_digit"), 256, "share {}", share.index);
            let total: usize = calls.values().sum();
            let expected = 1 + 2 + 256 + 3 + 1 + per_double * doublings + per_add * additions;
            assert_eq!(total, expected, "share {}", share.index);
        }
    }

    /// The digit import is the guest's to call with any index: from one
    /// past the form's 256 digits on, it is an error the VM turns into a
    /// trap, not a panic.
    #[test]
    fn share_digit_past_the_form_is_an_error() {
        let mut rng = HmacDrbg::new(b"signer tests", b"digit range");
        let keys = threshold::generate(1, 1, &mut rng).unwrap();
        let mut inst = Instance::new(signer_module(), Limits::default()).unwrap();
        let mut host = SignerHost::new(keys.shares[0]);
        let naf = share_naf(&keys.shares[0].value);
        for i in [0u64, 1, 254, 255] {
            let digit = host.call("bls.share_digit", &[i], &mut inst.memory);
            let expected = i64::from(naf.digit(i as usize).unwrap()) as u64;
            assert_eq!(digit, Ok(vec![expected]), "digit {i}");
        }
        for i in [256u64, 257, 1 << 32, u64::MAX] {
            let digit = host.call("bls.share_digit", &[i], &mut inst.memory);
            assert!(digit.is_err(), "digit {i}");
        }
    }

    /// The scan for the top digit of the share's NAF at both ends of the
    /// range and on both sides of a limb boundary (the last share, above
    /// `r/2`, is walked as `k − r`, a negative top digit); and on each
    /// instance a second
    /// signature after a request that trapped: the registers still hold the
    /// first signature's values then, and none may reach the second result.
    #[test]
    fn top_set_bit_positions_and_a_signature_after_a_trap() {
        let module = signer_module();
        let names = import_names(&module);
        for (top, limbs) in [
            (0, [1, 0, 0, 0]),
            (1, [3, 0, 0, 0]),
            (63, [(1 << 63) | 5, 0, 0, 0]),
            (64, [9, 1, 0, 0]),
            (254, [3, 0, 0, 1 << 62]),
        ] {
            let share = KeyShare {
                index: 1,
                value: distrust_crypto::fr::Fr::from_canonical_limbs(limbs).expect("below r"),
            };
            let mut inst = Instance::new(module.clone(), Limits::default()).unwrap();
            let mut host = SignerHost::new(share);
            let guest = sign_in_sandbox(&mut inst, &names, &mut host, b"edge").unwrap();
            assert_eq!(guest, sign_native(&share, b"edge"), "top bit {top}");
            let trapped = distrust_core::abi::app_call(&mut inst, &names, &mut host, 99, b"");
            assert!(trapped.is_err(), "top bit {top}");
            let guest = sign_in_sandbox(&mut inst, &names, &mut host, b"after a trap").unwrap();
            assert_eq!(
                guest,
                sign_native(&share, b"after a trap"),
                "top bit {top}, second signature"
            );
        }
    }
}
