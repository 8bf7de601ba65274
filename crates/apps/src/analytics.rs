//! Prio-style private analytics (§2: "Privacy-preserving analytics").
//!
//! Clients additively secret-share a vector of counters across the trust
//! domains; each domain accumulates its shares locally (pure guest code —
//! no host imports at all); the analyst sums the per-domain accumulators,
//! and the shares cancel: only the totals are revealed. No single domain
//! (including the developer's own domain 0) learns any individual
//! client's values.
//!
//! Simplification vs. Prio proper: no zero-knowledge range proofs on
//! submissions (SNIPs); a malicious client can skew totals but privacy is
//! unaffected. Documented in DESIGN.md.
//!
//! Method ids: `1` = submit (payload = `k` little-endian u64 shares), `2`
//! = aggregate (response = `k` u64 totals), `3` = submission count.

use distrust_core::abi::{AppHost, NoImports, OUTBOX_ADDR};
use distrust_core::deploy::AppSpec;
use distrust_core::session::{FanoutCall, Session};
use distrust_core::ClientError;
use distrust_sandbox::{FuncBuilder, Instr, Limits, Module, ModuleBuilder};

/// Method id: submit one share vector.
pub const METHOD_SUBMIT: u64 = 1;
/// Method id: read the accumulator vector.
pub const METHOD_AGGREGATE: u64 = 2;
/// Method id: read the submission count.
pub const METHOD_COUNT: u64 = 3;

/// Maximum dimensions per deployment (bounded by outbox size).
pub const MAX_DIMS: u64 = 1024;

mod layout {
    /// Number of dimensions (fixed by the first submission).
    pub const NDIMS: u64 = 40944;
    /// Submission counter.
    pub const COUNT: u64 = 40952;
    /// Accumulator array (u64 × MAX_DIMS).
    pub const ACC: u64 = 40960;
}

/// Builds the analytics guest module (no host imports: the aggregation
/// logic is entirely auditable guest code).
pub fn analytics_module() -> Module {
    let mut mb = ModuleBuilder::new(1, 1);

    // handle(method, addr, len); locals: 3 = i, 4 = k (dims in request).
    let mut f = FuncBuilder::new(3, 2, 1);
    f.lget(0)
        .constant(METHOD_SUBMIT)
        .op(Instr::Eq)
        .jnz("submit");
    f.lget(0)
        .constant(METHOD_AGGREGATE)
        .op(Instr::Eq)
        .jnz("aggregate");
    f.lget(0).constant(METHOD_COUNT).op(Instr::Eq).jnz("count");
    f.op(Instr::Trap);

    // --- SUBMIT.
    f.label("submit");
    // k = len / 8; reject empty, non-multiple-of-8, or oversized vectors.
    f.lget(2).constant(8).op(Instr::RemU).jnz("malformed");
    f.lget(2).constant(8).op(Instr::DivU).lset(4);
    f.lget(4).jz("malformed");
    f.lget(4).constant(MAX_DIMS).op(Instr::GtU).jnz("malformed");
    // First submission fixes the dimensionality.
    f.constant(layout::NDIMS).load64(0).jnz("check_dims");
    f.constant(layout::NDIMS).lget(4).store64(0);
    f.jmp("accumulate");
    f.label("check_dims");
    f.constant(layout::NDIMS)
        .load64(0)
        .lget(4)
        .op(Instr::Ne)
        .jnz("malformed");
    // acc[i] += share[i] (wrapping), i in 0..k
    f.label("accumulate");
    f.constant(0).lset(3);
    f.label("acc_loop");
    f.lget(3).lget(4).op(Instr::GeU).jnz("acc_done");
    // target address = ACC + 8i
    f.lget(3)
        .constant(8)
        .op(Instr::Mul)
        .constant(layout::ACC)
        .add();
    f.op(Instr::Dup).load64(0);
    // + share_i at addr + 8i
    f.lget(1).lget(3).constant(8).op(Instr::Mul).add().load64(0);
    f.add().store64(0);
    f.lget(3).constant(1).add().lset(3).jmp("acc_loop");
    f.label("acc_done");
    // count += 1; status 0.
    f.constant(layout::COUNT)
        .constant(layout::COUNT)
        .load64(0)
        .constant(1)
        .add()
        .store64(0);
    f.constant(OUTBOX_ADDR).constant(0).store8(0);
    f.constant(1).ret();

    // --- AGGREGATE: copy k u64s to the outbox.
    f.label("aggregate");
    f.constant(layout::NDIMS).load64(0).lset(4);
    f.constant(0).lset(3);
    f.label("copy_loop");
    f.lget(3).lget(4).op(Instr::GeU).jnz("copy_done");
    f.constant(OUTBOX_ADDR)
        .lget(3)
        .constant(8)
        .op(Instr::Mul)
        .add();
    f.lget(3)
        .constant(8)
        .op(Instr::Mul)
        .constant(layout::ACC)
        .add()
        .load64(0);
    f.store64(0);
    f.lget(3).constant(1).add().lset(3).jmp("copy_loop");
    f.label("copy_done");
    f.lget(4).constant(8).op(Instr::Mul).ret();

    // --- COUNT.
    f.label("count");
    f.constant(OUTBOX_ADDR)
        .constant(layout::COUNT)
        .load64(0)
        .store64(0);
    f.constant(8).ret();

    f.label("malformed");
    f.constant(OUTBOX_ADDR).constant(4).store8(0);
    f.constant(1).ret();

    let idx = mb.function(f.build().expect("analytics guest builds"));
    mb.export(distrust_core::abi::HANDLE_EXPORT, idx);
    mb.build()
}

/// Packages the [`AppSpec`] for an `n`-domain analytics deployment.
pub fn app_spec(n: usize) -> AppSpec {
    AppSpec {
        name: "private-analytics".to_string(),
        module: analytics_module(),
        notes: "v1: additive-share private aggregation".to_string(),
        hosts: (0..n)
            .map(|_| Box::new(NoImports) as Box<dyn AppHost>)
            .collect(),
        limits: Limits::default(),
    }
}

/// Splits `values` into `n` additive shares (mod 2⁶⁴).
///
/// All `(n − 1)·dims` masks come from one `fill_bytes`, so a DRBG pays its
/// per-call update once per submit rather than once per mask.
pub fn share_values<R: rand::RngCore + ?Sized>(
    values: &[u64],
    n: usize,
    rng: &mut R,
) -> Vec<Vec<u64>> {
    assert!(n >= 1);
    let mut mask_bytes = vec![0u8; (n - 1) * values.len() * 8];
    if !mask_bytes.is_empty() {
        rng.fill_bytes(&mut mask_bytes);
    }
    let mut masks = mask_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")));
    let mut shares = vec![vec![0u64; values.len()]; n];
    for (dim, &v) in values.iter().enumerate() {
        let mut acc = 0u64;
        for (share, r) in shares.iter_mut().take(n - 1).zip(&mut masks) {
            share[dim] = r;
            acc = acc.wrapping_add(r);
        }
        shares[n - 1][dim] = v.wrapping_sub(acc);
    }
    shares
}

fn decode_u64s(bytes: &[u8]) -> Result<Vec<u64>, ClientError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(ClientError::Unexpected(format!(
            "aggregate payload of {} bytes",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect())
}

/// User-side submission + analyst-side aggregation.
pub struct AnalyticsClient {
    /// Number of counters per submission.
    pub dims: usize,
}

impl AnalyticsClient {
    /// Creates a client for `dims`-dimensional reports.
    pub fn new(dims: usize) -> Self {
        Self { dims }
    }

    /// Submits one report, privately: each domain receives one additive
    /// share that individually carries zero information about `values`.
    ///
    /// All `n` shares are in flight before any acknowledgement is read
    /// (one round-trip for the whole submission), and every domain must
    /// accept: a partially landed report would skew the totals, so the
    /// fan-out runs under [`distrust_core::QuorumPolicy::All`].
    pub fn submit<R: rand::RngCore + ?Sized>(
        &self,
        session: &mut Session<'_>,
        values: &[u64],
        rng: &mut R,
    ) -> Result<(), ClientError> {
        assert_eq!(values.len(), self.dims);
        let n = session.domain_count();
        let shares = share_values(values, n, rng);
        let payloads: Vec<Vec<u8>> = shares
            .iter()
            .map(|share| share.iter().flat_map(|v| v.to_le_bytes()).collect())
            .collect();
        let report = session.fanout(&FanoutCall::per_domain(METHOD_SUBMIT, payloads))?;
        report.require()?;
        for (d, resp) in report.successes() {
            if resp != [0] {
                return Err(ClientError::Unexpected(format!(
                    "submit rejected by domain {d}: {resp:?}"
                )));
            }
        }
        Ok(())
    }

    /// Analyst: sums per-domain accumulators; shares cancel, revealing
    /// only the totals. Also cross-checks that every domain saw the same
    /// number of submissions. Both queries are broadcast fan-outs — every
    /// accumulator is needed for the masks to cancel, so the quorum is
    /// [`distrust_core::QuorumPolicy::All`].
    pub fn aggregate(&self, session: &mut Session<'_>) -> Result<(Vec<u64>, u64), ClientError> {
        let acc_report = session.fanout(&FanoutCall::broadcast(METHOD_AGGREGATE, Vec::new()))?;
        acc_report.require()?;
        let mut totals = vec![0u64; self.dims];
        for (d, resp) in acc_report.successes() {
            let acc = decode_u64s(resp)?;
            if acc.len() != self.dims {
                return Err(ClientError::Unexpected(format!(
                    "domain {d} returned {} dims, expected {}",
                    acc.len(),
                    self.dims
                )));
            }
            for (t, v) in totals.iter_mut().zip(acc) {
                *t = t.wrapping_add(v);
            }
        }
        let count_report = session.fanout(&FanoutCall::broadcast(METHOD_COUNT, Vec::new()))?;
        count_report.require()?;
        let mut counts = Vec::new();
        for (_, resp) in count_report.successes() {
            counts.push(decode_u64s(resp)?.first().copied().unwrap_or(0));
        }
        let count = counts.first().copied().unwrap_or(0);
        if counts.iter().any(|&c| c != count) {
            return Err(ClientError::Unexpected(format!(
                "domains disagree on submission count: {counts:?}"
            )));
        }
        Ok((totals, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_core::abi::{app_call, import_names};
    use distrust_crypto::drbg::HmacDrbg;
    use distrust_sandbox::Instance;

    fn instance() -> (Instance, Vec<String>) {
        let module = analytics_module();
        let names = import_names(&module);
        (Instance::new(module, Limits::default()).unwrap(), names)
    }

    fn submit(inst: &mut Instance, names: &[String], shares: &[u64]) -> Vec<u8> {
        let payload: Vec<u8> = shares.iter().flat_map(|v| v.to_le_bytes()).collect();
        app_call(inst, names, &mut NoImports, METHOD_SUBMIT, &payload).unwrap()
    }

    #[test]
    fn accumulates_wrapping() {
        let (mut inst, names) = instance();
        assert_eq!(submit(&mut inst, &names, &[1, 2, 3]), vec![0]);
        assert_eq!(submit(&mut inst, &names, &[10, u64::MAX, 30]), vec![0]);
        let out = app_call(&mut inst, &names, &mut NoImports, METHOD_AGGREGATE, b"").unwrap();
        let totals = decode_u64s(&out).unwrap();
        assert_eq!(totals, vec![11, 1, 33]); // 2 + MAX wraps to 1
        let count = app_call(&mut inst, &names, &mut NoImports, METHOD_COUNT, b"").unwrap();
        assert_eq!(decode_u64s(&count).unwrap(), vec![2]);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (mut inst, names) = instance();
        assert_eq!(submit(&mut inst, &names, &[1, 2]), vec![0]);
        assert_eq!(submit(&mut inst, &names, &[1, 2, 3]), vec![4]);
        // Original dims still accepted.
        assert_eq!(submit(&mut inst, &names, &[5, 6]), vec![0]);
    }

    #[test]
    fn malformed_submissions_rejected() {
        let (mut inst, names) = instance();
        // Not a multiple of 8.
        let out = app_call(&mut inst, &names, &mut NoImports, METHOD_SUBMIT, &[1, 2, 3]).unwrap();
        assert_eq!(out, vec![4]);
        // Empty.
        let out = app_call(&mut inst, &names, &mut NoImports, METHOD_SUBMIT, b"").unwrap();
        assert_eq!(out, vec![4]);
    }

    #[test]
    fn shares_sum_to_values() {
        let mut rng = HmacDrbg::new(b"analytics", b"shares");
        let values = [5u64, 0, u64::MAX, 123_456_789];
        for n in 1..=5 {
            let shares = share_values(&values, n, &mut rng);
            assert_eq!(shares.len(), n);
            for dim in 0..values.len() {
                let sum = shares.iter().fold(0u64, |acc, s| acc.wrapping_add(s[dim]));
                assert_eq!(sum, values[dim], "n={n} dim={dim}");
            }
        }
    }

    /// Counts the calls made on it; every draw yields the same byte.
    #[derive(Default)]
    struct CountingRng {
        u32s: usize,
        u64s: usize,
        fills: usize,
    }

    impl rand::RngCore for CountingRng {
        fn next_u32(&mut self) -> u32 {
            self.u32s += 1;
            0x0707_0707
        }

        fn next_u64(&mut self) -> u64 {
            self.u64s += 1;
            0x0707_0707_0707_0707
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.fills += 1;
            dest.fill(7);
        }
    }

    #[test]
    fn one_draw_per_submit() {
        let values = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut rng = CountingRng::default();
        let shares = share_values(&values, 8, &mut rng);
        assert_eq!((rng.fills, rng.u64s, rng.u32s), (1, 0, 0));
        assert_eq!(shares[0], vec![0x0707_0707_0707_0707; 8]);

        let mut rng = CountingRng::default();
        assert_eq!(share_values(&values, 1, &mut rng), vec![values.to_vec()]);
        assert_eq!(
            (rng.fills, rng.u64s, rng.u32s),
            (0, 0, 0),
            "n = 1 draws nothing"
        );
    }

    #[test]
    fn single_share_reveals_nothing_structurally() {
        // With n >= 2 the first n-1 shares are uniform random draws
        // independent of the value; sanity-check that two different values
        // can produce the identical first share under the same randomness.
        let values_a = [100u64];
        let values_b = [999u64];
        let mut rng_a = HmacDrbg::new(b"analytics", b"same-seed");
        let mut rng_b = HmacDrbg::new(b"analytics", b"same-seed");
        let share_a = share_values(&values_a, 2, &mut rng_a);
        let share_b = share_values(&values_b, 2, &mut rng_b);
        assert_eq!(share_a[0], share_b[0], "first share independent of value");
        assert_ne!(share_a[1], share_b[1]);
    }

    #[test]
    fn aggregate_before_any_submission_is_empty() {
        let (mut inst, names) = instance();
        let out = app_call(&mut inst, &names, &mut NoImports, METHOD_AGGREGATE, b"").unwrap();
        assert!(out.is_empty(), "no dims fixed yet");
    }
}
