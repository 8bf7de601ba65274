//! Secret-key backup — the paper's motivating application (Figure 1).
//!
//! "The user splits its secret key across different trust domains via
//! secret sharing. Therefore, even if the attacker steals secret shares
//! from all but one of the trust domains, the attacker cannot learn users'
//! secret keys."
//!
//! The user GF(256)-shares a secret across the `n` domains (threshold
//! `t`), authenticated by a recovery token. The **sandboxed guest enforces
//! the security policy**: token verification (constant traffic shape) and
//! per-user rate limiting live in guest code that every auditor can read;
//! the host side only provides storage and SHA-256.
//!
//! Response status bytes: `0` ok (share follows), `1` bad token, `2`
//! unknown user, `3` rate limited, `4` malformed request, `5` already
//! stored.

use distrust_core::abi::{AppHost, OUTBOX_ADDR};
use distrust_core::deploy::AppSpec;
use distrust_core::session::{FanoutCall, Session};
use distrust_core::ClientError;
use distrust_crypto::gf256::{self, ByteShare};
use distrust_crypto::sha256::Digest;
use distrust_sandbox::vm::Memory;
use distrust_sandbox::{FuncBuilder, Instr, Limits, Module, ModuleBuilder};
use std::collections::HashMap;

/// Method id: store a share.
pub const METHOD_STORE: u64 = 1;
/// Method id: recover a share.
pub const METHOD_RECOVER: u64 = 2;

/// Per-user failed-attempt limit enforced in guest code.
pub const MAX_ATTEMPTS: u64 = 5;

/// Guest memory layout (outside the inbox/outbox windows).
mod layout {
    /// 256 per-user-bucket attempt counters (u64 each).
    pub const COUNTERS: u64 = 40960;
    /// Host writes the stored token hash here during `fetch`.
    pub const STORED_HASH: u64 = 43008;
    /// Host writes the freshly computed token hash here.
    pub const COMPUTED_HASH: u64 = 43072;
}

/// Builds the key-backup guest module.
pub fn backup_module() -> Module {
    let mut mb = ModuleBuilder::new(1, 1);
    let store = mb.import("backup.store", 2, 1);
    let fetch = mb.import("backup.fetch", 1, 1);
    let share_out = mb.import("backup.share_out", 1, 1);
    let sha256_to = mb.import("crypto.sha256_to", 3, 0);

    // handle(method, addr, len); locals: 3 = i, 4 = counter addr.
    let mut f = FuncBuilder::new(3, 2, 1);
    f.lget(0).constant(METHOD_STORE).op(Instr::Eq).jnz("store");
    f.lget(0)
        .constant(METHOD_RECOVER)
        .op(Instr::Eq)
        .jnz("recover");
    f.op(Instr::Trap);

    // --- STORE: forward to host storage after a length sanity check.
    f.label("store");
    // need user_id(8) + token_hash(32) + ≥1 byte of share
    f.lget(2).constant(41).op(Instr::LtU).jnz("malformed");
    f.lget(1).lget(2).host(store);
    f.constant(OUTBOX_ADDR).op(Instr::Swap).store8(0);
    f.constant(1).ret();

    // --- RECOVER.
    f.label("recover");
    f.lget(2).constant(40).op(Instr::Ne).jnz("malformed");
    // counter address = COUNTERS + 8 * user_id[0]
    f.lget(1)
        .load8(0)
        .constant(8)
        .op(Instr::Mul)
        .constant(layout::COUNTERS)
        .add()
        .lset(4);
    // rate limited?
    f.lget(4)
        .load64(0)
        .constant(MAX_ATTEMPTS)
        .op(Instr::GeU)
        .jnz("limited");
    // stored hash exists?
    f.lget(1).host(fetch).jz("unknown");
    // compute sha256(token) — token is the 32 bytes after the user id.
    f.lget(1)
        .constant(8)
        .add()
        .constant(32)
        .constant(layout::COMPUTED_HASH)
        .host(sha256_to);
    // compare the two hashes byte by byte.
    f.constant(0).lset(3);
    f.label("cmp");
    f.lget(3).constant(32).op(Instr::GeU).jnz("auth_ok");
    f.constant(layout::STORED_HASH).lget(3).add().load8(0);
    f.constant(layout::COMPUTED_HASH).lget(3).add().load8(0);
    f.op(Instr::Ne).jnz("bad_token");
    f.lget(3).constant(1).add().lset(3).jmp("cmp");

    f.label("bad_token");
    // counter += 1
    f.lget(4).lget(4).load64(0).constant(1).add().store64(0);
    f.constant(OUTBOX_ADDR).constant(1).store8(0);
    f.constant(1).ret();

    f.label("auth_ok");
    // reset the counter, emit status 0 + share
    f.lget(4).constant(0).store64(0);
    f.constant(OUTBOX_ADDR).constant(0).store8(0);
    f.lget(1).host(share_out).constant(1).add().ret();

    f.label("unknown");
    f.constant(OUTBOX_ADDR).constant(2).store8(0);
    f.constant(1).ret();

    f.label("limited");
    f.constant(OUTBOX_ADDR).constant(3).store8(0);
    f.constant(1).ret();

    f.label("malformed");
    f.constant(OUTBOX_ADDR).constant(4).store8(0);
    f.constant(1).ret();

    let idx = mb.function(f.build().expect("backup guest builds"));
    mb.export(distrust_core::abi::HANDLE_EXPORT, idx);
    mb.build()
}

/// Host-side storage for one trust domain.
#[derive(Default)]
pub struct BackupHost {
    records: HashMap<u64, ([u8; 32], Vec<u8>)>,
}

impl BackupHost {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored records (tests / compromise scenarios).
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    fn read_user_id(memory: &Memory, addr: u64) -> Result<u64, String> {
        let bytes = memory.read(addr, 8).map_err(|e| e.to_string())?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }
}

impl AppHost for BackupHost {
    /// The guest declares each import's argument count and chooses every
    /// address and length, and a release may carry any guest: a wrong count
    /// or a payload too short for its header is an error, never an index.
    fn call(&mut self, name: &str, args: &[u64], memory: &mut Memory) -> Result<Vec<u64>, String> {
        match (name, args) {
            ("backup.store", &[addr, len]) => {
                let payload = memory.read(addr, len).map_err(|e| e.to_string())?;
                // user_id(8) + token_hash(32) + share
                let short = || format!("backup.store payload of {len} bytes is too short");
                let (user_id, rest) = payload.split_first_chunk::<8>().ok_or_else(short)?;
                let (token_hash, share) = rest.split_first_chunk::<32>().ok_or_else(short)?;
                let user_id = u64::from_le_bytes(*user_id);
                if self.records.contains_key(&user_id) {
                    return Ok(vec![5]);
                }
                self.records.insert(user_id, (*token_hash, share.to_vec()));
                Ok(vec![0])
            }
            ("backup.fetch", &[addr]) => {
                let user_id = Self::read_user_id(memory, addr)?;
                match self.records.get(&user_id) {
                    Some((hash, _)) => {
                        memory
                            .write(layout::STORED_HASH, hash)
                            .map_err(|e| e.to_string())?;
                        Ok(vec![1])
                    }
                    None => Ok(vec![0]),
                }
            }
            ("backup.share_out", &[addr]) => {
                let user_id = Self::read_user_id(memory, addr)?;
                let (_, share) = self
                    .records
                    .get(&user_id)
                    .ok_or_else(|| "share_out for unknown user".to_string())?;
                memory
                    .write(OUTBOX_ADDR + 1, share)
                    .map_err(|e| e.to_string())?;
                Ok(vec![share.len() as u64])
            }
            ("crypto.sha256_to", &[addr, len, out]) => {
                let data = memory.read(addr, len).map_err(|e| e.to_string())?;
                let digest = distrust_crypto::sha256(data);
                memory.write(out, &digest).map_err(|e| e.to_string())?;
                Ok(vec![])
            }
            _ => Err(format!(
                "unknown import {name:?} with {} arguments",
                args.len()
            )),
        }
    }
}

/// Packages the [`AppSpec`] for an `n`-domain backup deployment.
pub fn app_spec(n: usize) -> AppSpec {
    AppSpec {
        name: "key-backup".to_string(),
        module: backup_module(),
        notes: "v1: secret-key backup with token auth + rate limiting".to_string(),
        hosts: (0..n)
            .map(|_| Box::new(BackupHost::new()) as Box<dyn AppHost>)
            .collect(),
        limits: Limits::default(),
    }
}

/// Outcome of a recovery attempt against one domain.
#[derive(Debug, PartialEq, Eq)]
pub enum RecoverStatus {
    /// Share returned.
    Ok(Vec<u8>),
    /// Token rejected.
    BadToken,
    /// No record for this user.
    UnknownUser,
    /// Too many failed attempts.
    RateLimited,
    /// Request malformed.
    Malformed,
    /// Share already stored (store path).
    AlreadyStored,
}

fn parse_response(payload: &[u8]) -> Result<RecoverStatus, ClientError> {
    match payload.split_first() {
        Some((0, rest)) => Ok(RecoverStatus::Ok(rest.to_vec())),
        Some((1, _)) => Ok(RecoverStatus::BadToken),
        Some((2, _)) => Ok(RecoverStatus::UnknownUser),
        Some((3, _)) => Ok(RecoverStatus::RateLimited),
        Some((4, _)) => Ok(RecoverStatus::Malformed),
        Some((5, _)) => Ok(RecoverStatus::AlreadyStored),
        _ => Err(ClientError::Unexpected("empty backup response".into())),
    }
}

/// User-side client: split, store, recover, verify.
pub struct KeyBackupClient {
    /// Recovery threshold.
    pub threshold: usize,
}

impl KeyBackupClient {
    /// Creates a client with recovery threshold `t`.
    pub fn new(threshold: usize) -> Self {
        Self { threshold }
    }

    /// Splits `secret` and stores one share per domain. Returns the
    /// integrity commitment the user keeps to validate recovery.
    ///
    /// All `n` store requests are pipelined (in flight before any
    /// acknowledgement is read); every domain must accept — a backup some
    /// domains never received would silently lower the recovery margin.
    pub fn backup<R: rand::RngCore + ?Sized>(
        &self,
        session: &mut Session<'_>,
        user_id: u64,
        token: &[u8; 32],
        secret: &[u8],
        rng: &mut R,
    ) -> Result<Digest, ClientError> {
        let n = session.domain_count();
        let shares = gf256::split(secret, self.threshold, n, rng)
            .map_err(|e| ClientError::Unexpected(format!("split failed: {e}")))?;
        let token_hash = distrust_crypto::sha256(token);
        let payloads: Vec<Vec<u8>> = shares
            .iter()
            .map(|share| {
                let mut payload = Vec::with_capacity(40 + share.data.len());
                payload.extend_from_slice(&user_id.to_le_bytes());
                payload.extend_from_slice(&token_hash);
                payload.extend_from_slice(&share.data);
                payload
            })
            .collect();
        let report = session.fanout(&FanoutCall::per_domain(METHOD_STORE, payloads))?;
        report.require()?;
        for (d, resp) in report.successes() {
            match parse_response(resp)? {
                RecoverStatus::Ok(_) => {}
                other => {
                    return Err(ClientError::Unexpected(format!(
                        "store on domain {d} failed: {other:?}"
                    )))
                }
            }
        }
        Ok(distrust_crypto::sha256(secret))
    }

    /// Attempts recovery from one domain.
    pub fn recover_share(
        &self,
        session: &mut Session<'_>,
        domain: u32,
        user_id: u64,
        token: &[u8; 32],
    ) -> Result<RecoverStatus, ClientError> {
        let resp = session.call(domain, METHOD_RECOVER, &recover_request(user_id, token))?;
        parse_response(&resp)
    }

    /// Full recovery: collect `t` shares, recombine, verify against the
    /// commitment from [`Self::backup`].
    ///
    /// The recovery request goes out through [`Session::fanout_collect`]:
    /// a session's first recovery asks every domain, a later one the `t`
    /// the session ranks best for recoveries, with a domain that fails
    /// replaced at once and every spare asked at the session's hedge
    /// point. A recovery refused everywhere (a wrong token) ranks domains
    /// down for later recoveries only, never for another method. It returns as soon
    /// as `t` domains answer, so dead or slow domains cannot stop it as
    /// long as `t` are alive. Domains that answered but refused (bad
    /// token, unknown user, malformed reply) do not yield shares and are
    /// not re-asked; abandoned stragglers are, once no domain is left
    /// that was never asked.
    pub fn recover(
        &self,
        session: &mut Session<'_>,
        user_id: u64,
        token: &[u8; 32],
        commitment: &Digest,
    ) -> Result<Vec<u8>, ClientError> {
        let request = recover_request(user_id, token);
        let shares = session.fanout_collect(
            METHOD_RECOVER,
            request,
            self.threshold,
            |d, resp| match parse_response(resp) {
                Ok(RecoverStatus::Ok(data)) => Some(ByteShare {
                    x: (d + 1) as u8,
                    data,
                }),
                _ => None,
            },
            // Shares carry nothing to check them against one another; the
            // recombined secret is checked against the commitment below.
            |_| {},
        )?;
        let secret = gf256::combine(&shares, self.threshold)
            .map_err(|e| ClientError::Unexpected(format!("combine failed: {e}")))?;
        if &distrust_crypto::sha256(&secret) != commitment {
            return Err(ClientError::Unexpected(
                "recovered secret fails integrity check".into(),
            ));
        }
        Ok(secret)
    }
}

/// The wire payload of a recovery attempt (same bytes for every domain).
fn recover_request(user_id: u64, token: &[u8; 32]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(40);
    payload.extend_from_slice(&user_id.to_le_bytes());
    payload.extend_from_slice(token);
    payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use distrust_core::abi::{app_call, import_names};
    use distrust_sandbox::Instance;

    fn instance() -> (Instance, Vec<String>, BackupHost) {
        let module = backup_module();
        let names = import_names(&module);
        let inst = Instance::new(module, Limits::default()).unwrap();
        (inst, names, BackupHost::new())
    }

    fn store_payload(user_id: u64, token: &[u8; 32], share: &[u8]) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&user_id.to_le_bytes());
        p.extend_from_slice(&distrust_crypto::sha256(token));
        p.extend_from_slice(share);
        p
    }

    fn recover_payload(user_id: u64, token: &[u8; 32]) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&user_id.to_le_bytes());
        p.extend_from_slice(token);
        p
    }

    #[test]
    fn store_then_recover() {
        let (mut inst, names, mut host) = instance();
        let token = [7u8; 32];
        let out = app_call(
            &mut inst,
            &names,
            &mut host,
            METHOD_STORE,
            &store_payload(42, &token, b"share bytes"),
        )
        .unwrap();
        assert_eq!(out, vec![0]);
        let out = app_call(
            &mut inst,
            &names,
            &mut host,
            METHOD_RECOVER,
            &recover_payload(42, &token),
        )
        .unwrap();
        assert_eq!(out[0], 0);
        assert_eq!(&out[1..], b"share bytes");
    }

    #[test]
    fn wrong_token_denied_in_guest() {
        let (mut inst, names, mut host) = instance();
        let token = [7u8; 32];
        app_call(
            &mut inst,
            &names,
            &mut host,
            METHOD_STORE,
            &store_payload(1, &token, b"s"),
        )
        .unwrap();
        let out = app_call(
            &mut inst,
            &names,
            &mut host,
            METHOD_RECOVER,
            &recover_payload(1, &[8u8; 32]),
        )
        .unwrap();
        assert_eq!(out, vec![1], "bad token status");
    }

    #[test]
    fn rate_limit_enforced_in_guest() {
        let (mut inst, names, mut host) = instance();
        let token = [7u8; 32];
        app_call(
            &mut inst,
            &names,
            &mut host,
            METHOD_STORE,
            &store_payload(5, &token, b"s"),
        )
        .unwrap();
        // Burn through the attempt budget with a wrong token.
        for _ in 0..MAX_ATTEMPTS {
            let out = app_call(
                &mut inst,
                &names,
                &mut host,
                METHOD_RECOVER,
                &recover_payload(5, &[0u8; 32]),
            )
            .unwrap();
            assert_eq!(out, vec![1]);
        }
        // Even the CORRECT token is now refused.
        let out = app_call(
            &mut inst,
            &names,
            &mut host,
            METHOD_RECOVER,
            &recover_payload(5, &token),
        )
        .unwrap();
        assert_eq!(out, vec![3], "rate limited");
    }

    #[test]
    fn successful_auth_resets_counter() {
        let (mut inst, names, mut host) = instance();
        let token = [9u8; 32];
        app_call(
            &mut inst,
            &names,
            &mut host,
            METHOD_STORE,
            &store_payload(6, &token, b"s"),
        )
        .unwrap();
        for _ in 0..MAX_ATTEMPTS - 1 {
            app_call(
                &mut inst,
                &names,
                &mut host,
                METHOD_RECOVER,
                &recover_payload(6, &[0u8; 32]),
            )
            .unwrap();
        }
        let out = app_call(
            &mut inst,
            &names,
            &mut host,
            METHOD_RECOVER,
            &recover_payload(6, &token),
        )
        .unwrap();
        assert_eq!(out[0], 0);
        // Counter is reset: the budget is fresh again.
        for _ in 0..MAX_ATTEMPTS - 1 {
            let out = app_call(
                &mut inst,
                &names,
                &mut host,
                METHOD_RECOVER,
                &recover_payload(6, &[0u8; 32]),
            )
            .unwrap();
            assert_eq!(out, vec![1]);
        }
    }

    #[test]
    fn unknown_user_and_malformed() {
        let (mut inst, names, mut host) = instance();
        let out = app_call(
            &mut inst,
            &names,
            &mut host,
            METHOD_RECOVER,
            &recover_payload(404, &[0u8; 32]),
        )
        .unwrap();
        assert_eq!(out, vec![2]);
        let out = app_call(&mut inst, &names, &mut host, METHOD_RECOVER, b"short").unwrap();
        assert_eq!(out, vec![4]);
        let out = app_call(&mut inst, &names, &mut host, METHOD_STORE, b"short").unwrap();
        assert_eq!(out, vec![4]);
    }

    #[test]
    fn duplicate_store_rejected() {
        let (mut inst, names, mut host) = instance();
        let token = [1u8; 32];
        let payload = store_payload(9, &token, b"first");
        assert_eq!(
            app_call(&mut inst, &names, &mut host, METHOD_STORE, &payload).unwrap(),
            vec![0]
        );
        assert_eq!(
            app_call(&mut inst, &names, &mut host, METHOD_STORE, &payload).unwrap(),
            vec![5]
        );
    }
}
