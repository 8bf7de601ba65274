//! The four workloads: what each launches, its one operation, and the
//! output checks that decide `failed`.
//!
//! Every workload drives a real [`Deployment`] — domain 0 on `DirectHost`,
//! domains 1..n behind `EnclaveHost` proxies, loopback TCP — through the
//! public [`Session`] API from one closed-loop client thread. The
//! domains' own server threads are the program, not the load generator.

use crate::trace::{HostCounters, TracedHost, Tracer};
use distrust_apps::analytics::{self, AnalyticsClient};
use distrust_apps::threshold_signer::{self, ThresholdPublic, ThresholdSigningClient, METHOD_SIGN};
use distrust_core::abi::AppHost;
use distrust_core::deploy::AppSpec;
use distrust_core::protocol::{Request, Response};
use distrust_core::session::{FanoutCall, QuorumPolicy, Session, TrustPolicy};
use distrust_core::{Deployment, DeploymentClient};
use distrust_crypto::bls::Signature;
use distrust_crypto::drbg::HmacDrbg;
use distrust_crypto::sha256::Digest;
use distrust_crypto::threshold::{self, PartialSignature};
use distrust_sandbox::guests::counter_module;
use distrust_wire::codec::Encode;
use rand::RngCore;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A workload's fixed sizes. Phases are bounded by time (`--seconds`), so
/// only set-up counts and caps live here.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Trust domains.
    pub n: usize,
    /// Threshold (signing workloads) — 0 where the quorum is `All`.
    pub t: usize,
    /// Releases pushed before the warm session opens (`H`), the initial
    /// release included.
    pub preload: u64,
    /// Discarded warm-up operations on the warm session (`W`).
    pub warmup: u64,
    /// Fresh clients in the cold phase, at most (`C`).
    pub cold_max: u64,
}

pub static SPECS: [Spec; 4] = [
    Spec {
        name: "sign_quorum",
        why: "paper's app: cold client to a verified 3-of-5 threshold signature; \
              client-side pairing checks dominate, wire/tee ~1%, log idle when warm",
        n: 5,
        t: 3,
        preload: 1,
        warmup: 20,
        cold_max: 250,
    },
    Spec {
        name: "share_single",
        why: "Table 3's TEE+Sandbox row on the real path: one partial signature through \
              proxy, framework and VM, no client pairing; a VM-engine change shows here whole",
        n: 3,
        t: 2,
        preload: 1,
        warmup: 200,
        cold_max: 250,
    },
    Spec {
        name: "submit_small",
        why: "smallest messages: frame codec, reactor sweep, 7 enclave hops and fan-out \
              bookkeeping over 8 domains with no pairing and no log; wire/tee/core changes show here",
        n: 8,
        t: 0,
        preload: 1,
        warmup: 400,
        cold_max: 250,
    },
    Spec {
        name: "audit_churn",
        why: "the only workload where log append+fsync, consistency proofs, gossip and Schnorr \
              checks do the work; pushes sit beside audits, restart must keep acknowledged writes",
        n: 3,
        t: 0,
        preload: 4,
        warmup: 32,
        cold_max: 250,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// In `audit_churn` a developer client pushes the next release before
/// every this-many-th measured audit (and before every warm-up audit).
pub const PUSH_EVERY: u64 = 4;
/// `sign_quorum` keeps one signature in this many for the off-clock
/// re-verification.
const SIGN_SAMPLE_ONE_IN: u64 = 50;
/// `share_single` pairing-checks at most this many replies off the clock.
const SHARE_VERIFY_SAMPLE: usize = 256;
/// Counters per `submit_small` report.
pub const SUBMIT_DIMS: usize = 8;

/// Everything a run derives from `--seed`: the same seed gives the same
/// bytes in the same order, and the program under test receives nothing
/// else.
pub struct Inputs {
    seed: u64,
    workload: &'static str,
    rng: HmacDrbg,
}

impl Inputs {
    pub fn new(seed: u64, workload: &'static str) -> Self {
        Self {
            seed,
            workload,
            rng: HmacDrbg::new(&seed.to_le_bytes(), workload.as_bytes()),
        }
    }

    /// Seed of the deployment topology (vendor roots, device keys,
    /// developer key).
    pub fn deploy_seed(&self) -> Vec<u8> {
        format!("e2e/{}/{}/deploy", self.workload, self.seed).into_bytes()
    }

    /// Seed of the `index`-th client playing `role`.
    pub fn client_seed(&self, role: &str, index: u64) -> Vec<u8> {
        format!("e2e/{}/{}/{role}/{index}", self.workload, self.seed).into_bytes()
    }

    /// The next 32-byte message to sign.
    pub fn message(&mut self) -> [u8; 32] {
        let mut m = [0u8; 32];
        self.rng.fill_bytes(&mut m);
        m
    }

    /// The next `dims`-counter report.
    pub fn values(&mut self, dims: usize) -> Vec<u64> {
        (0..dims).map(|_| self.rng.next_u64()).collect()
    }

    /// True once in `one_in` calls on average, decided by the seed.
    pub fn sample(&mut self, one_in: u64) -> bool {
        self.rng.next_u64().is_multiple_of(one_in)
    }

    pub fn rng(&mut self) -> &mut HmacDrbg {
        &mut self.rng
    }
}

/// Numbers a workload hands the traced report (`core.quorum_waste`,
/// `log.push_update_ms_p50`, …): metric name, value, samples behind it.
pub type Facts = Vec<(&'static str, f64, u64)>;

pub trait Workload {
    fn deployment(&self) -> &Deployment;

    /// The trust policy every session of this workload runs under.
    fn policy(&self) -> TrustPolicy;

    /// Work that belongs to the phase's wall clock but not to the
    /// operation's latency (`audit_churn`'s interleaved pushes).
    fn before_op(
        &mut self,
        _index: u64,
        _warming: bool,
        _tracer: &mut Tracer,
    ) -> Result<(), String> {
        Ok(())
    }

    /// One operation on `session`, output checked as far as the client
    /// library checks it; `Err` counts as a failed operation.
    fn op(&mut self, session: &mut Session<'_>, tracer: &mut Tracer) -> Result<(), String>;

    /// Waits, off the clock, until the deployment has finished whatever
    /// the last operation left running, so the next *fresh* client meets
    /// a deployment as quiet as the first one did.
    fn quiesce(&mut self, _session: &mut Session<'_>) {}

    /// The off-the-clock output checks. Each returned line is one failure.
    fn check(&mut self, session: &mut Session<'_>) -> Vec<String>;

    /// Encoded request + response bytes of one operation, summed over the
    /// domains it asks (`wire.call_bytes_per_op`).
    fn call_bytes_per_op(&mut self) -> Result<f64, String>;

    fn facts(&self) -> Facts {
        Vec::new()
    }
}

/// Wraps each of `spec`'s hosts in a [`TracedHost`] and returns the
/// counters, domain-ordered.
fn trace_hosts(spec: &mut AppSpec, tracer: &Tracer) -> Vec<Arc<HostCounters>> {
    let hosts = std::mem::take(&mut spec.hosts);
    let mut counters = Vec::with_capacity(hosts.len());
    spec.hosts = hosts
        .into_iter()
        .map(|inner| {
            let c = Arc::new(HostCounters::default());
            counters.push(c.clone());
            Box::new(TracedHost::new(inner, c, tracer)) as Box<dyn AppHost>
        })
        .collect();
    counters
}

fn launch_traced(
    mut spec: AppSpec,
    inputs: &Inputs,
    data_dir: Option<&Path>,
    tracer: &mut Tracer,
) -> Result<(Deployment, Vec<Arc<HostCounters>>), String> {
    let counters = if tracer.enabled() {
        trace_hosts(&mut spec, tracer)
    } else {
        Vec::new()
    };
    let span = tracer.begin("core.launch");
    let seed = inputs.deploy_seed();
    let deployment = match data_dir {
        Some(dir) => Deployment::launch_durable(spec, &seed, 1, dir),
        None => Deployment::launch(spec, &seed),
    }
    .map_err(|e| format!("launch: {e}"))?;
    tracer.end(span);
    Ok((deployment, counters))
}

/// Launches `spec`'s workload from `seed`: keygen, `Deployment::launch*`,
/// and the `preload` releases. `scratch` is where `audit_churn` keeps its
/// durable logs.
pub fn launch(
    spec: &'static Spec,
    seed: u64,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    let inputs = Inputs::new(seed, spec.name);
    match spec.name {
        "sign_quorum" | "share_single" => Signing::launch(spec, inputs, tracer),
        "submit_small" => Submit::launch(spec, inputs, tracer),
        "audit_churn" => Churn::launch(spec, inputs, scratch, tracer),
        other => Err(format!("no workload {other:?}")),
    }
}

/// Size of an `AppCall` carrying `request` plus an `AppResult` carrying
/// `response`, as framed payload bytes.
fn app_call_bytes(method: u64, request: &[u8], response: &[u8]) -> usize {
    Request::AppCall {
        method,
        payload: request.to_vec(),
    }
    .to_wire()
    .len()
        + Response::AppResult {
            payload: response.to_vec(),
        }
        .to_wire()
        .len()
}

// ---------------------------------------------------------------------
// sign_quorum and share_single: the threshold signer.

/// `sign_quorum` (full `ThresholdSigningClient::sign` over all domains)
/// and `share_single` (one partial from the TEE-backed domain 1) share a
/// deployment shape and differ in the operation.
struct Signing {
    spec: &'static Spec,
    inputs: Inputs,
    deployment: Deployment,
    public: ThresholdPublic,
    counters: Vec<Arc<HostCounters>>,
    /// `sign_quorum`: the seeded sample kept for re-verification.
    signatures: Vec<([u8; 32], Signature)>,
    /// `share_single`: every reply, parsed and sample-verified off the clock.
    replies: Vec<([u8; 32], Vec<u8>)>,
    /// Domains asked / abandoned over the traced threshold fan-outs.
    asked: u64,
    abandoned: u64,
}

/// The TEE-backed domain `share_single` calls (domain 0 has no enclave).
pub const SHARE_DOMAIN: u32 = 1;

/// The dealer's randomness for `spec`'s threshold keys. It is the
/// workload's, not the seed's: the guest's double-and-add ladder takes
/// one point addition per set bit of a share, so keys drawn per seed
/// would move `op_ms_p50` by a few percent between seeds for no reason a
/// code change has. The seed drives what is asked (messages, client
/// identities, deployment keys). The probes deal from here too, so
/// `crypto.partial_sign_us` and `sandbox.sign_us` time the very share
/// `share_single` calls.
pub fn dealer(spec: &Spec) -> HmacDrbg {
    HmacDrbg::new(b"e2e/dealer", spec.name.as_bytes())
}

impl Signing {
    fn launch(
        spec: &'static Spec,
        inputs: Inputs,
        tracer: &mut Tracer,
    ) -> Result<Box<dyn Workload>, String> {
        let span = tracer.begin("apps.keygen");
        let (app, public) = threshold_signer::setup(spec.t, spec.n, &mut dealer(spec))
            .map_err(|e| format!("keygen: {e}"))?;
        tracer.end(span);
        let (deployment, counters) = launch_traced(app, &inputs, None, tracer)?;
        Ok(Box::new(Self {
            spec,
            inputs,
            deployment,
            public,
            counters,
            signatures: Vec::new(),
            replies: Vec::new(),
            asked: 0,
            abandoned: 0,
        }))
    }

    fn is_quorum(&self) -> bool {
        self.spec.name == "sign_quorum"
    }

    /// `ThresholdSigningClient::sign` taken apart at the boundaries the
    /// harness can see, so the traced run can time each: threshold
    /// fan-out, Feldman check of each partial, aggregation, group-key
    /// verification. Same calls, same order; only the retry loop for
    /// invalid partials is left out (no domain here is byzantine, and a
    /// short quorum fails the operation instead).
    fn sign_traced(
        &mut self,
        session: &mut Session<'_>,
        message: &[u8; 32],
        tracer: &mut Tracer,
    ) -> Result<Signature, String> {
        let t = self.spec.t;
        let outer = tracer.begin("apps.sign");
        let span = tracer.begin("core.fanout");
        let call =
            FanoutCall::broadcast(METHOD_SIGN, message.to_vec()).quorum(QuorumPolicy::Threshold(t));
        let report = session.fanout(&call).map_err(|e| e.to_string())?;
        tracer.record_host_calls(&self.counters);
        tracer.end(span);
        self.asked += self.spec.n as u64;
        self.abandoned += report.abandoned().len() as u64;
        let mut partials = Vec::with_capacity(t);
        for (domain, payload) in report.successes() {
            let span = tracer.begin("crypto.verify_partial");
            let partial = parse_partial(domain, payload)
                .filter(|p| threshold::verify_partial(&self.public.commitments, message, p));
            tracer.end(span);
            partials.extend(partial);
        }
        let span = tracer.begin("crypto.aggregate");
        let signature = threshold::aggregate(t, &partials).map_err(|e| e.to_string())?;
        tracer.end(span);
        let span = tracer.begin("crypto.bls_verify");
        let valid = self.public.public_key.verify(message, &signature);
        tracer.end(span);
        tracer.end(outer);
        valid
            .then_some(signature)
            .ok_or_else(|| "aggregate signature invalid".to_string())
    }
}

fn parse_partial(domain: u32, payload: &[u8]) -> Option<PartialSignature> {
    let bytes: [u8; 48] = payload.try_into().ok()?;
    Some(PartialSignature {
        index: (domain + 1) as u8,
        value: Signature::from_bytes(&bytes)?,
    })
}

impl Workload for Signing {
    fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    fn policy(&self) -> TrustPolicy {
        TrustPolicy::pinned(self.deployment.initial_app_digest)
    }

    fn op(&mut self, session: &mut Session<'_>, tracer: &mut Tracer) -> Result<(), String> {
        let message = self.inputs.message();
        if !self.is_quorum() {
            let span = tracer.begin("core.call");
            let reply = session
                .call(SHARE_DOMAIN, METHOD_SIGN, &message)
                .map_err(|e| e.to_string());
            tracer.record_host_calls(&self.counters);
            tracer.end(span);
            self.replies.push((message, reply?));
            return Ok(());
        }
        // `sign` verifies the aggregate under the group key itself, on
        // the clock: a wrong signature is an `Err` here.
        let signature = if tracer.enabled() {
            self.sign_traced(session, &message, tracer)?
        } else {
            ThresholdSigningClient::new(self.public.clone())
                .sign(session, &message)
                .map_err(|e| e.to_string())?
        };
        if self.inputs.sample(SIGN_SAMPLE_ONE_IN) {
            self.signatures.push((message, signature));
        }
        Ok(())
    }

    /// A threshold fan-out returns at the t-th answer and abandons the
    /// rest, which keep computing. One cheap call per domain returns only
    /// after that domain has answered everything before it.
    fn quiesce(&mut self, session: &mut Session<'_>) {
        if self.is_quorum() {
            for domain in 0..self.spec.n as u32 {
                let _ = session.call(domain, threshold_signer::METHOD_INDEX, &[]);
            }
        }
    }

    fn check(&mut self, _session: &mut Session<'_>) -> Vec<String> {
        let mut failures = Vec::new();
        for (message, signature) in &self.signatures {
            if !self.public.public_key.verify(message, signature) {
                failures.push("sampled signature fails re-verification".to_string());
            }
        }
        let mut partials = Vec::with_capacity(self.replies.len());
        for (message, reply) in &self.replies {
            match parse_partial(SHARE_DOMAIN, reply) {
                Some(p) => partials.push((message, p)),
                None => failures.push("reply is not a G1 point".to_string()),
            }
        }
        // A seeded sample: an even stride over the replies, phase-shifted
        // by the seed.
        let stride = partials.len().div_ceil(SHARE_VERIFY_SAMPLE).max(1);
        let offset = self.inputs.rng().next_u64() as usize % stride;
        for (message, partial) in partials.iter().skip(offset).step_by(stride) {
            if !threshold::verify_partial(&self.public.commitments, *message, partial) {
                failures.push("sampled partial fails the Feldman check".to_string());
            }
        }
        failures
    }

    fn call_bytes_per_op(&mut self) -> Result<f64, String> {
        let one = app_call_bytes(METHOD_SIGN, &[0u8; 32], &[0u8; 48]);
        let domains = if self.is_quorum() { self.spec.n } else { 1 };
        Ok((one * domains) as f64)
    }

    fn facts(&self) -> Facts {
        if self.asked == 0 {
            return Vec::new();
        }
        vec![(
            "core.quorum_waste",
            self.abandoned as f64 / self.asked as f64,
            self.asked / self.spec.n as u64,
        )]
    }
}

// ---------------------------------------------------------------------
// submit_small: private analytics over 8 domains.

struct Submit {
    inputs: Inputs,
    deployment: Deployment,
    client: AnalyticsClient,
    /// Wrapping sum and count of everything submitted — warm-up and cold
    /// phases included — for the final `aggregate()` comparison.
    totals: Vec<u64>,
    count: u64,
}

impl Submit {
    fn launch(
        spec: &'static Spec,
        inputs: Inputs,
        tracer: &mut Tracer,
    ) -> Result<Box<dyn Workload>, String> {
        // `NoImports` hosts are never called, so there is nothing to
        // count: the counters stay empty.
        let (deployment, _) = launch_traced(analytics::app_spec(spec.n), &inputs, None, tracer)?;
        Ok(Box::new(Self {
            inputs,
            deployment,
            client: AnalyticsClient::new(SUBMIT_DIMS),
            totals: vec![0; SUBMIT_DIMS],
            count: 0,
        }))
    }
}

impl Workload for Submit {
    fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    fn policy(&self) -> TrustPolicy {
        TrustPolicy::pinned(self.deployment.initial_app_digest)
    }

    fn op(&mut self, session: &mut Session<'_>, tracer: &mut Tracer) -> Result<(), String> {
        let values = self.inputs.values(SUBMIT_DIMS);
        let span = tracer.begin("apps.submit");
        let result = self.client.submit(session, &values, self.inputs.rng());
        tracer.end(span);
        result.map_err(|e| e.to_string())?;
        for (total, v) in self.totals.iter_mut().zip(&values) {
            *total = total.wrapping_add(*v);
        }
        self.count += 1;
        Ok(())
    }

    fn check(&mut self, session: &mut Session<'_>) -> Vec<String> {
        match self.client.aggregate(session) {
            Ok((totals, count)) if totals == self.totals && count == self.count => Vec::new(),
            Ok((_, count)) => vec![format!(
                "aggregate disagrees with the {} reports submitted (domains counted {count})",
                self.count
            )],
            Err(e) => vec![format!("aggregate failed: {e}")],
        }
    }

    fn call_bytes_per_op(&mut self) -> Result<f64, String> {
        let n = self.deployment.domain_count();
        let one = app_call_bytes(analytics::METHOD_SUBMIT, &[0u8; 8 * SUBMIT_DIMS], &[0]);
        Ok((one * n) as f64)
    }
}

// ---------------------------------------------------------------------
// audit_churn: audits of a durable log that keeps growing.

struct Churn {
    spec: &'static Spec,
    inputs: Inputs,
    deployment: Deployment,
    /// The developer's own client: pushes releases beside the audits.
    developer: DeploymentClient,
    dir: PathBuf,
    next_version: u64,
    latest_digest: Digest,
    push_ms: Vec<f64>,
}

impl Churn {
    fn launch(
        spec: &'static Spec,
        inputs: Inputs,
        scratch: &Path,
        tracer: &mut Tracer,
    ) -> Result<Box<dyn Workload>, String> {
        // A fresh directory per launch: set-up is repeated within a run.
        let dir = fresh_dir(scratch, spec.name)?;
        let (deployment, _) =
            launch_traced(analytics::app_spec(spec.n), &inputs, Some(&dir), tracer)?;
        let developer = deployment.client(&inputs.client_seed("developer", 0));
        let mut churn = Self {
            spec,
            inputs,
            latest_digest: deployment.initial_app_digest,
            deployment,
            developer,
            dir,
            next_version: 2,
            push_ms: Vec::new(),
        };
        // Version 1 is the first of the `preload` releases.
        for _ in 1..spec.preload {
            churn.push(tracer)?;
        }
        churn.push_ms.clear();
        Ok(Box::new(churn))
    }

    /// Signs and pushes the next `counter_module(v)` release; every
    /// domain must accept it and agree on the digest.
    fn push(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let v = self.next_version;
        let release = self
            .deployment
            .sign_release(v, &format!("v{v}"), &counter_module(v));
        let span = tracer.begin("core.push_update");
        let start = Instant::now();
        let acks = self.developer.push_update(&release);
        self.push_ms.push(start.elapsed().as_secs_f64() * 1e3);
        tracer.end(span);
        for (domain, ack) in acks.into_iter().enumerate() {
            match ack {
                Ok((_, digest)) if digest == release.digest() => {}
                Ok(_) => return Err(format!("domain {domain} acknowledged another digest")),
                Err(e) => return Err(format!("domain {domain} refused v{v}: {e}")),
            }
        }
        self.next_version += 1;
        self.latest_digest = release.digest();
        Ok(())
    }
}

/// A new empty directory under `scratch`, unique within this process and
/// across processes sharing the scratch root.
fn fresh_dir(scratch: &Path, label: &str) -> Result<PathBuf, String> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let serial = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = scratch.join(format!("{label}-{}-{serial}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

impl Workload for Churn {
    fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    fn policy(&self) -> TrustPolicy {
        // Not pinned: every release changes the digest; the operation
        // checks the report against the latest one instead.
        TrustPolicy::audited()
    }

    fn before_op(&mut self, index: u64, warming: bool, tracer: &mut Tracer) -> Result<(), String> {
        if warming || index.is_multiple_of(PUSH_EVERY) {
            self.push(tracer)?;
        }
        Ok(())
    }

    fn op(&mut self, session: &mut Session<'_>, tracer: &mut Tracer) -> Result<(), String> {
        let span = tracer.begin("core.refresh_trust");
        let result = session.refresh_trust().map(|report| {
            if !report.is_clean() {
                Err(format!("audit not clean: {:?}", report.misbehavior))
            } else if report.app_digest != Some(self.latest_digest) {
                Err("audit does not report the latest release".to_string())
            } else {
                Ok(())
            }
        });
        tracer.end(span);
        result.map_err(|e| e.to_string())?
    }

    /// The restart check: shut every domain down, re-launch on the same
    /// directory, and let an auditor holding the pre-restart heads audit
    /// again — no equivocation, and no domain's log shorter than what it
    /// acknowledged. (Ports are new after a restart and a client's
    /// descriptor is fixed, so the heads travel to a client of the new
    /// deployment as a gossip envelope — the path a real auditor's
    /// memory takes between peers.)
    fn check(&mut self, session: &mut Session<'_>) -> Vec<String> {
        let before = session.client().gossip_envelope();
        self.deployment.shutdown();
        let spec = analytics::app_spec(self.spec.n);
        let seed = self.inputs.deploy_seed();
        let relaunched = match Deployment::launch_durable(spec, &seed, 1, &self.dir) {
            Ok(d) => d,
            Err(e) => return vec![format!("re-launch on the used directory failed: {e}")],
        };
        let mut failures = Vec::new();
        let mut auditor = relaunched.client(&self.inputs.client_seed("restart-auditor", 0));
        let found = auditor.ingest_envelope(&before);
        if !found.is_empty() {
            failures.push(format!("pre-restart heads rejected: {found:?}"));
        }
        let report = auditor.audit(None);
        if !report.misbehavior.is_empty() || report.domains.iter().any(|d| d.failure.is_some()) {
            failures.push(format!("audit after restart not clean: {report:?}"));
        }
        let after = auditor.gossip_envelope();
        for head in &before.heads {
            let size_after = after
                .heads
                .iter()
                .find(|h| h.domain == head.domain)
                .map(|h| h.checkpoint.body.size);
            if size_after.is_none_or(|s| s < head.checkpoint.body.size) {
                failures.push(format!(
                    "domain {} lost acknowledged writes: {} before, {size_after:?} after",
                    head.domain, head.checkpoint.body.size
                ));
            }
        }
        if before.heads.len() != self.spec.n {
            failures.push("the warm auditor never saw every domain".to_string());
        }
        // Left running so a later audit against `self.deployment` fails
        // loudly rather than silently talking to the old ports.
        self.deployment = relaunched;
        failures
    }

    fn call_bytes_per_op(&mut self) -> Result<f64, String> {
        // One audit = a BatchAudit plus the piggy-backed gossip exchange
        // per domain; sized from an up-to-date auditor's point of view.
        let mut client = self.deployment.client(&self.inputs.client_seed("sizer", 0));
        if !client.audit(None).is_clean() {
            return Err("sizing audit not clean".to_string());
        }
        let gossip = Request::Gossip {
            envelope: client.gossip_envelope(),
        };
        let mut total = 0usize;
        for (domain, head) in client.gossip_payload() {
            let audit = Request::BatchAudit {
                request_id: 1,
                nonce: [0; 32],
                verified_size: head.body.size,
            };
            for request in [&audit, &gossip] {
                let response = client
                    .exchange(domain, request)
                    .map_err(|e| e.to_string())?;
                total += request.to_wire().len() + response.to_wire().len();
            }
        }
        Ok(total as f64)
    }

    fn facts(&self) -> Facts {
        crate::stats::median(&self.push_ms)
            .map(|m| vec![("log.push_update_ms_p50", m, self.push_ms.len() as u64)])
            .unwrap_or_default()
    }
}

impl Drop for Churn {
    fn drop(&mut self) {
        self.deployment.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, workload: &'static str) -> Vec<u8> {
        let mut inputs = Inputs::new(seed, workload);
        let mut out = Vec::new();
        for _ in 0..4 {
            out.extend_from_slice(&inputs.message());
            out.extend(inputs.values(8).iter().flat_map(|v| v.to_le_bytes()));
            out.push(inputs.sample(50) as u8);
        }
        out.extend(inputs.deploy_seed());
        out.extend(inputs.client_seed("cold", 3));
        out
    }

    #[test]
    fn equal_seeds_give_identical_inputs_and_unequal_seeds_do_not() {
        assert_eq!(stream(7, "sign_quorum"), stream(7, "sign_quorum"));
        assert_ne!(stream(7, "sign_quorum"), stream(8, "sign_quorum"));
        assert_ne!(stream(7, "sign_quorum"), stream(7, "share_single"));
    }

    #[test]
    fn specs_are_named_once_and_found() {
        for s in &SPECS {
            assert!(std::ptr::eq(spec(s.name).unwrap(), s));
            assert!(s.why.len() <= 200, "{} why is one line of ≤200", s.name);
            assert!(!s.why.contains('\n'));
        }
        assert!(spec("nope").is_none());
    }

    #[test]
    fn dir_bytes_sums_nested_files() {
        let root = fresh_dir(&std::env::temp_dir(), "e2e-dir-bytes").unwrap();
        std::fs::create_dir_all(root.join("a/b")).unwrap();
        std::fs::write(root.join("x"), [0u8; 10]).unwrap();
        std::fs::write(root.join("a/b/y"), [0u8; 5]).unwrap();
        assert_eq!(dir_bytes(&root).unwrap(), 15);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
