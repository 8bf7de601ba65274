//! The per-layer probes of the traced run: the harness times calls into
//! each crate's public functions, from outside, on inputs like those the
//! workloads produce. Each repetition is one span `<layer>.<fn>`; the
//! median and the sample count are reported.
//!
//! The `log.*` and `gossip.*` probes need a log with history and an
//! auditor that has watched it grow. They take both from a small durable
//! deployment of their own (the *fixture*, [`FIXTURE_ROUNDS`] rounds of
//! push-then-audit) built the same way in every traced run, so these
//! numbers mean the same thing whichever workload the run traced.

use crate::stats;
use crate::trace::{HostCounters, TracedHost, Tracer};
use crate::workloads::{self, dir_bytes, Inputs, SHARE_DOMAIN, SUBMIT_DIMS};
use distrust_apps::analytics;
use distrust_apps::threshold_signer::{self, SignerHost, METHOD_SIGN};
use distrust_core::abi::{app_call, import_names, AppHost, NoImports};
use distrust_core::framework::{EnclaveFramework, FrameworkConfig};
use distrust_core::protocol::{BundleAttestation, Request, Response};
use distrust_core::server::DirectHost;
use distrust_core::{framework_measurement, Deployment, SignedRelease};
use distrust_crypto::bls::MSG_DST;
use distrust_crypto::drbg::HmacDrbg;
use distrust_crypto::schnorr::SigningKey;
use distrust_crypto::threshold;
use distrust_crypto::{hash_to_g1, sha256};
use distrust_gossip::witness::{QuorumAggregator, Witness};
use distrust_log::store::{DurableOptions, StorageConfig};
use distrust_log::{Auditor, CheckpointBundle, MerkleLog, ShardedLog};
use distrust_sandbox::guests::counter_module;
use distrust_sandbox::{Instance, Limits};
use distrust_tee::host::EnclaveHost;
use distrust_tee::vendor::{Vendor, VendorKind};
use distrust_wire::codec::{Decode, Encode};
use distrust_wire::transport::{TcpTransport, Transport};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions a probe aims for.
const REPS: usize = 200;
/// Repetitions a probe makes whatever its time cap says.
const MIN_REPS: usize = 5;
/// Traced signatures behind `crypto.host_us_per_sign`.
const HOST_TIME_REPS: usize = 25;
/// Push-then-audit rounds the fixture runs before anything is captured.
const FIXTURE_ROUNDS: u64 = 12;

/// One reported per-layer number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Collects probe results; every timed repetition is also a span.
pub struct Probes<'t> {
    tracer: &'t mut Tracer,
    /// A slow probe stops repeating after this long (never before
    /// [`MIN_REPS`]): pairing-heavy calls cost milliseconds each, and the
    /// traced run has a time budget.
    cap: Duration,
    pub out: Vec<Metric>,
}

fn unit_per_ns(unit: &str) -> f64 {
    match unit {
        "ns" => 1.0,
        "us" => 1e-3,
        "ms" => 1e-6,
        other => panic!("probe unit {other:?} is not a time unit"),
    }
}

impl<'t> Probes<'t> {
    pub fn new(tracer: &'t mut Tracer, cap: Duration) -> Self {
        Self {
            tracer,
            cap,
            out: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.out.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.out.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Times `run` on a fresh `prepare()` each repetition (only `run` is
    /// on the clock); `inner` calls per repetition for nanosecond-scale
    /// work, where two clock reads per call would be the measurement.
    /// Returns the median per call in `unit`, and the sample count.
    fn sample_with<P, R>(
        &mut self,
        name: &'static str,
        unit: &str,
        inner: u32,
        mut prepare: impl FnMut() -> P,
        mut run: impl FnMut(P) -> R,
    ) -> (f64, u64) {
        let scale = unit_per_ns(unit) / f64::from(inner);
        let started = Instant::now();
        let mut samples = Vec::with_capacity(REPS);
        while samples.len() < REPS && (samples.len() < MIN_REPS || started.elapsed() < self.cap) {
            let mut inputs: Vec<P> = (0..inner).map(|_| prepare()).collect();
            let span = self.tracer.begin(name);
            let t = Instant::now();
            for input in inputs.drain(..) {
                black_box(run(black_box(input)));
            }
            let ns = t.elapsed().as_nanos() as f64;
            self.tracer.end(span);
            samples.push(ns * scale);
        }
        let value = stats::median(&samples).expect("MIN_REPS > 0");
        (value, samples.len() as u64)
    }

    /// [`Self::sample_with`], reported as metric `name`.
    fn time_with<P, R>(
        &mut self,
        name: &'static str,
        unit: &'static str,
        inner: u32,
        prepare: impl FnMut() -> P,
        run: impl FnMut(P) -> R,
    ) -> f64 {
        let (value, samples) = self.sample_with(name, unit, inner, prepare, run);
        self.set(name, value, unit, samples);
        value
    }

    fn time<R>(
        &mut self,
        name: &'static str,
        unit: &'static str,
        mut run: impl FnMut() -> R,
    ) -> f64 {
        self.time_with(name, unit, 1, || (), |()| run())
    }
}

/// Folds several passes of [`run_all`] into one list: per metric the
/// median of the passes' values, the samples summed. Machine noise here
/// comes in bursts of seconds; a probe's repetitions sit within a fraction
/// of a second, so one burst can own a whole pass of one probe but not
/// the same probe in every pass.
pub fn merge(passes: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|m| {
            let same: Vec<&Metric> = passes
                .iter()
                .filter_map(|pass| pass.iter().find(|other| other.name == m.name))
                .collect();
            let values: Vec<f64> = same.iter().map(|m| m.value).collect();
            Metric {
                value: stats::median(&values).unwrap_or(m.value),
                samples: same.iter().map(|m| m.samples).sum(),
                ..m.clone()
            }
        })
        .collect()
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Runs every probe. `scratch` holds the fixture's durable logs for the
/// length of the call.
pub fn run_all(probes: &mut Probes<'_>, seed: u64, scratch: &Path) -> Result<(), String> {
    let mut inputs = Inputs::new(seed, "probes");
    crypto_and_sandbox(probes, &mut inputs)?;
    wire_and_tee(probes, &mut inputs)?;
    apps(probes, &mut inputs)?;
    core_framework(probes, &mut inputs)?;
    log_store(probes, scratch)?;
    fixture(probes, &inputs, scratch)
}

/// The threshold keys workload `name` deploys (`threshold_signer::setup`
/// deals with exactly this call).
fn deal(name: &str) -> Result<threshold::ThresholdKeys, String> {
    let spec = workloads::spec(name).ok_or_else(|| format!("no workload {name}"))?;
    threshold::generate(spec.t, spec.n, &mut workloads::dealer(spec)).map_err(err("keygen"))
}

fn crypto_and_sandbox(p: &mut Probes<'_>, inputs: &mut Inputs) -> Result<(), String> {
    // The workloads' own keys: the share `share_single` calls, and
    // `sign_quorum`'s dealing for the client-side checks.
    let share = deal("share_single")?.shares[SHARE_DOMAIN as usize];
    let keys = deal("sign_quorum")?;
    let message = inputs.message();

    p.time("crypto.hash_to_g1_us", "us", || {
        hash_to_g1(&message, MSG_DST)
    });
    // Message in, 48 signature bytes out — on both sides of the Table 3
    // comparison, as `crates/bench/src/environments.rs` builds its rows.
    let native = p.time("crypto.partial_sign_us", "us", || {
        threshold::partial_sign(&share, &message).value.to_bytes()
    });
    let partials: Vec<_> = keys.shares[..3]
        .iter()
        .map(|s| threshold::partial_sign(s, &message))
        .collect();
    p.time("crypto.verify_partial_us", "us", || {
        threshold::verify_partial(&keys.commitments, &message, &partials[0])
    });
    p.time("crypto.aggregate_us", "us", || {
        threshold::aggregate(3, &partials)
    });
    let signature = threshold::aggregate(3, &partials).map_err(err("aggregate"))?;
    if !keys.public_key.verify(&message, &signature) {
        return Err("probe signature does not verify".to_string());
    }
    p.time("crypto.bls_verify_us", "us", || {
        keys.public_key.verify(&message, &signature)
    });
    let schnorr = SigningKey::derive(&inputs.deploy_seed(), b"probe");
    let schnorr_sig = schnorr.sign(&message);
    p.time("crypto.schnorr_sign_us", "us", || schnorr.sign(&message));
    p.time("crypto.schnorr_verify_us", "us", || {
        schnorr.verifying_key().verify(&message, &schnorr_sig)
    });

    // The signer in the sandbox, no sockets: Table 3's "Sandbox" row.
    let module = threshold_signer::signer_module();
    let names = import_names(&module);
    p.time("sandbox.instantiate_us", "us", || {
        Instance::new(module.clone(), Limits::default())
    });
    let mut instance = Instance::new(module.clone(), Limits::default()).map_err(err("instance"))?;
    let mut host = SignerHost::new(share);
    let in_sandbox = threshold_signer::sign_in_sandbox(&mut instance, &names, &mut host, &message)?;
    if in_sandbox != threshold::partial_sign(&share, &message).value {
        return Err("sandboxed signature differs from the native one".to_string());
    }
    // `app_call`, not `sign_in_sandbox`: the latter also parses the
    // reply back into a G1 point (a subgroup check of ~0.3 ms that is no
    // part of the sandbox and that no server pays).
    let sandboxed = p.time("sandbox.sign_us", "us", || {
        app_call(&mut instance, &names, &mut host, METHOD_SIGN, &message)
    });
    p.set(
        "sandbox.fuel_per_sign",
        instance.last_fuel_used as f64,
        "count",
        1,
    );
    p.set(
        "sandbox.overhead_pct",
        100.0 * (sandboxed / native - 1.0),
        "%",
        1,
    );

    // The same call with the host wrapped, for the host-call count and
    // the time spent on the host side of the boundary.
    let counters = Arc::new(HostCounters::default());
    let mut traced: Box<dyn AppHost> = Box::new(TracedHost::new(
        Box::new(SignerHost::new(share)),
        counters.clone(),
        &*p.tracer,
    ));
    let clock_ns = traced_call_floor_ns(p)?;
    let mut calls = 0;
    let mut busy_us = Vec::new();
    for _ in 0..HOST_TIME_REPS {
        app_call(
            &mut instance,
            &names,
            traced.as_mut(),
            METHOD_SIGN,
            &message,
        )
        .map_err(err("traced sign"))?;
        let reading = counters.drain();
        calls = reading.calls;
        busy_us.push((reading.busy_ns as f64 - calls as f64 * clock_ns) / 1e3);
    }
    let host_us = stats::median(&busy_us).expect("HOST_TIME_REPS > 0");
    p.set("crypto.host_calls_per_sign", calls as f64, "count", 1);
    p.set(
        "crypto.host_us_per_sign",
        host_us,
        "us",
        HOST_TIME_REPS as u64,
    );
    p.set("sandbox.sign_self_us", sandboxed - host_us, "us", 1);

    // One analytics submit in-process: pure guest code, no host calls.
    let module = analytics::analytics_module();
    let names = import_names(&module);
    let mut instance = Instance::new(module, Limits::default()).map_err(err("instance"))?;
    let payload = vec![7u8; 8 * SUBMIT_DIMS];
    p.time("sandbox.submit8_us", "us", || {
        app_call(
            &mut instance,
            &names,
            &mut NoImports,
            analytics::METHOD_SUBMIT,
            &payload,
        )
    });
    Ok(())
}

/// What a [`TracedHost`] measures around a host call that does nothing:
/// the cost of its own clock reads, which `crypto.host_us_per_sign` must
/// not count as host time (a signature makes thousands of calls).
fn traced_call_floor_ns(p: &Probes<'_>) -> Result<f64, String> {
    struct Nothing;
    impl AppHost for Nothing {
        fn call(
            &mut self,
            _: &str,
            _: &[u64],
            _: &mut distrust_sandbox::Memory,
        ) -> Result<Vec<u64>, String> {
            Ok(Vec::new())
        }
    }
    const CALLS: u64 = 20_000;
    let counters = Arc::new(HostCounters::default());
    let mut host = TracedHost::new(Box::new(Nothing), counters.clone(), &*p.tracer);
    let mut instance =
        Instance::new(counter_module(1), Limits::default()).map_err(err("instance"))?;
    for _ in 0..CALLS {
        black_box(host.call("nothing", &[], &mut instance.memory))?;
    }
    Ok(counters.drain().busy_ns as f64 / CALLS as f64)
}

/// Median round trip (µs) of a `size`-byte echo over a connected
/// transport, and the sample count.
fn echo_rtt(
    p: &mut Probes<'_>,
    name: &'static str,
    transport: &mut TcpTransport,
    size: usize,
) -> Result<(f64, u64), String> {
    let payload = vec![0x5a; size];
    let reply = transport
        .send(&payload)
        .and_then(|()| transport.recv())
        .map_err(err("echo"))?;
    if reply != payload {
        return Err(format!("{name}: echo returned other bytes"));
    }
    Ok(p.sample_with(
        name,
        "us",
        1,
        || (),
        |()| transport.send(&payload).and_then(|()| transport.recv()),
    ))
}

fn wire_and_tee(p: &mut Probes<'_>, inputs: &mut Inputs) -> Result<(), String> {
    // Echo services as `crates/bench/src/environments.rs` builds its
    // rows: the same closure behind one socket (DirectHost) and behind
    // the enclave proxy's two extra sockets (EnclaveHost).
    let mut direct = DirectHost::spawn(|m: Vec<u8>| m).map_err(err("direct host"))?;
    let mut enclave = EnclaveHost::spawn(|m: Vec<u8>| m).map_err(err("enclave host"))?;
    let mut to_direct = TcpTransport::connect(direct.addr()).map_err(err("connect"))?;
    let mut to_enclave = TcpTransport::connect(enclave.addr()).map_err(err("connect"))?;
    for (size, wire_name, tee_name) in [
        (64, "wire.rtt_64b_us", "tee.hop_64b_us"),
        (8192, "wire.rtt_8k_us", "tee.hop_8k_us"),
    ] {
        let (plain, samples) = echo_rtt(p, wire_name, &mut to_direct, size)?;
        p.set(wire_name, plain, "us", samples);
        // The hop is the difference of the two round trips; the proxied
        // one is recorded as spans only.
        let (proxied, samples) = echo_rtt(p, "tee.rtt", &mut to_enclave, size)?;
        p.set(tee_name, proxied - plain, "us", samples);
    }
    let addr = direct.addr();
    p.time("wire.connect_us", "us", || {
        TcpTransport::connect(addr).and_then(|mut t| {
            t.send(&[1])
                .and_then(|()| t.recv())
                .map_err(|e| std::io::Error::other(e.to_string()))
        })
    });
    drop((to_direct, to_enclave));
    direct.shutdown();
    enclave.shutdown();

    let message = inputs.message();
    let request = Request::AppCall {
        method: METHOD_SIGN,
        payload: message.to_vec(),
    };
    let response = Response::AppResult {
        payload: vec![0x11; 48],
    };
    let (request_wire, response_wire) = (request.to_wire(), response.to_wire());
    p.time_with(
        "wire.encode_call_ns",
        "ns",
        1000,
        || (),
        |()| (request.to_wire(), response.to_wire()),
    );
    p.time_with(
        "wire.decode_call_ns",
        "ns",
        1000,
        || (),
        |()| {
            (
                Request::from_wire(&request_wire),
                Response::from_wire(&response_wire),
            )
        },
    );

    // An enclave as `Deployment::launch` provisions one, quoting a
    // binding-sized blob.
    let vendor = Vendor::new(VendorKind::ALL[0], &inputs.deploy_seed());
    let enclave = vendor
        .provision_device(inputs.rng())
        .launch(sha256(b"probe measurement"));
    let user_data = vec![0x42; 160];
    p.time("tee.quote_us", "us", || enclave.quote(&user_data));
    Ok(())
}

fn apps(p: &mut Probes<'_>, inputs: &mut Inputs) -> Result<(), String> {
    for (dims, name) in [
        (SUBMIT_DIMS, "apps.share_values_8_us"),
        (1024, "apps.share_values_1024_us"),
    ] {
        let values = inputs.values(dims);
        let mut rng = HmacDrbg::new(&inputs.deploy_seed(), b"share-values");
        p.time(name, "us", || analytics::share_values(&values, 8, &mut rng));
    }
    let mut rng = HmacDrbg::new(&inputs.deploy_seed(), b"keygen");
    p.time("apps.keygen_ms", "ms", || {
        threshold_signer::setup(3, 5, &mut rng).map(|(_, public)| public)
    });
    Ok(())
}

/// An in-process TEE-backed framework, no sockets.
fn framework(
    inputs: &mut Inputs,
    app_name: &str,
    developer: &SigningKey,
    host: Box<dyn AppHost>,
) -> Result<EnclaveFramework, String> {
    let developer_key = developer.verifying_key();
    let vendor = Vendor::new(VendorKind::ALL[0], &inputs.deploy_seed());
    let enclave = vendor
        .provision_device(inputs.rng())
        .launch(framework_measurement(&developer_key, app_name));
    let checkpoint_key = enclave.derive_signing_key(b"checkpoint");
    EnclaveFramework::open(
        FrameworkConfig {
            domain_index: 1,
            app_name: app_name.to_string(),
            developer_key,
            log_id: sha256(b"probe log"),
            limits: Limits::default(),
            log_shards: 1,
            storage: StorageConfig::Ephemeral,
        },
        Some(enclave),
        checkpoint_key,
        host,
    )
    .map_err(err("framework"))
}

fn core_framework(p: &mut Probes<'_>, inputs: &mut Inputs) -> Result<(), String> {
    let developer = SigningKey::derive(&inputs.deploy_seed(), b"probe developer");
    let share = deal("share_single")?.shares[SHARE_DOMAIN as usize];
    let host = Box::new(SignerHost::new(share));
    let mut signer = framework(inputs, "signer", &developer, host)?;
    let release = SignedRelease::create(
        "signer",
        1,
        "v1",
        &threshold_signer::signer_module(),
        &developer,
    );
    signer.apply_update(&release).map_err(err("install"))?;
    let message = inputs.message();
    p.time("core.serve_call_us", "us", || {
        signer.handle(Request::AppCall {
            method: METHOD_SIGN,
            payload: message.to_vec(),
        })
    });

    let mut counter = framework(inputs, "counter", &developer, Box::new(NoImports))?;
    let mut version = 0;
    p.time_with(
        "core.apply_update_us",
        "us",
        1,
        || {
            version += 1;
            let notes = format!("v{version}");
            SignedRelease::create(
                "counter",
                version,
                &notes,
                &counter_module(version),
                &developer,
            )
        },
        |release| counter.apply_update(&release).map(|_| ()),
    );
    // Steady state: the bundle comes from the per-epoch cache; what is
    // left is the quote and the encoding.
    p.time("core.serve_audit_us", "us", || {
        counter.handle(Request::BatchAudit {
            request_id: 1,
            nonce: [9; 32],
            verified_size: 0,
        })
    });
    Ok(())
}

fn log_store(p: &mut Probes<'_>, scratch: &Path) -> Result<(), String> {
    let leaf = [0xabu8; 32];
    // Each repetition appends to a log that already holds 64 entries.
    let filled = |log: ShardedLog| -> Result<ShardedLog, String> {
        for _ in 0..64 {
            log.append(0, &leaf).map_err(err("append"))?;
        }
        Ok(log)
    };
    let log = filled(ShardedLog::new(1))?;
    p.time("log.append_us", "us", || log.append(0, &leaf));

    let dir = scratch.join(format!("probe-log-{}", std::process::id()));
    let storage = StorageConfig::Durable(DurableOptions::new(&dir));
    let (log, _) = ShardedLog::open(1, &storage).map_err(err("open durable log"))?;
    let log = filled(log)?;
    // fsync on every append (the `DurableOptions` default).
    p.time("log.append_durable_us", "us", || log.append(0, &leaf));
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The audit answer of `domain`, decoded, plus its encoded size.
fn fetch_bundle(
    client: &mut distrust_core::DeploymentClient,
    domain: u32,
    verified_size: u64,
) -> Result<(Box<distrust_core::protocol::AuditBundle>, Vec<u8>), String> {
    let response = client
        .exchange(
            domain,
            &Request::BatchAudit {
                request_id: 7,
                nonce: [3; 32],
                verified_size,
            },
        )
        .map_err(err("BatchAudit"))?;
    let wire = response.to_wire();
    match response {
        Response::AuditBundle(bundle) => Ok((bundle, wire)),
        other => Err(format!("BatchAudit answered {other:?}")),
    }
}

/// Performed and skipped verifications the client's auditor has counted,
/// summed over domains.
fn audit_counters(client: &distrust_core::DeploymentClient, n: u32) -> (u64, u64) {
    (0..n)
        .filter_map(|d| client.auditor_prefix_cache(d))
        .fold((0, 0), |(done, skipped), c| {
            (
                done + c.signatures_verified() + c.consistency_verified(),
                skipped + c.skipped(),
            )
        })
}

fn fixture(p: &mut Probes<'_>, inputs: &Inputs, scratch: &Path) -> Result<(), String> {
    const N: usize = 3;
    /// The TEE-backed domain whose answers are captured.
    const DOMAIN: u32 = 1;
    let dir = scratch.join(format!("probe-fixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let seed = inputs.deploy_seed();
    let mut deployment = Deployment::launch_durable(analytics::app_spec(N), &seed, 1, &dir)
        .map_err(err("fixture launch"))?;
    let mut developer = deployment.client(&inputs.client_seed("developer", 0));
    let mut auditor = deployment.client(&inputs.client_seed("auditor", 0));
    if !auditor.audit(None).is_clean() {
        return Err("fixture: first audit not clean".to_string());
    }

    let mut push_ms = Vec::new();
    let mut before_last: Option<(CheckpointBundle, u64)> = None;
    let mut per_audit = (0, 0);
    for round in 0..FIXTURE_ROUNDS {
        if round + 1 == FIXTURE_ROUNDS {
            // What an auditor one release behind has already verified.
            let (bundle, _) = fetch_bundle(&mut auditor, DOMAIN, 0)?;
            let size = bundle.bundle.checkpoints.last().map_or(0, |c| c.body.size);
            before_last = Some((bundle.bundle, size));
        }
        let version = round + 2;
        let release = deployment.sign_release(version, "probe", &counter_module(version));
        let t = Instant::now();
        let acks = developer.push_update(&release);
        push_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(e) = acks.into_iter().find_map(Result::err) {
            return Err(format!("fixture: push refused: {e}"));
        }
        let counted = audit_counters(&auditor, N as u32);
        if !auditor.audit(None).is_clean() {
            return Err("fixture: audit not clean".to_string());
        }
        let after = audit_counters(&auditor, N as u32);
        per_audit = (after.0 - counted.0, after.1 - counted.1);
    }
    let (behind_bundle, behind_size) = before_last.expect("FIXTURE_ROUNDS > 0");
    p.set(
        "log.push_update_ms_p50",
        stats::median(&push_ms).expect("FIXTURE_ROUNDS > 0"),
        "ms",
        push_ms.len() as u64,
    );
    p.set("log.sig_verifies_per_audit", per_audit.0 as f64, "count", 1);
    p.set("log.sig_skips_per_audit", per_audit.1 as f64, "count", 1);

    // The captured audit answers: everything (a fresh auditor's view) and
    // the last step only (an auditor one release behind).
    let (full, full_wire) = fetch_bundle(&mut auditor, DOMAIN, 0)?;
    let (step, _) = fetch_bundle(&mut auditor, DOMAIN, behind_size)?;
    p.set("wire.bundle_bytes", full_wire.len() as f64, "bytes", 1);
    p.time("wire.decode_bundle_us", "us", || {
        Response::from_wire(&full_wire)
    });
    let BundleAttestation::Quote(quote) = &full.attestation else {
        return Err("fixture: TEE-backed domain answered without a quote".to_string());
    };
    let roots = &deployment.descriptor.vendor_roots;
    let measurement = deployment.descriptor.expected_measurement();
    quote
        .verify(roots, Some(&measurement), None)
        .map_err(err("fixture quote"))?;
    p.time("tee.quote_verify_us", "us", || {
        quote.verify(roots, Some(&measurement), None)
    });

    let keys: Vec<_> = deployment
        .descriptor
        .domains
        .iter()
        .map(|d| d.checkpoint_key)
        .collect();
    let consistent = |outcome: distrust_log::AuditOutcome| outcome.is_consistent();
    if !consistent(Auditor::new(keys.clone()).observe_bundle(DOMAIN, &full.bundle)) {
        return Err("fixture: captured bundle does not verify".to_string());
    }
    p.time_with(
        "log.observe_bundle_cold_us",
        "us",
        1,
        || Auditor::new(keys.clone()),
        |mut fresh| fresh.observe_bundle(DOMAIN, &full.bundle),
    );
    p.time_with(
        "log.observe_bundle_incr_us",
        "us",
        1,
        || {
            let mut behind = Auditor::new(keys.clone());
            behind.observe_bundle(DOMAIN, &behind_bundle);
            behind
        },
        |mut behind| behind.observe_bundle(DOMAIN, &step.bundle),
    );
    // Proof construction for the sizes the captured bundle links.
    let sizes: Vec<usize> = full
        .bundle
        .checkpoints
        .iter()
        .map(|c| c.body.size as usize)
        .collect();
    let mut log = MerkleLog::new();
    for i in 0..sizes.last().copied().unwrap_or(0) {
        log.append(&sha256(&i.to_le_bytes()));
    }
    if log.prove_consistency_range(&sizes).is_none() {
        return Err(format!("fixture: no range proof for sizes {sizes:?}"));
    }
    p.time("log.consistency_range_us", "us", || {
        log.prove_consistency_range(&sizes)
    });

    // Gossip: what the long-lived auditor would hand a peer, and one
    // explicit exchange with every domain's bulletin board.
    let envelope = auditor.gossip_envelope();
    p.set(
        "gossip.envelope_heads",
        envelope.heads.len() as f64,
        "count",
        1,
    );
    p.set(
        "gossip.envelope_bytes",
        envelope.to_wire().len() as f64,
        "bytes",
        1,
    );
    let mut serial = 0;
    p.time_with(
        "gossip.ingest_us",
        "us",
        1,
        || {
            serial += 1;
            deployment.client(&inputs.client_seed("peer", serial))
        },
        |mut peer| peer.ingest_envelope(&envelope),
    );
    p.time("gossip.exchange_ms", "ms", || {
        (0..N as u32)
            .map(|d| auditor.gossip_with_domain(d).map(|found| found.len()))
            .collect::<Result<Vec<_>, _>>()
    });

    // A 2-of-3 witness quorum cosigns the heads; no workload uses it yet.
    let heads: Vec<_> = envelope
        .heads
        .iter()
        .map(|h| h.checkpoint.clone())
        .collect();
    let bodies = heads.iter().map(|c| c.body.clone()).collect();
    let mut rng = HmacDrbg::new(&seed, b"witness quorum");
    let quorum = threshold::generate(2, 3, &mut rng).map_err(err("quorum keygen"))?;
    let mut aggregator = QuorumAggregator::new(quorum.commitments.clone(), bodies);
    for share in quorum.shares.iter().take(2) {
        let partial = Witness::new(*share, keys.clone())
            .observe_and_sign(&heads)
            .map_err(err("witness"))?;
        aggregator.add(partial);
    }
    let cosigned = aggregator.cosign().map_err(err("cosign"))?;
    if !cosigned.verify(&quorum.public_key) {
        return Err("fixture: cosigned heads do not verify".to_string());
    }
    p.time("gossip.cosign_verify_ms", "ms", || {
        cosigned.verify(&quorum.public_key)
    });

    // Space and restart, on the directory the fixture filled.
    let releases = 1 + FIXTURE_ROUNDS;
    let bytes = dir_bytes(&dir).map_err(err("fixture dir"))?;
    p.set(
        "log.disk_bytes_per_update",
        bytes as f64 / releases as f64 / N as f64,
        "bytes",
        1,
    );
    drop((developer, auditor));
    deployment.shutdown();
    drop(deployment);
    let t = Instant::now();
    let mut relaunched = Deployment::launch_durable(analytics::app_spec(N), &seed, 1, &dir)
        .map_err(err("fixture re-launch"))?;
    p.set("log.restart_ms", t.elapsed().as_secs_f64() * 1e3, "ms", 1);
    relaunched.shutdown();
    drop(relaunched);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
