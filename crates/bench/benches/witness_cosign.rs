//! Witness cosigning vs auditing everything yourself (ISSUE 9
//! acceptance): the thin client's trust-establishment cost.
//!
//! A client under the classic policy audits all `n` trust domains —
//! `n` socket round-trips, `n` signature chains, `n` attestation checks.
//! A client under [`TrustPolicy::witnessed`] verifies ONE aggregated
//! threshold-BLS signature over the same `n` checkpoint heads, because a
//! witness quorum already did the per-domain work. Both paths are
//! measured against the SAME live deployment at n = 3 / 8 / 16, and one
//! claim is **asserted**, not just reported: at n = 8 the cosigned-head
//! verification beats the full batched audit.
//!
//! Custom harness (`harness = false`), same shape as `cold_start`;
//! results go to `bench_results/witness_cosign.json`.

use distrust_apps::key_backup;
use distrust_core::Deployment;
use distrust_crypto::drbg::HmacDrbg;
use distrust_crypto::threshold;
use distrust_gossip::witness::{QuorumAggregator, Witness};
use distrust_log::checkpoint::CheckpointBody;
use std::time::{Duration, Instant};

/// Deployment sizes. The paper's deployments are single-digit; 16 shows
/// the gap widening — the cosigned path is O(1) in `n` (one pairing
/// check over a message that grows 80 bytes per domain).
const SIZES: &[usize] = &[3, 8, 16];
/// Timed repetitions per measurement (the minimum is reported).
const REPS: usize = 5;

struct Row {
    domains: usize,
    cosign_verify: Duration,
    full_audit: Duration,
}

fn min_time(reps: usize, mut f: impl FnMut() -> bool) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        assert!(f(), "measured operation must succeed");
        best = best.min(t.elapsed());
    }
    best
}

fn measure(n: usize) -> Row {
    let seed = format!("witness cosign bench {n}");
    let deployment = Deployment::launch(key_backup::app_spec(n), seed.as_bytes()).expect("launch");
    let keys: Vec<_> = deployment
        .descriptor
        .domains
        .iter()
        .map(|d| d.checkpoint_key)
        .collect();

    // The witness side (done once, off the thin client's critical path):
    // an operator audit collects every domain's signed head, a 2-of-3
    // quorum verifies and cosigns it.
    let mut operator = deployment.client(b"operator");
    let report = operator.audit(None);
    assert!(report.is_clean(), "{report:?}");
    let mut observed = operator.gossip_payload();
    observed.sort_by_key(|(d, _)| *d);
    assert_eq!(observed.len(), n);
    let heads: Vec<_> = observed.into_iter().map(|(_, cp)| cp).collect();
    let bodies: Vec<CheckpointBody> = heads.iter().map(|cp| cp.body.clone()).collect();
    let mut rng = HmacDrbg::new(seed.as_bytes(), b"quorum");
    let quorum = threshold::generate(2, 3, &mut rng).expect("keygen");
    let mut agg = QuorumAggregator::new(quorum.commitments.clone(), bodies);
    for share in quorum.shares.iter().take(2) {
        let mut witness = Witness::new(*share, keys.clone());
        assert!(agg.add(witness.observe_and_sign(&heads).expect("honest heads")));
    }
    let cosigned = agg.cosign().expect("aggregate");

    // Thin-client path: one aggregated-signature verification covers all
    // n domains' heads (what Session::install_cosigned_head runs before
    // its gate). It says nothing about the code a domain runs: a policy
    // that requires attestation or pins a digest still pays the full
    // audit below.
    let cosign_verify = min_time(REPS, || cosigned.verify(&quorum.public_key));

    // Classic path: a FRESH client audits all n domains itself. Fresh per
    // rep, so every measurement pays the genuine cold trust-establishment
    // cost (connections included — a real first contact pays them too).
    let full_audit = min_time(REPS, || {
        let mut client = deployment.client(b"fresh thin client");
        client.audit(None).is_clean()
    });

    Row {
        domains: n,
        cosign_verify,
        full_audit,
    }
}

fn main() {
    println!(
        "witness cosigning: one aggregated BLS verify vs auditing all n \
         domains (live deployments, min of {REPS} runs)\n"
    );
    println!(
        "{:>8} {:>18} {:>16} {:>9}",
        "domains", "cosign verify (ms)", "full audit (ms)", "speedup"
    );
    let rows: Vec<Row> = SIZES.iter().map(|&n| measure(n)).collect();
    for r in &rows {
        println!(
            "{:>8} {:>18.3} {:>16.3} {:>8.1}x",
            r.domains,
            r.cosign_verify.as_secs_f64() * 1e3,
            r.full_audit.as_secs_f64() * 1e3,
            r.full_audit.as_secs_f64() / r.cosign_verify.as_secs_f64().max(f64::EPSILON),
        );
    }

    let at8 = rows
        .iter()
        .find(|r| r.domains == 8)
        .expect("n = 8 is measured");
    assert!(
        at8.cosign_verify < at8.full_audit,
        "cosigned-head verification ({:?}) must beat the full {}-domain audit ({:?})",
        at8.cosign_verify,
        at8.domains,
        at8.full_audit
    );

    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"mode\": \"witness_cosign\", \"domains\": {}, \"quorum\": \"2-of-3\", \
                 \"cosign_verify_ms\": {:.3}, \"full_audit_ms\": {:.3}, \"speedup\": {:.2}}}",
                r.domains,
                r.cosign_verify.as_secs_f64() * 1e3,
                r.full_audit.as_secs_f64() * 1e3,
                r.full_audit.as_secs_f64() / r.cosign_verify.as_secs_f64().max(f64::EPSILON),
            )
        })
        .collect();
    distrust_bench::report::write("witness_cosign", &entries);
}
