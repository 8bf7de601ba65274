//! Ablation A: attestation costs — quote generation, quote decoding and
//! quote verification (separately: decoding parses the device key and
//! copies the two signatures, every signature check is verification's),
//! and the full client audit as the number of trust domains grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use distrust_apps::analytics;
use distrust_core::Deployment;
use distrust_crypto::drbg::HmacDrbg;
use distrust_tee::attest::Quote;
use distrust_tee::vendor::{Vendor, VendorKind, VendorRoots};
use distrust_wire::codec::{Decode, Encode};

fn bench_attestation(c: &mut Criterion) {
    // Micro: quote generation + verification per vendor.
    let mut group = c.benchmark_group("attest_micro");
    group.sample_size(10);
    for kind in VendorKind::ALL {
        let vendor = Vendor::new(kind, b"attest bench");
        let mut rng = HmacDrbg::new(b"attest bench rng", kind.name().as_bytes());
        let enclave = vendor.provision_device(&mut rng).launch([7; 32]);
        let roots = VendorRoots::new(vec![(kind, vendor.root_key())]);

        group.bench_function(BenchmarkId::new("quote_generate", kind.name()), |b| {
            b.iter(|| std::hint::black_box(enclave.quote(b"nonce and log head")))
        });
        let quote = enclave.quote(b"nonce and log head");
        let wire = quote.to_wire();
        group.bench_function(BenchmarkId::new("quote_decode", kind.name()), |b| {
            b.iter(|| std::hint::black_box(Quote::from_wire(&wire).is_ok()))
        });
        group.bench_function(BenchmarkId::new("quote_verify", kind.name()), |b| {
            b.iter(|| std::hint::black_box(quote.verify(&roots, Some(&[7; 32]), None).is_ok()))
        });
    }
    group.finish();

    // Macro: the full client audit (quotes + checkpoints + consistency +
    // cross-check) against live deployments of n domains.
    let mut group = c.benchmark_group("audit_full");
    group.sample_size(10);
    for &n in &[2usize, 3, 5, 8] {
        let deployment = Deployment::launch(
            analytics::app_spec(n),
            format!("attest bench {n}").as_bytes(),
        )
        .expect("launch");
        let mut client = deployment.client(b"bench auditor");
        let digest = deployment.initial_app_digest;
        group.bench_with_input(BenchmarkId::new("domains", n), &n, |b, _| {
            b.iter(|| {
                let report = client.audit(Some(&digest));
                assert!(report.is_clean());
                std::hint::black_box(report)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_attestation);
criterion_main!(benches);
