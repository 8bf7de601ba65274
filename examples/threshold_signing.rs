//! The paper's prototype application (§5), end to end: a BLS threshold
//! signing service across five trust domains (t = 3), with the signing
//! ladder executing inside each domain's sandbox.
//!
//! ```sh
//! cargo run --release --example threshold_signing
//! ```

use distrust::apps::threshold_signer::{self, ThresholdSigningClient};
use distrust::core::{Deployment, TrustPolicy};
use distrust::crypto::drbg::HmacDrbg;
use std::time::Instant;

fn main() {
    println!("== BLS threshold signing across 5 trust domains (t = 3) ==\n");

    // Dealer: generate shares + Feldman commitments, package the app.
    let mut rng = HmacDrbg::new(b"threshold example", b"dealer");
    let (spec, public) = threshold_signer::setup(3, 5, &mut rng).expect("setup");
    println!(
        "group public key: {}…",
        hex(&public.public_key.key().to_bytes()[..12])
    );

    let deployment = Deployment::launch(spec, b"threshold example seed").expect("launch");
    // The session's trust policy audits before the first sign request and
    // pins the published code digest — signing cannot happen against an
    // unverified deployment.
    let mut client = deployment.client(b"signing client");
    let mut session = client.session(TrustPolicy::pinned(deployment.initial_app_digest));

    // Collect partial signatures and aggregate: the session's first call
    // asks all five domains at once (a later one asks only the t = 3 it
    // ranks best) and returns as soon as three partials are in and their
    // aggregate verifies under the group key (the gating audit runs
    // inside this first call).
    let signer = ThresholdSigningClient::new(public.clone());
    let message = b"release v2.1.0 of the wallet firmware";

    let start = Instant::now();
    let signature = signer.sign(&mut session, message).expect("signing");
    let elapsed = start.elapsed();
    let report = session.last_audit().expect("audit ran");
    println!("gating audit clean: {}", report.is_clean());
    assert!(report.is_clean());

    println!(
        "\nsigned {:?}\n  signature: {}…\n  end-to-end latency (t=3 partials through TEE proxies): {:?}",
        String::from_utf8_lossy(message),
        hex(&signature.to_bytes()[..12]),
        elapsed
    );
    assert!(public.public_key.verify(message, &signature));
    println!("  verifies under the group public key ✅");

    // Show the t-of-n property: each partial alone is NOT a valid group
    // signature.
    let partial = signer
        .partial_from_domain(&mut session, 1, message)
        .expect("partial");
    assert!(!public.public_key.verify(message, &partial.value));
    println!("  a single domain's partial does not verify alone ✅");

    // Tamper check.
    assert!(!public
        .public_key
        .verify(b"release v9.9.9 (backdoored)", &signature));
    println!("  signature does not transfer to other messages ✅");
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
