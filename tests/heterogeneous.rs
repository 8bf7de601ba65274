//! Heterogeneous secure hardware (§3.2): domains run on distinct simulated
//! TEE ecosystems with genuinely different attestation evidence, and the
//! client verifies each along its own vendor path.

use distrust::apps::analytics;
use distrust::core::protocol::{BundleAttestation, Request, Response};
use distrust::core::{Deployment, DeploymentClient};
use distrust::tee::attest::{PlatformEvidence, Quote};
use distrust::tee::vendor::VendorKind;
use distrust::wire::Decode;

/// The quote in `domain`'s answer to one `BatchAudit` under `nonce`.
fn quote_from(client: &mut DeploymentClient, domain: u32, nonce: [u8; 32]) -> Quote {
    let request = Request::BatchAudit {
        request_id: 1,
        nonce,
        verified_size: 0,
    };
    match client.exchange(domain, &request).expect("audit answer") {
        Response::AuditBundle(answer) => match answer.attestation {
            BundleAttestation::Quote(quote) => *quote,
            other => panic!("domain {domain}: expected quote, got {other:?}"),
        },
        other => panic!("domain {domain}: expected an audit bundle, got {other:?}"),
    }
}

#[test]
fn domains_attest_with_vendor_specific_evidence() {
    // 4 domains: 0 unattested, 1..3 on SGX-sim, Nitro-sim, Keystone-sim.
    let deployment = Deployment::launch(analytics::app_spec(4), b"hetero seed").expect("launch");
    let mut client = deployment.client(b"auditor");

    let mut seen = Vec::new();
    for d in 1..4u32 {
        let quote = quote_from(&mut client, d, [d as u8; 32]);
        // Evidence shape matches the pinned vendor for this domain.
        let pinned = deployment.descriptor.domains[d as usize].vendor.unwrap();
        assert_eq!(quote.document.vendor, pinned);
        match (&quote.document.evidence, pinned) {
            (PlatformEvidence::Sgx { mr_enclave, .. }, VendorKind::SgxSim) => {
                assert_eq!(*mr_enclave, quote.document.measurement);
            }
            (PlatformEvidence::Nitro { pcrs, .. }, VendorKind::NitroSim) => {
                assert_eq!(pcrs[0], quote.document.measurement);
                assert_eq!(pcrs.len(), 3);
            }
            (PlatformEvidence::Keystone { runtime_hash, .. }, VendorKind::KeystoneSim) => {
                assert_eq!(*runtime_hash, quote.document.measurement);
            }
            (evidence, vendor) => {
                panic!("domain {d}: evidence {evidence:?} does not match vendor {vendor:?}")
            }
        }
        // Full verification along the vendor-specific path.
        quote
            .verify(
                &deployment.descriptor.vendor_roots,
                Some(&deployment.descriptor.expected_measurement()),
                None,
            )
            .expect("quote verifies");
        seen.push(pinned);
    }
    // All three ecosystems are in play.
    let unique: std::collections::HashSet<_> = seen.into_iter().collect();
    assert_eq!(unique.len(), 3);
}

#[test]
fn nonce_prevents_quote_replay() {
    let deployment = Deployment::launch(analytics::app_spec(2), b"replay seed").expect("launch");
    let mut client = deployment.client(b"auditor");

    // Capture a quote for nonce A.
    let quote_a = quote_from(&mut client, 1, [0xaa; 32]);
    // The quote itself verifies (it is genuine)…
    quote_a
        .verify(&deployment.descriptor.vendor_roots, None, None)
        .expect("genuine quote");
    // …but it binds nonce A inside user_data: a client challenging with
    // nonce B must reject it. (The DeploymentClient does this check; here
    // we assert the binding is present for external verifiers too.)
    let binding =
        distrust::core::protocol::AttestationBinding::from_wire(&quote_a.document.user_data)
            .expect("binding decodes");
    assert_eq!(binding.nonce, [0xaa; 32]);
    assert_ne!(binding.nonce, [0xbb; 32]);
}

#[test]
fn audit_rejects_vendor_substitution() {
    // If a domain suddenly attests under a different vendor than pinned
    // (e.g. the host migrated the service to other hardware without
    // redeployment), the audit flags it.
    let deployment =
        Deployment::launch(analytics::app_spec(4), b"substitution seed").expect("launch");
    let mut tampered = deployment.descriptor.clone();
    // Pin domain 1 to the wrong vendor.
    let wrong = match tampered.domains[1].vendor.unwrap() {
        VendorKind::SgxSim => VendorKind::NitroSim,
        _ => VendorKind::SgxSim,
    };
    tampered.domains[1].vendor = Some(wrong);
    let mut client = DeploymentClient::new(
        tampered,
        Box::new(distrust::crypto::drbg::HmacDrbg::new(b"auditor", b"")),
    );
    let report = client.audit(None);
    assert!(!report.is_clean());
    let failure = report.domains[1].failure.as_ref().expect("flagged");
    assert!(failure.contains("vendor"), "{failure}");
}

#[test]
fn unattested_domain_zero_is_audited_as_such() {
    let deployment = Deployment::launch(analytics::app_spec(3), b"domain0 seed").expect("launch");
    let mut client = deployment.client(b"auditor");
    let report = client.audit(Some(&deployment.initial_app_digest));
    assert!(report.is_clean());
    assert!(!report.domains[0].attested, "domain 0 has no TEE");
    assert!(report.domains[0].status.is_some(), "but it reports status");
    // And if domain 0 suddenly claims to have a TEE-backed quote, the
    // client treats that as suspicious (covered in client.rs logic) —
    // asserted here via the descriptor invariant.
    assert!(deployment.descriptor.domains[0].vendor.is_none());
}
