//! Determinism: reproducible deployments and canonical encodings.
//!
//! Auditing only works if both sides compute identical bytes: module
//! digests, log leaves, checkpoint signing preimages. These tests pin the
//! determinism assumptions the whole transparency story rests on.

use distrust::apps::{analytics, threshold_signer};
use distrust::core::Deployment;
use distrust::crypto::drbg::HmacDrbg;
use distrust::wire::Encode;

#[test]
fn same_seed_same_identities() {
    // Two deployments from one seed have identical keys, measurements and
    // app digests (only the ephemeral ports differ) — so descriptors can
    // be distributed out-of-band and re-derived by anyone with the seed.
    let d1 = Deployment::launch(analytics::app_spec(3), b"determinism seed").unwrap();
    let d2 = Deployment::launch(analytics::app_spec(3), b"determinism seed").unwrap();
    assert_eq!(
        d1.descriptor.developer_key.to_bytes(),
        d2.descriptor.developer_key.to_bytes()
    );
    assert_eq!(d1.initial_app_digest, d2.initial_app_digest);
    assert_eq!(
        d1.descriptor.expected_measurement(),
        d2.descriptor.expected_measurement()
    );
    for (a, b) in d1.descriptor.domains.iter().zip(&d2.descriptor.domains) {
        assert_eq!(a.vendor, b.vendor);
        assert_eq!(a.checkpoint_key.to_bytes(), b.checkpoint_key.to_bytes());
    }
    // Different seed → different identities.
    let d3 = Deployment::launch(analytics::app_spec(3), b"other seed").unwrap();
    assert_ne!(
        d1.descriptor.developer_key.to_bytes(),
        d3.descriptor.developer_key.to_bytes()
    );
}

#[test]
fn module_digests_are_stable_across_processes() {
    // The digest of a module built twice from the same source is
    // byte-identical — the property that lets auditors recompile published
    // code and compare against attested digests.
    let m1 = analytics::analytics_module();
    let m2 = analytics::analytics_module();
    assert_eq!(m1.digest(), m2.digest());
    assert_eq!(m1.to_wire(), m2.to_wire());

    let s1 = threshold_signer::signer_module();
    let s2 = threshold_signer::signer_module();
    assert_eq!(s1.digest(), s2.digest());
}

#[test]
fn partial_signatures_identical_across_execution_environments() {
    // The crux of the Table 3 comparison: all execution environments are
    // measuring the SAME computation. Native signing and the in-sandbox
    // field-call ladder must agree bit-for-bit on every share and message.
    use distrust::core::abi::import_names;
    use distrust::sandbox::{Instance, Limits};

    let mut rng = HmacDrbg::new(b"determinism", b"threshold");
    let keys = distrust::crypto::threshold::generate(2, 3, &mut rng).unwrap();
    let module = threshold_signer::signer_module();
    let names = import_names(&module);
    for share in &keys.shares {
        for msg in [b"alpha".as_slice(), b"beta", b"gamma"] {
            let native = threshold_signer::sign_native(share, msg);
            let mut inst = Instance::new(module.clone(), Limits::default()).unwrap();
            let mut host = threshold_signer::SignerHost::new(*share);
            let sandboxed =
                threshold_signer::sign_in_sandbox(&mut inst, &names, &mut host, msg).unwrap();
            assert_eq!(native, sandboxed, "share {} msg {:?}", share.index, msg);
        }
    }
}

#[test]
fn log_leaves_identical_across_domains() {
    // Every domain must compute the identical leaf bytes for the same
    // release, or cross-domain digest comparison would be vacuous.
    let deployment = Deployment::launch(analytics::app_spec(4), b"leaf determinism").unwrap();
    let mut client = deployment.client(b"auditor");
    assert!(client.audit(None).is_clean());
    let reference = client.log_entries(0, 0).unwrap();
    assert!(!reference.is_empty());
    for d in 1..4 {
        assert_eq!(client.log_entries(d, 0).unwrap(), reference, "domain {d}");
    }
}
