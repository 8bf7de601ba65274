//! The compromise matrix: which guarantees survive which corruptions.
//!
//! * Figure 1: a compromised application developer (full control of trust
//!   domain 0 + the developer credentials) cannot recover users' backed-up
//!   keys.
//! * §3.2: a single-vendor TEE exploit forges attestation for that
//!   vendor's domains only; heterogeneous hardware bounds the blast
//!   radius, and cross-domain digest comparison still detects divergence.
//! * A client's memory of the devices it verified saves the certificate
//!   check and nothing else: a forged certificate, a bad quote signature,
//!   other code or a replayed quote fail the audit as before, and a
//!   failed quote never replaces the device the client keeps.

use distrust::apps::analytics;
use distrust::apps::key_backup::{self, KeyBackupClient, RecoverStatus};
use distrust::core::framework::framework_measurement;
use distrust::core::protocol::{
    AttestationBinding, AuditBundle, BundleAttestation, DomainStatus, Request, Response,
};
use distrust::core::server::DirectHost;
use distrust::core::{Deployment, DeploymentClient, DeploymentDescriptor, DomainInfo, TrustPolicy};
use distrust::crypto::drbg::HmacDrbg;
use distrust::crypto::gf256;
use distrust::crypto::schnorr::SigningKey;
use distrust::log::batch::{CheckpointBundle, ProofBundle};
use distrust::log::checkpoint::{log_id, CheckpointBody, SignedCheckpoint};
use distrust::tee::attest::{AttestationDocument, PlatformEvidence, Quote};
use distrust::tee::vendor::{
    cert_checks, device_key_decodes, DeviceCert, Vendor, VendorKind, VendorRoots,
};
use distrust::wire::{Decode, Encode};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

#[test]
fn figure1_compromised_developer_cannot_recover_user_key() {
    // n = 4 domains, recovery threshold t = 3.
    let deployment = Deployment::launch(key_backup::app_spec(4), b"figure 1 seed").expect("launch");
    let mut user_client = deployment.client(b"user");
    let mut user = user_client.session(TrustPolicy::pinned(deployment.initial_app_digest));
    let backup = KeyBackupClient::new(3);

    let secret = b"user signal identity key 0123456";
    let token = [0x5a; 32];
    let mut rng = HmacDrbg::new(b"user entropy", b"");
    let commitment = backup
        .backup(&mut user, 7777, &token, secret, &mut rng)
        .expect("backup");

    // Honest recovery works.
    let recovered = backup
        .recover(&mut user, 7777, &token, &commitment)
        .expect("recover");
    assert_eq!(recovered, secret);

    // THE ATTACK. The adversary compromises the developer: it owns trust
    // domain 0 outright (reads all its state) and holds the developer's
    // credentials. What it does NOT have: the user's token, or the state
    // of domains 1..3 (independent trust domains).
    //
    // (a) Domain 0's stored share alone is information-theoretically
    //     useless: any 2 < t shares are consistent with EVERY possible
    //     secret. We demonstrate by brute-force consistency: combining the
    //     attacker's share with arbitrary forged shares produces arbitrary
    //     "secrets".
    let mut rng = HmacDrbg::new(b"attacker", b"");
    let shares = gf256::split(secret, 3, 4, &mut rng).expect("re-split for illustration");
    let stolen = shares[0].clone(); // what domain 0 holds (x = 1)
    let mut candidates = std::collections::HashSet::new();
    for forged_byte in 0..=255u8 {
        let forged_a = gf256::ByteShare {
            x: 2,
            data: vec![forged_byte; secret.len()],
        };
        let forged_b = gf256::ByteShare {
            x: 3,
            data: vec![0x77; secret.len()],
        };
        let guess = gf256::combine(&[stolen.clone(), forged_a, forged_b], 3).unwrap();
        candidates.insert(guess);
    }
    // 256 distinct forgeries → 256 distinct "secrets": the share pins
    // nothing down.
    assert_eq!(candidates.len(), 256);

    // (b) The attacker cannot extract shares from the honest domains
    //     without the token: guest-side auth refuses, then rate-limits.
    let mut attacker_client = deployment.client(b"attacker-client");
    let mut attacker = attacker_client.session(TrustPolicy::audited());
    for attempt in 0..key_backup::MAX_ATTEMPTS {
        let wrong_token = [attempt as u8; 32];
        for d in 1..4u32 {
            let status = backup
                .recover_share(&mut attacker, d, 7777, &wrong_token)
                .expect("protocol works");
            assert_eq!(status, RecoverStatus::BadToken, "attempt {attempt}");
        }
    }
    // Budget exhausted: domains 1..3 now refuse even plausible guesses.
    for d in 1..4u32 {
        let status = backup
            .recover_share(&mut attacker, d, 7777, &[0x5a; 32])
            .expect("protocol works");
        assert_eq!(status, RecoverStatus::RateLimited);
    }

    // (c) The real user with the real token is also rate-limited now —
    //     availability is lost until reset, but CONFIDENTIALITY held: the
    //     attacker never obtained t shares. (The paper's threat model: the
    //     developer must not be a central point of *attack*.)
}

#[test]
fn vendor_exploit_forges_attestation_for_that_vendor_only() {
    // Launch any deployment to obtain a realistic descriptor + vendors.
    let deployment =
        Deployment::launch(key_backup::app_spec(4), b"vendor exploit seed").expect("launch");
    let descriptor = &deployment.descriptor;
    let measurement = framework_measurement(&descriptor.developer_key, &descriptor.app_name);

    // The attacker exploits the SGX-like vendor: leaks its root key.
    let sgx_vendor = deployment
        .vendors
        .iter()
        .find(|v| v.kind() == VendorKind::SgxSim)
        .expect("sgx vendor");
    let stolen_root = sgx_vendor.leak_root_key();

    // Forge a complete quote: fake device, fake cert, arbitrary claimed
    // status (e.g. claiming to run the honest code while running anything).
    let mut rng = HmacDrbg::new(b"attacker device", b"");
    let fake_device_key = distrust::crypto::schnorr::SigningKey::generate(&mut rng);
    let device_id = [0x66; 16];
    let cert_msg = {
        // Reconstruct the cert signing preimage via the public API: a
        // legitimately provisioned device yields the format; we forge by
        // signing the same structure with the stolen root.
        let mut out = b"distrust/tee/device-cert/v1".to_vec();
        VendorKind::SgxSim.encode(&mut out);
        device_id.encode(&mut out);
        out.extend_from_slice(&fake_device_key.verifying_key().to_bytes());
        out
    };
    let forged_cert = DeviceCert {
        vendor: VendorKind::SgxSim,
        device_id,
        device_key: fake_device_key.verifying_key().to_bytes(),
        signature: stolen_root.sign(&cert_msg),
    };
    let lying_status = DomainStatus {
        domain_index: 1,
        app_digest: [0xde; 32], // not what's really running anywhere
        app_version: 1,
        log_size: 1,
        log_head: [0xad; 32],
        framework_measurement: measurement,
    };
    let binding = AttestationBinding {
        nonce: [0x11; 32],
        status: lying_status,
    };
    let document = AttestationDocument {
        vendor: VendorKind::SgxSim,
        device_id,
        measurement,
        user_data: binding.to_wire(),
        logical_time: 1,
        evidence: PlatformEvidence::Sgx {
            mr_enclave: measurement,
            mr_signer: [0; 32],
            isv_svn: 1,
        },
    };
    let forged_quote = Quote {
        signature: fake_device_key.sign(&document.signing_bytes()),
        document,
        cert: forged_cert,
    };

    // The forged SGX quote passes verification — a vendor exploit defeats
    // attestation for THAT vendor (why the paper refuses to put the whole
    // system inside one TEE type).
    forged_quote
        .verify(&descriptor.vendor_roots, Some(&measurement), None)
        .expect("vendor compromise forges its own ecosystem");

    // But the same stolen root cannot forge Nitro or Keystone quotes: the
    // cert chains to the wrong pinned root.
    for other in [VendorKind::NitroSim, VendorKind::KeystoneSim] {
        let mut cross = forged_quote.clone();
        cross.document.vendor = other;
        cross.cert.vendor = other;
        cross.document.evidence = match other {
            VendorKind::NitroSim => PlatformEvidence::Nitro {
                pcrs: vec![measurement],
                module_id: "i-forged".into(),
            },
            _ => PlatformEvidence::Keystone {
                sm_hash: [0; 32],
                runtime_hash: measurement,
            },
        };
        cross.signature = fake_device_key.sign(&cross.document.signing_bytes());
        // Re-sign the cert with the stolen (SGX) root — but the verifier
        // checks against the *other* vendor's pinned root.
        assert!(
            cross
                .verify(&descriptor.vendor_roots, Some(&measurement), None)
                .is_err(),
            "{:?} quote must not verify with an SGX root signature",
            other
        );
    }
}

/// Trust gating: a session whose policy cannot be satisfied refuses to
/// let a single application byte through — and says why.
#[test]
fn trust_gate_refuses_calls_after_failed_audit() {
    use distrust::core::session::FanoutCall;
    use distrust::core::ClientError;

    let deployment =
        Deployment::launch(key_backup::app_spec(3), b"trust gate seed").expect("launch");
    let backup = KeyBackupClient::new(2);
    let mut rng = distrust::crypto::drbg::HmacDrbg::new(b"gated user", b"");

    // The user pins the digest of code the deployment is NOT running
    // (e.g. the developer published one source tree and deployed
    // another). The gating audit fails, and the session refuses the app
    // call — the user never stores a single share on the lying
    // deployment.
    let mut client = deployment.client(b"gated user");
    let mut session = client.session(TrustPolicy::pinned([0xee; 32]));
    let err = backup
        .backup(&mut session, 42, &[7u8; 32], b"secret", &mut rng)
        .expect_err("gate must refuse");
    assert!(
        matches!(err, ClientError::AuditFailed(_)),
        "expected AuditFailed, got {err:?}"
    );
    let report = session.last_audit().expect("the audit did run");
    assert!(!report.is_clean(), "pinned digest must fail the audit");
    assert!(session.trusted_domains().is_empty());

    // Single-domain calls are refused the same way.
    let err = session
        .call(0, key_backup::METHOD_RECOVER, b"")
        .unwrap_err();
    assert!(matches!(err, ClientError::AuditFailed(_)), "{err:?}");

    // Raw fan-outs too — the gate sits below every app entry point.
    let err = session
        .fanout(&FanoutCall::broadcast(key_backup::METHOD_RECOVER, vec![]))
        .unwrap_err();
    assert!(matches!(err, ClientError::AuditFailed(_)), "{err:?}");

    // Nothing reached any domain: every store is still empty... which we
    // verify by auditing correctly and recovering nothing.
    drop(session);
    let mut honest = client.session(TrustPolicy::pinned(deployment.initial_app_digest));
    let status = backup
        .recover_share(&mut honest, 0, 42, &[7u8; 32])
        .expect("protocol");
    assert_eq!(status, RecoverStatus::UnknownUser, "no share was stored");

    // And with the correct pin, the same user on the same deployment
    // works end to end: the gate is the only thing that changed.
    let commitment = backup
        .backup(&mut honest, 42, &[7u8; 32], b"secret", &mut rng)
        .expect("honest backup");
    let recovered = backup
        .recover(&mut honest, 42, &[7u8; 32], &commitment)
        .expect("honest recovery");
    assert_eq!(recovered, b"secret".to_vec());
}

#[test]
fn heterogeneity_bounds_the_blast_radius() {
    // In a 4-domain deployment (domain 0 unattested + 3 TEE domains round-
    // robin across 3 vendors), one vendor exploit undermines exactly one
    // attested domain. The client's cross-domain digest comparison spans
    // all n domains, so a lying minority is detected as divergence.
    let deployment =
        Deployment::launch(key_backup::app_spec(4), b"blast radius seed").expect("launch");
    let vendors: Vec<_> = deployment
        .descriptor
        .domains
        .iter()
        .map(|d| d.vendor)
        .collect();
    assert_eq!(vendors[0], None);
    let unique: std::collections::HashSet<_> = vendors[1..].iter().map(|v| v.unwrap()).collect();
    assert_eq!(unique.len(), 3, "three distinct vendors across 3 domains");

    // An honest audit is clean; the attested majority pins the true digest.
    let mut client = deployment.client(b"auditor");
    let report = client.audit(Some(&deployment.initial_app_digest));
    assert!(report.is_clean());
    // If one domain (vendor-compromised) were to report a different
    // digest, digests_agree would flip — exercised here structurally by
    // checking the comparison covers all four domains.
    assert_eq!(report.domains.len(), 4);
    let digests: Vec<_> = report
        .domains
        .iter()
        .map(|d| d.status.as_ref().unwrap().app_digest)
        .collect();
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
}

/// A warm client checks each device's certificate once: over twenty
/// audits of an n = 3 deployment (two attested domains) it makes two
/// certificate checks and two key decodes, all in the first audit, and
/// none in the audits after.
#[test]
fn a_warm_client_checks_each_device_once() {
    let mut deployment =
        Deployment::launch(analytics::app_spec(3), b"device memory seed").expect("launch");
    let mut client = deployment.client(b"auditor");
    let counts = || (cert_checks(), device_key_decodes());
    let before = counts();
    assert!(client.audit(None).is_clean());
    assert_eq!(counts(), (before.0 + 2, before.1 + 2));
    for _ in 1..20 {
        assert!(client.audit(None).is_clean());
    }
    assert_eq!(counts(), (before.0 + 2, before.1 + 2));
    let report = client.audit(None);
    assert!(report.is_clean());
    assert_eq!(report.domains.iter().filter(|d| d.attested).count(), 2);
    assert_eq!(counts(), (before.0 + 2, before.1 + 2));
    deployment.shutdown();
}

/// How the scripted domain below answers the next audit.
const HONEST: u8 = 0;
const FORGED_CERT: u8 = 1;
const BAD_SIGNATURE: u8 = 2;
const OTHER_CODE: u8 = 3;
const REPLAYED: u8 = 4;

/// A client holding a device it verified meets that device's domain
/// lying in every way a quote can: each lie fails the audit with the
/// reason it always had, only a certificate that is not byte for byte
/// the kept one is checked against the root again, and the kept device
/// survives every failure — the next honest audit checks no certificate.
#[test]
fn a_kept_device_saves_only_the_chain_check_and_a_forgery_never_replaces_it() {
    let app_name = "device memory";
    let developer = SigningKey::derive(b"device memory", b"developer");
    let measurement = framework_measurement(&developer.verifying_key(), app_name);
    let vendor = Vendor::new(VendorKind::NitroSim, b"device memory vendor");
    let mut rng = HmacDrbg::new(b"device memory", b"device");
    let enclave = vendor.provision_device(&mut rng).launch(measurement);
    let device_key = enclave.leak_attestation_key();
    let checkpoint_key = SigningKey::derive(b"device memory", b"checkpoint");
    let checkpoint = SignedCheckpoint::sign(
        CheckpointBody {
            log_id: log_id(b"device memory", 0),
            size: 1,
            head: [0xab; 32],
            logical_time: 1,
        },
        &checkpoint_key,
    );
    let status = DomainStatus {
        domain_index: 0,
        app_digest: [0xcd; 32],
        app_version: 1,
        log_size: 1,
        log_head: [0xab; 32],
        framework_measurement: measurement,
    };

    let mode = Arc::new(AtomicU8::new(HONEST));
    let script = Arc::clone(&mode);
    let mut last_nonce = [0u8; 32];
    let mut host = DirectHost::spawn(move |request: Vec<u8>| {
        let Ok(Request::BatchAudit {
            request_id, nonce, ..
        }) = Request::from_wire(&request)
        else {
            return Response::Error("audits only".into()).to_wire();
        };
        let lie = script.load(Ordering::SeqCst);
        let bound = if lie == REPLAYED { last_nonce } else { nonce };
        last_nonce = nonce;
        let binding = AttestationBinding {
            nonce: bound,
            status: status.clone(),
        };
        let mut quote = enclave.quote(&binding.to_wire());
        match lie {
            // The device's own key signs a document naming the edited
            // certificate: only the root's signature is missing.
            FORGED_CERT => {
                quote.cert.device_id[0] ^= 1;
                quote.document.device_id = quote.cert.device_id;
                quote.signature = device_key.sign(&quote.document.signing_bytes());
            }
            BAD_SIGNATURE => quote.document.logical_time += 1,
            OTHER_CODE => {
                quote.document.measurement = [0x99; 32];
                quote.document.evidence = PlatformEvidence::Nitro {
                    pcrs: vec![[0x99; 32]],
                    module_id: "i-other".into(),
                };
                quote.signature = device_key.sign(&quote.document.signing_bytes());
            }
            _ => {}
        }
        Response::AuditBundle(Box::new(AuditBundle {
            request_id,
            attestation: BundleAttestation::Quote(Box::new(quote)),
            bundle: CheckpointBundle {
                checkpoints: vec![checkpoint.clone()],
                proof: ProofBundle::default(),
            },
        }))
        .to_wire()
    })
    .expect("spawn");
    let descriptor = DeploymentDescriptor {
        app_name: app_name.into(),
        developer_key: developer.verifying_key(),
        vendor_roots: VendorRoots::new(vec![(VendorKind::NitroSim, vendor.root_key())]),
        domains: vec![DomainInfo {
            index: 0,
            addr: host.addr(),
            vendor: Some(VendorKind::NitroSim),
            checkpoint_key: checkpoint_key.verifying_key(),
        }],
    };
    let mut client =
        DeploymentClient::new(descriptor.clone(), Box::new(HmacDrbg::new(b"client", b"")));

    // One audit under `lie`: the failure it records, and the certificate
    // checks it made.
    let mut audit = |lie: u8| {
        mode.store(lie, Ordering::SeqCst);
        let checks = cert_checks();
        let report = client.audit(None);
        (report.domains[0].failure.clone(), cert_checks() - checks)
    };
    assert_eq!(audit(HONEST), (None, 1));
    assert_eq!(audit(HONEST), (None, 0));
    let cases = [
        (FORGED_CERT, "does not chain to vendor root", 1),
        (BAD_SIGNATURE, "quote signature invalid", 0),
        (OTHER_CODE, "unexpected code measurement", 0),
        (REPLAYED, "stale quote: nonce mismatch", 0),
    ];
    for (lie, reason, checks) in cases {
        let (failure, made) = audit(lie);
        let failure = failure.unwrap_or_else(|| panic!("lie {lie} passed the audit"));
        assert!(failure.contains(reason), "lie {lie}: {failure}");
        assert_eq!(made, checks, "lie {lie}: certificate checks");
        assert_eq!(
            audit(HONEST),
            (None, 0),
            "the kept device survives lie {lie}"
        );
    }

    // A domain pinned as having no secure hardware that answers with a
    // quote anyway is refused by its own index.
    let mut unattested = descriptor;
    let pinned = unattested.domains[0].clone();
    unattested.domains = (0..2)
        .map(|index| DomainInfo {
            index,
            vendor: None,
            ..pinned.clone()
        })
        .collect();
    let mut client = DeploymentClient::new(unattested, Box::new(HmacDrbg::new(b"other", b"")));
    mode.store(HONEST, Ordering::SeqCst);
    let report = client.audit(None);
    for (index, domain) in report.domains.iter().enumerate() {
        assert_eq!(
            domain.failure.as_deref(),
            Some(format!("domain {index} unexpectedly returned a quote").as_str())
        );
    }
    host.shutdown();
}
