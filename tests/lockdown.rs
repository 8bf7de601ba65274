//! §3.3 lockdown: "for highly sensitive applications, a developer might
//! consider disabling her ability to push code updates to defend against
//! future compromise." A final release permanently locks every domain.

mod common;

use common::app_call;
use distrust::core::abi::{AppHost, HANDLE_EXPORT, OUTBOX_ADDR};
use distrust::core::{AppSpec, ClientError, Deployment, NoImports};
use distrust::sandbox::{FuncBuilder, Limits, Module, ModuleBuilder};

fn versioned_module(version: u64) -> Module {
    let mut mb = ModuleBuilder::new(1, 1);
    let mut f = FuncBuilder::new(3, 0, 1);
    f.constant(OUTBOX_ADDR)
        .constant(version)
        .store8(0)
        .constant(1)
        .ret();
    let idx = mb.function(f.build().unwrap());
    mb.export(HANDLE_EXPORT, idx);
    mb.build()
}

#[test]
fn final_release_locks_all_domains() {
    let spec = AppSpec {
        name: "vault".into(),
        module: versioned_module(1),
        notes: "v1".into(),
        hosts: (0..3)
            .map(|_| Box::new(NoImports) as Box<dyn AppHost>)
            .collect(),
        limits: Limits::default(),
    };
    let deployment = Deployment::launch(spec, b"lockdown seed").expect("launch");
    let mut client = deployment.client(b"auditor");

    // Push the final release (v2) and verify activation.
    let final_release = deployment.sign_final_release(2, "v2 FINAL", &versioned_module(2));
    assert!(final_release.manifest.locks_updates);
    for r in client.push_update(&final_release) {
        r.expect("final release accepted");
    }
    assert_eq!(app_call(&mut client, 0, 1, b"").unwrap(), vec![2]);

    // Even the DEVELOPER cannot push v3 anymore — the whole point: a
    // future developer compromise cannot alter the running code.
    let v3 = deployment.sign_release(3, "post-lock", &versioned_module(3));
    for r in client.push_update(&v3) {
        match r {
            Err(ClientError::UpdateRejected(msg)) => {
                assert!(msg.contains("locked"), "unexpected: {msg}");
            }
            other => panic!("expected lock rejection, got {other:?}"),
        }
    }
    // Behaviour frozen at v2; audit stays clean; log history immutable at
    // two entries.
    assert_eq!(app_call(&mut client, 0, 1, b"").unwrap(), vec![2]);
    let report = client.audit(Some(&final_release.digest()));
    assert!(report.is_clean(), "{report:?}");
    for d in 0..3 {
        assert_eq!(client.log_entries(d, 0).unwrap().len(), 2);
    }
}

#[test]
fn lock_bit_is_covered_by_the_signature() {
    // An attacker cannot take a signed non-final release and flip the lock
    // bit (or vice versa): `locks_updates` is part of the signed manifest.
    let spec = AppSpec {
        name: "vault".into(),
        module: versioned_module(1),
        notes: "v1".into(),
        hosts: vec![Box::new(NoImports) as Box<dyn AppHost>],
        limits: Limits::default(),
    };
    let deployment = Deployment::launch(spec, b"lockbit seed").expect("launch");
    let mut client = deployment.client(b"auditor");

    let mut tampered = deployment.sign_release(2, "v2", &versioned_module(2));
    tampered.manifest.locks_updates = true; // flip after signing
    for r in client.push_update(&tampered) {
        match r {
            Err(ClientError::UpdateRejected(msg)) => {
                assert!(msg.contains("signature"), "unexpected: {msg}");
            }
            other => panic!("expected signature rejection, got {other:?}"),
        }
    }
}

#[test]
fn lockdown_survives_through_notices() {
    // Clients can see from the notice history that a deployment is locked
    // (the final manifest is in every notice list and log).
    let spec = AppSpec {
        name: "vault".into(),
        module: versioned_module(1),
        notes: "v1".into(),
        hosts: (0..2)
            .map(|_| Box::new(NoImports) as Box<dyn AppHost>)
            .collect(),
        limits: Limits::default(),
    };
    let deployment = Deployment::launch(spec, b"lock notice seed").expect("launch");
    let mut client = deployment.client(b"auditor");
    let final_release = deployment.sign_final_release(2, "FINAL", &versioned_module(2));
    for r in client.push_update(&final_release) {
        r.expect("accepted");
    }
    assert!(client.audit(None).is_clean());
    for d in 0..2 {
        let notices = client.notices(d, 0).unwrap();
        let last = notices.last().unwrap();
        assert!(
            last.manifest.locks_updates,
            "domain {d} notice carries lock bit"
        );
    }
}
