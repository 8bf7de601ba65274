//! Adversarial robustness of the sandbox: the framework feeds it
//! *developer-signed but otherwise arbitrary* code, so the VM must never
//! panic, hang, or corrupt host state regardless of input — only trap.
//!
//! Property-based tests drive the decoder, validator, and interpreter with
//! random bytes and random (structurally valid) instruction streams.
//!
//! The host imports are the other half of the boundary: the import table —
//! names *and argument counts* — comes from the same arbitrary module, and
//! every address, length and index a host receives is the guest's choice.
//! The second half of this file calls each app host's imports the wrong
//! way, in-process and on a live deployment, and then asks the same host
//! for honest work.

use distrust::apps::{key_backup, threshold_signer};
use distrust::core::abi::{
    app_call, import_names, AppHost, HostAdapter, HANDLE_EXPORT, INBOX_ADDR,
};
use distrust::core::{ClientError, Deployment, DeploymentClient, TrustPolicy};
use distrust::crypto::drbg::HmacDrbg;
use distrust::sandbox::{
    Export, FuncBuilder, Function, ImportSig, Instance, Instr, Limits, Memory, Module, NoHost, Trap,
};
use distrust::wire::Decode;
use proptest::prelude::*;

/// Random instruction generator covering the whole ISA with plausible-ish
/// operand ranges (small indexes/targets so validation sometimes passes).
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        any::<u64>().prop_map(Instr::Const),
        (0u16..8).prop_map(Instr::LocalGet),
        (0u16..8).prop_map(Instr::LocalSet),
        Just(Instr::Add),
        Just(Instr::Sub),
        Just(Instr::Mul),
        Just(Instr::DivU),
        Just(Instr::RemU),
        Just(Instr::And),
        Just(Instr::Or),
        Just(Instr::Xor),
        Just(Instr::Shl),
        Just(Instr::ShrU),
        Just(Instr::Rotr),
        Just(Instr::Eq),
        Just(Instr::Ne),
        Just(Instr::LtU),
        Just(Instr::GtU),
        Just(Instr::LeU),
        Just(Instr::GeU),
        (0u32..40).prop_map(Instr::JumpIfZero),
        (0u32..40).prop_map(Instr::JumpIfNonZero),
        (0u32..40).prop_map(Instr::Jump),
        (0u16..3).prop_map(Instr::Call),
        (0u16..3).prop_map(Instr::HostCall),
        Just(Instr::Return),
        (0u32..100_000).prop_map(Instr::Load8),
        (0u32..100_000).prop_map(Instr::Load64),
        (0u32..100_000).prop_map(Instr::Store8),
        (0u32..100_000).prop_map(Instr::Store64),
        Just(Instr::MemSize),
        Just(Instr::MemGrow),
        Just(Instr::Drop),
        Just(Instr::Dup),
        Just(Instr::Swap),
        Just(Instr::Select),
        Just(Instr::Trap),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the module decoder.
    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Module::from_wire(&bytes);
    }

    /// Random instruction streams: either the validator rejects the module
    /// or execution terminates with a result/trap — never a panic, never a
    /// hang (fuel-bounded).
    #[test]
    fn random_programs_are_contained(
        code in proptest::collection::vec(arb_instr(), 1..64),
        params in 0u16..3,
        locals in 0u16..6,
        returns in 0u16..2,
        args in proptest::collection::vec(any::<u64>(), 0..3),
    ) {
        let module = Module {
            imports: vec![],
            functions: vec![Function { params, locals, returns, code }],
            exports: vec![Export { name: "f".into(), function: 0 }],
            data: vec![],
            initial_pages: 1,
            max_pages: 2,
        };
        if module.validate().is_err() {
            return Ok(()); // rejected statically — fine
        }
        let limits = Limits {
            fuel: 200_000,
            max_stack: 1024,
            max_call_depth: 16,
        };
        let Ok(mut inst) = Instance::new(module, limits) else {
            return Ok(());
        };
        if args.len() != params as usize {
            return Ok(()); // arity mismatch is tested elsewhere
        }
        // Must return, in bounded time, without panicking.
        let _ = inst.invoke("f", &args, &mut NoHost);
    }

    /// A random program can never write outside its linear memory: after
    /// execution, host-side memory beyond the instance is untouched (the
    /// type system guarantees this; here we assert the instance's own
    /// memory stays within its declared maximum).
    #[test]
    fn memory_never_exceeds_max(
        code in proptest::collection::vec(arb_instr(), 1..48),
    ) {
        let module = Module {
            imports: vec![],
            functions: vec![Function { params: 0, locals: 4, returns: 0, code }],
            exports: vec![Export { name: "f".into(), function: 0 }],
            data: vec![],
            initial_pages: 1,
            max_pages: 3,
        };
        if module.validate().is_err() {
            return Ok(());
        }
        let limits = Limits {
            fuel: 100_000,
            max_stack: 512,
            max_call_depth: 8,
        };
        let Ok(mut inst) = Instance::new(module, limits) else {
            return Ok(());
        };
        let _ = inst.invoke("f", &[], &mut NoHost);
        prop_assert!(inst.memory.len() <= 3 * distrust::sandbox::PAGE_SIZE);
    }
}

// Instruction round-trip fuzz: encode/decode of random instruction
// streams is the identity (the measurement hash depends on it).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn instruction_streams_round_trip(code in proptest::collection::vec(arb_instr(), 0..64)) {
        use distrust::wire::Encode;
        let module = Module {
            imports: vec![],
            functions: vec![Function { params: 0, locals: 0, returns: 0, code }],
            exports: vec![],
            data: vec![],
            initial_pages: 1,
            max_pages: 1,
        };
        let bytes = module.to_wire();
        let back = Module::from_wire(&bytes).expect("round trip");
        prop_assert_eq!(back, module);
    }
}

/// The method id the doctored modules below answer with their extra call.
const ROGUE_METHOD: u64 = 0x0bad;

/// `module` with one more import, `name` declared with `args.len()`
/// parameters, and a new `handle` in front of the old one: method
/// [`ROGUE_METHOD`] calls that import with `args`; every other method is
/// forwarded to the module's own `handle`, so the doctored module still
/// does its job.
fn with_rogue_call(mut module: Module, name: &str, args: &[u64], returns: u16) -> Module {
    let import = module.imports.len() as u16;
    module.imports.push(ImportSig {
        name: name.into(),
        params: args.len() as u16,
        returns,
    });
    let honest = module.export(HANDLE_EXPORT).expect("an app module") as u16;
    let mut f = FuncBuilder::new(3, 0, 1);
    f.lget(0).constant(ROGUE_METHOD).op(Instr::Eq).jnz("rogue");
    f.lget(0).lget(1).lget(2).call(honest).ret();
    f.label("rogue");
    for &arg in args {
        f.constant(arg);
    }
    f.host(import);
    for _ in 0..returns {
        f.op(Instr::Drop);
    }
    f.constant(0).ret();
    let front = module.functions.len() as u32;
    module
        .functions
        .push(f.build().expect("front handle builds"));
    for export in &mut module.exports {
        if export.name == HANDLE_EXPORT {
            export.function = front;
        }
    }
    module
}

/// Calls every import of `module` with every argument count 0…3, each
/// argument `u64::MAX`, going around `app_call` so that a panicking host
/// fails the test instead of being contained. A count the host does not
/// expect must come back as `Trap::Host`; the expected count with unusable
/// arguments may trap or not, but must return. After every such call
/// `honest` checks that the same instance and host still work.
fn misuse_every_import(
    module: &Module,
    host: &mut dyn AppHost,
    mut honest: impl FnMut(&mut Instance, &[String], &mut dyn AppHost),
) {
    for declared in &module.imports {
        for arity in 0..=3u16 {
            let args = vec![u64::MAX; arity as usize];
            let rogue = with_rogue_call(module.clone(), &declared.name, &args, declared.returns);
            let names = import_names(&rogue);
            let mut instance = Instance::new(rogue, Limits::default()).expect("valid module");
            let outcome = instance.invoke(
                HANDLE_EXPORT,
                &[ROGUE_METHOD, INBOX_ADDR, 0],
                &mut HostAdapter::new(&names, host),
            );
            if arity != declared.params {
                assert!(
                    matches!(outcome, Err(Trap::Host(_))),
                    "{} called with {arity} arguments: {outcome:?}",
                    declared.name
                );
            }
            honest(&mut instance, &names, host);
        }
    }
}

#[test]
fn signer_host_survives_every_import_called_with_every_arity() {
    let mut rng = HmacDrbg::new(b"vm robustness", b"signer host");
    let keys = distrust::crypto::threshold::generate(1, 1, &mut rng).expect("keygen");
    let share = keys.shares[0];
    let mut host = threshold_signer::SignerHost::new(share);
    misuse_every_import(
        &threshold_signer::signer_module(),
        &mut host,
        |instance, names, host| {
            let out = app_call(
                instance,
                names,
                host,
                threshold_signer::METHOD_SIGN,
                b"still signing",
            )
            .expect("honest request served");
            let native = threshold_signer::sign_native(&share, b"still signing");
            assert_eq!(out, native.to_bytes().to_vec());
        },
    );
}

fn backup_store_payload(user: u64) -> Vec<u8> {
    let mut payload = user.to_le_bytes().to_vec();
    payload.extend_from_slice(&[7u8; 32]);
    payload.extend_from_slice(b"share");
    payload
}

#[test]
fn backup_host_survives_every_import_called_with_every_arity() {
    let mut host = key_backup::BackupHost::new();
    let mut user = 0u64;
    misuse_every_import(
        &key_backup::backup_module(),
        &mut host,
        |instance, names, host| {
            user += 1;
            let stored = app_call(
                instance,
                names,
                host,
                key_backup::METHOD_STORE,
                &backup_store_payload(user),
            );
            assert_eq!(stored, Ok(vec![0]), "honest store served");
        },
    );
    assert_eq!(
        host.record_count() as u64,
        user,
        "only honest stores stored"
    );
}

/// `backup.store` slices a header out of a guest-chosen length: lengths
/// short of the 40-byte header are errors, and nothing is stored.
#[test]
fn backup_store_refuses_a_payload_shorter_than_its_header() {
    let mut host = key_backup::BackupHost::new();
    for len in [0u64, 8, 39] {
        let rogue = with_rogue_call(
            key_backup::backup_module(),
            "backup.store",
            &[INBOX_ADDR, len],
            1,
        );
        let names = import_names(&rogue);
        let mut instance = Instance::new(rogue, Limits::default()).expect("valid module");
        let outcome = instance.invoke(
            HANDLE_EXPORT,
            &[ROGUE_METHOD, INBOX_ADDR, 0],
            &mut HostAdapter::new(&names, &mut host),
        );
        assert!(
            matches!(outcome, Err(Trap::Host(_))),
            "len {len}: {outcome:?}"
        );
        assert_eq!(host.record_count(), 0, "len {len} stored something");
    }
}

/// Requires an honest call and an audit to succeed on both domains of a
/// live 2-domain deployment (domain 0 direct, domain 1 behind its enclave
/// proxy).
fn both_domains_still_serve(
    client: &mut DeploymentClient,
    honest: impl Fn(u32, Result<Vec<u8>, ClientError>),
) {
    {
        let mut session = client.session(TrustPolicy::audited());
        for domain in 0..2 {
            honest(
                domain,
                session.call(domain, threshold_signer::METHOD_INDEX, b""),
            );
        }
    }
    let report = client.audit(None);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.domains.len(), 2);
}

/// Sends the rogue request five times to each domain, then requires
/// [`both_domains_still_serve`].
fn domains_outlive_the_rogue_request(
    deployment: &Deployment,
    honest: impl Fn(u32, Result<Vec<u8>, ClientError>),
) {
    let mut client = deployment.client(b"rogue client");
    {
        let mut session = client.session(TrustPolicy::audited());
        for domain in 0..2 {
            for attempt in 0..5 {
                let answer = session.call(domain, ROGUE_METHOD, b"");
                assert!(
                    matches!(answer, Err(ClientError::App(_))),
                    "domain {domain}, attempt {attempt}: {answer:?}"
                );
            }
        }
    }
    both_domains_still_serve(&mut client, honest);
}

/// A release whose guest declares `fp.mul` with no parameters: on the
/// parent commit the host indexed `args[0]`, the panic killed the serving
/// thread, and the domain answered nothing afterwards — audits included.
#[test]
fn a_release_that_misdeclares_an_import_cannot_take_its_domain_down() {
    let mut rng = HmacDrbg::new(b"vm robustness", b"live signer");
    let (mut spec, _public) = threshold_signer::setup(2, 2, &mut rng).expect("setup");
    spec.module = with_rogue_call(spec.module, "fp.mul", &[], 0);
    let mut deployment = Deployment::launch(spec, b"rogue arity").expect("launch");
    domains_outlive_the_rogue_request(&deployment, |domain, answer| {
        assert_eq!(answer.expect("honest call served"), vec![domain as u8 + 1]);
    });
    deployment.shutdown();
}

/// An app host the framework does not control may simply panic. That costs
/// the request (`app_call` reports a trap), not the domain.
#[test]
fn a_panicking_app_host_cannot_take_its_domain_down() {
    struct Brittle;
    impl AppHost for Brittle {
        fn call(&mut self, name: &str, args: &[u64], _: &mut Memory) -> Result<Vec<u64>, String> {
            match name {
                "bls.share_index" => Ok(vec![42]),
                _ => Ok(vec![args[0]]),
            }
        }
    }
    let mut rng = HmacDrbg::new(b"vm robustness", b"live brittle");
    let (mut spec, _public) = threshold_signer::setup(2, 2, &mut rng).expect("setup");
    spec.module = with_rogue_call(spec.module, "brittle.first", &[], 1);
    spec.hosts = vec![Box::new(Brittle), Box::new(Brittle)];
    let mut deployment = Deployment::launch(spec, b"rogue panic").expect("launch");
    domains_outlive_the_rogue_request(&deployment, |_, answer| {
        assert_eq!(answer.expect("honest call served"), vec![42]);
    });
    deployment.shutdown();
}

/// Frame slots are not free: a `Call` costs 9 fuel whatever the callee
/// declares, and the VM zeroes every declared slot on entry. On the parent
/// commit a function could declare 65 535 locals, so one request could
/// spend its whole fuel budget zeroing 512 KB per call while holding the
/// framework mutex. Every domain now refuses such a release at
/// `push_update`, keeps the one it runs, and goes on serving calls and
/// audits.
#[test]
fn a_release_that_declares_65535_locals_is_refused_by_every_domain() {
    let mut rng = HmacDrbg::new(b"vm robustness", b"live frames");
    let (spec, _public) = threshold_signer::setup(2, 2, &mut rng).expect("setup");
    let mut greedy = spec.module.clone();
    greedy.functions[0].locals = u16::MAX;
    let mut deployment = Deployment::launch(spec, b"greedy frames").expect("launch");
    let release = deployment.sign_release(2, "greedy frames", &greedy);
    let mut client = deployment.client(b"developer");
    for (domain, ack) in client.push_update(&release).into_iter().enumerate() {
        assert!(
            matches!(&ack, Err(ClientError::UpdateRejected(why)) if why.contains("frame slots")),
            "domain {domain}: {ack:?}"
        );
    }
    both_domains_still_serve(&mut client, |domain, answer| {
        assert_eq!(answer.expect("honest call served"), vec![domain as u8 + 1]);
    });
    deployment.shutdown();
}
