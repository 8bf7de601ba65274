//! Timing guards for Table 3's middle row, run in release only (`cargo
//! test -p distrust-apps --release --test cost_ratios -- --ignored`): one
//! partial signature computed by the guest ladder in the sandbox, held as
//! a ratio to the same share's native partial signature, and as a ratio to
//! a replay of its own host calls without the VM, each within one run, so
//! that the host's speed cancels.
//!
//! The host can change speed during a run, so the two rows are timed in
//! one loop, one call of each per sample, the order alternating, and the
//! claim is held against the median of the per-sample ratios (the method
//! of the crypto crate's `cost_ratios`).

use distrust_apps::threshold_signer::{
    sign_in_sandbox, sign_native, signer_module, Replay, SignerHost, METHOD_SIGN,
};
use distrust_core::abi::{app_call, import_names};
use distrust_crypto::drbg::HmacDrbg;
use distrust_crypto::threshold;
use distrust_sandbox::{Instance, Limits};
use std::time::Instant;

/// Timed calls of each row, after one untimed call.
const SAMPLES: usize = 61;

/// A sandboxed partial signature — 7 469 host crossings on this share,
/// most of them a run of constant register operands and the field
/// operation that takes them — costs less than 2.75 native ones.
#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn a_sandboxed_signature_costs_less_than_2_75_native_ones() {
    const BOUND: f64 = 2.75;
    let mut rng = HmacDrbg::new(b"cost ratios", b"sandboxed signature");
    let share = threshold::generate(1, 1, &mut rng).unwrap().shares[0];
    let module = signer_module();
    let names = import_names(&module);
    let mut instance = Instance::new(module, Limits::default()).unwrap();
    let mut host = SignerHost::new(share);
    let message = b"table 3 workload";
    let expected = sign_native(&share, message);
    let mut sandboxed = || {
        let signature = sign_in_sandbox(&mut instance, &names, &mut host, message);
        assert_eq!(signature, Ok(expected));
    };
    let native = || assert_eq!(sign_native(&share, message), expected);
    sandboxed();
    native();
    let mut ratios: Vec<f64> = (0..SAMPLES)
        .map(|i| {
            let mut times = [0.0; 2];
            for j in [i % 2, 1 - i % 2] {
                let start = Instant::now();
                if j == 0 {
                    sandboxed();
                } else {
                    native();
                }
                times[j] = start.elapsed().as_secs_f64();
            }
            times[0] / times[1]
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[SAMPLES / 2];
    println!("sandboxed_sign / native_sign: {ratio:.3} (bound {BOUND})");
    assert!(
        ratio < BOUND,
        "a sandboxed signature costs {ratio:.3} native ones, not less than {BOUND}"
    );
}

/// The VM's own share of a sandboxed signature: the signature costs less
/// than 1.5 replays of its own host calls — the same names and arguments,
/// through `SignerHost`'s `AppHost::call`, on an instance's memory, in
/// process ([`Replay`], Table 3's "guest algorithm, native" row) — so
/// what the interpreter adds to the host's field arithmetic and `H(m)`
/// stays bounded. It reads 1.26–1.32 on a shared two-core x86-64 host:
/// ≈ 75 µs of interpreter on ≈ 290 µs of host work.
#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn a_sandboxed_signature_costs_less_than_1_5_replays_of_its_host_calls() {
    const BOUND: f64 = 1.5;
    let mut rng = HmacDrbg::new(b"cost ratios", b"vm share");
    let share = threshold::generate(1, 1, &mut rng).unwrap().shares[0];
    let module = signer_module();
    let names = import_names(&module);
    let mut instance = Instance::new(module, Limits::default()).unwrap();
    let mut host = SignerHost::new(share);
    let message = b"table 3 workload";
    let expected = sign_native(&share, message).to_bytes().to_vec();
    let mut replay = Replay::new(share);
    // The first signature of the replay is recorded, in its sandbox.
    assert_eq!(replay.sign(message).as_ref(), Ok(&expected));
    // Row 0 signs in the sandbox, row 1 replays; one untimed replay first.
    let mut run = |row: usize| {
        let out = if row == 0 {
            app_call(&mut instance, &names, &mut host, METHOD_SIGN, message)
                .map_err(|e| e.to_string())
        } else {
            replay.sign(message)
        };
        assert_eq!(out.as_ref(), Ok(&expected));
    };
    run(1);
    let mut ratios: Vec<f64> = (0..SAMPLES)
        .map(|i| {
            let mut times = [0.0; 2];
            for row in [i % 2, 1 - i % 2] {
                let start = Instant::now();
                run(row);
                times[row] = start.elapsed().as_secs_f64();
            }
            times[0] / times[1]
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[SAMPLES / 2];
    println!(
        "sandboxed_sign / replayed_host_calls ({} calls): {ratio:.3} (bound {BOUND})",
        replay.calls()
    );
    assert!(
        ratio < BOUND,
        "a sandboxed signature costs {ratio:.3} replays of its host calls, not less than {BOUND}"
    );
}
