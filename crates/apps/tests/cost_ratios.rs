//! Timing guard for Table 3's middle row, run in release only (`cargo test
//! -p distrust-apps --release --test cost_ratios -- --ignored`): one
//! partial signature computed by the guest ladder in the sandbox, held as
//! a ratio to the same share's native partial signature within one run, so
//! that the host's speed cancels.
//!
//! The host can change speed during a run, so the two rows are timed in
//! one loop, one call of each per sample, the order alternating, and the
//! claim is held against the median of the per-sample ratios (the method
//! of the crypto crate's `cost_ratios`).

use distrust_apps::threshold_signer::{sign_in_sandbox, sign_native, signer_module, SignerHost};
use distrust_core::abi::import_names;
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
