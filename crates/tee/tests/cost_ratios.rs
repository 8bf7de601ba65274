//! Timing guard, run in release only (`cargo test -p distrust-tee
//! --release --test cost_ratios -- --ignored`): a quote from a device its
//! verifier already knows costs less than half of one from a device it
//! meets for the first time, held as a ratio within one run so that the
//! host's speed cancels.
//!
//! The two rows are timed in one loop, one call of each per sample, the
//! order alternating, and the claim is held against the median of the
//! per-sample ratios: the host can change speed during a run.

use distrust_crypto::drbg::HmacDrbg;
use distrust_tee::attest::{KnownDevice, Quote};
use distrust_tee::vendor::{Vendor, VendorKind, VendorRoots};
use std::time::Instant;

/// Timed calls of each row, after one untimed call.
const SAMPLES: usize = 20;

/// Quotes verified per sample of each row.
const QUOTES: u32 = 20;

/// A first-sight verification checks the certificate against the
/// vendor root (one Schnorr verification), decodes the device key (a
/// square root and a subgroup test) and checks the quote's signature on a
/// narrow table of that key. A known device's skips the first two and
/// checks the signature on its kept key's spaced table: less than 0.5.
#[test]
#[ignore = "timing guard: run in release with --ignored"]
fn a_quote_from_a_known_device_costs_less_than_0_5_of_a_first_sight() {
    let vendor = Vendor::new(VendorKind::SgxSim, b"cost ratios");
    let mut rng = HmacDrbg::new(b"cost ratios", b"device");
    let enclave = vendor.provision_device(&mut rng).launch([0x42; 32]);
    let roots = VendorRoots::from_vendors(std::slice::from_ref(&vendor));
    let quotes: Vec<Quote> = (0..QUOTES)
        .map(|i| enclave.quote(&i.to_le_bytes()))
        .collect();
    let mut known: Option<KnownDevice> = None;
    // Past the fifth quote: the kept key has built its table.
    for quote in quotes.iter().take(6) {
        quote
            .verify_remembering(&roots, &mut known, Some(&[0x42; 32]), None)
            .expect("verifies");
    }
    assert!(known.as_ref().is_some_and(KnownDevice::has_table));

    let mut rows: [&mut dyn FnMut(); 2] = [
        &mut || {
            for quote in &quotes {
                let outcome = quote.verify_remembering(&roots, &mut known, None, None);
                assert!(outcome.is_ok());
            }
        },
        &mut || {
            for quote in &quotes {
                assert!(quote.verify(&roots, None, None).is_ok());
            }
        },
    ];
    for routine in rows.iter_mut() {
        routine();
    }
    let mut ratios: Vec<f64> = (0..SAMPLES)
        .map(|i| {
            let mut times = [0.0; 2];
            for j in [i % 2, 1 - i % 2] {
                let start = Instant::now();
                rows[j]();
                times[j] = start.elapsed().as_secs_f64();
            }
            times[0] / times[1]
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[SAMPLES / 2];
    println!("quote_verify_known / quote_verify_first_sight: {ratio:.3} (bound 0.5)");
    assert!(
        ratio < 0.5,
        "a known device's quote costs {ratio:.3} of a first sight's, not less than 0.5"
    );
}
