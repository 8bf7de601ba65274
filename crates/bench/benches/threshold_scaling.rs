//! Ablation C: threshold-signing costs as the committee grows — partial
//! signing, aggregation (Lagrange in the exponent), partial verification,
//! group verification, the client's whole combine step, and keygen, for
//! (t, n) from (2,3) to (9,13).
//!
//! `client_sign` is what `ThresholdSigningClient::sign` does with the `t`
//! partials it has parsed (`threshold::Combiner`): hash the message once,
//! aggregate, one pairing check under the group key. Its `one_culprit`
//! variant has a wrong partial among the first `t`: the failed check, `t`
//! Feldman checks to name it, an honest replacement, the check that
//! passes. Checking every partial before aggregating — what the client
//! did before — costs `t × verify_partial + aggregate + verify_group`,
//! which the same row lets a reader add up. Pairing checks are counted,
//! not inferred.
//!
//! Medians of [`SAMPLES`] runs after one warm-up; results go to
//! `bench_results/threshold_scaling.json`. Absolute numbers for the
//! machine they were taken on.

use distrust_bench::stats::Summary;
use distrust_crypto::drbg::HmacDrbg;
use distrust_crypto::fr::Fr;
use distrust_crypto::pairing::final_exponentiations;
use distrust_crypto::threshold::{self, Combiner, KeyShare, PartialSignature};
use std::hint::black_box;
use std::time::Instant;

const CONFIGS: [(usize, usize); 5] = [(2, 3), (3, 5), (5, 8), (7, 10), (9, 13)];
const SAMPLES: usize = 10;
const MSG: &[u8] = b"scaling benchmark message";

/// Median time of `routine` in microseconds.
fn median_us<O>(mut routine: impl FnMut() -> O) -> f64 {
    black_box(routine());
    let samples = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            black_box(routine());
            start.elapsed()
        })
        .collect();
    Summary::from_samples(samples).median.as_secs_f64() * 1e6
}

fn main() {
    println!(
        "{:>7} {:>12} {:>10} {:>14} {:>12} {:>18} {:>22} {:>10}",
        "(t, n)",
        "partial_sign",
        "aggregate",
        "verify_partial",
        "verify_group",
        "client_sign honest",
        "client_sign 1 culprit",
        "generate"
    );
    let mut entries = Vec::new();
    for (t, n) in CONFIGS {
        let label = format!("t{t}_n{n}");
        let mut rng = HmacDrbg::new(b"threshold bench", label.as_bytes());
        let keys = threshold::generate(t, n, &mut rng).expect("keygen");
        let partials: Vec<PartialSignature> = keys.shares[..t]
            .iter()
            .map(|s| threshold::partial_sign(s, MSG))
            .collect();
        let signature = threshold::aggregate(t, &partials).expect("aggregate");

        let partial_sign = median_us(|| threshold::partial_sign(&keys.shares[0], MSG));
        let aggregate = median_us(|| threshold::aggregate(t, &partials).unwrap());
        let verify_partial =
            median_us(|| threshold::verify_partial(&keys.commitments, MSG, &partials[0]));
        let verify_group = median_us(|| keys.public_key.verify(MSG, &signature));

        let client_sign = |batch: &[PartialSignature], spare: Option<PartialSignature>| {
            let mut batch = batch.to_vec();
            let mut combiner = Combiner::new(t, &keys.public_key, &keys.commitments, MSG);
            let first = combiner.combine(&mut batch).expect("combine");
            let combined = first.or_else(|| {
                batch.extend(spare);
                combiner.combine(&mut batch).expect("combine again")
            });
            assert_eq!(combined, Some(signature));
        };
        let checks = |run: &dyn Fn()| {
            let before = final_exponentiations();
            run();
            final_exponentiations() - before
        };
        let honest = || client_sign(&partials, None);
        // Share 1 answers under a scalar nobody dealt; share t + 1 is the
        // honest replacement.
        let mut spoiled = partials.clone();
        spoiled[0] = threshold::partial_sign(
            &KeyShare {
                index: 1,
                value: Fr::random_nonzero(&mut rng),
            },
            MSG,
        );
        let spare = threshold::partial_sign(&keys.shares[t], MSG);
        let one_culprit = || client_sign(&spoiled, Some(spare));
        let (honest_checks, culprit_checks) = (checks(&honest), checks(&one_culprit));
        assert_eq!((honest_checks, culprit_checks), (1, t as u64 + 2));
        let (honest, one_culprit) = (median_us(honest), median_us(one_culprit));

        let mut keygen_rng = HmacDrbg::new(b"keygen bench", label.as_bytes());
        let generate = median_us(|| threshold::generate(t, n, &mut keygen_rng).unwrap());

        println!(
            "{:>7} {partial_sign:>12.0} {aggregate:>10.0} {verify_partial:>14.0} \
             {verify_group:>12.0} {honest:>18.0} {one_culprit:>22.0} {generate:>10.0}",
            format!("({t}, {n})"),
        );
        entries.push(format!(
            "  {{\"t\": {t}, \"n\": {n}, \"partial_sign_us\": {partial_sign:.1}, \
             \"aggregate_us\": {aggregate:.1}, \"verify_partial_us\": {verify_partial:.1}, \
             \"verify_group_us\": {verify_group:.1}, \
             \"client_sign_honest_us\": {honest:.1}, \
             \"client_sign_honest_pairing_checks\": {honest_checks}, \
             \"client_sign_one_culprit_us\": {one_culprit:.1}, \
             \"client_sign_one_culprit_pairing_checks\": {culprit_checks}, \
             \"generate_us\": {generate:.1}}}"
        ));
    }
    println!("(microseconds, median of {SAMPLES})");

    distrust_bench::report::write("threshold_scaling", &entries);
}
