//! Property tests for the dataflow lattices and the workspace fixpoint.
//!
//! The taint engine's soundness rests on two algebraic facts: the
//! `Bound`/`Taint` join is a real lattice join (monotone, idempotent,
//! commutative, associative), and the argument-taint fixpoint terminates
//! within its iteration budget on any call graph — including cyclic ones —
//! because every sweep only moves values up a finite-height lattice.

use distrust_lint::dataflow::{Bound, Dataflow, Taint};
use distrust_lint::scan::SourceFile;
use proptest::prelude::*;

/// Phase 1 and phase 2 each sweep at most `MAX_ITERS = 12` times.
const MAX_TOTAL_SWEEPS: usize = 24;

fn bound(tag: u8, cap: u64) -> Bound {
    match tag % 4 {
        0 => Bound::Const(cap as u128),
        1 => Bound::Mem,
        2 => Bound::Input,
        _ => Bound::Top,
    }
}

fn taint(params: u64, tag: u8, cap: u64, hop: u64) -> Taint {
    Taint {
        params,
        chain: (!hop.is_multiple_of(3)).then(|| vec![format!("hop-{}", hop % 7)]),
        bound: bound(tag, cap),
    }
}

/// A synthetic workspace of `n` functions spread over two crates, with a
/// seed-derived (often cyclic) call graph, every function threading its
/// parameter into its callees and one allocation sink.
fn synthetic_workspace(n: usize, seed: u64) -> Vec<SourceFile> {
    let mut crates: Vec<String> = vec![String::new(), String::new()];
    for i in 0..n {
        let krate = i % 2;
        let mut calls = String::new();
        for k in 0..(seed as usize % 3) + 1 {
            let j = (i
                .wrapping_mul(7)
                .wrapping_add(seed as usize)
                .wrapping_add(k * 11))
                % n;
            let path = if j % 2 == krate {
                format!("f{j}")
            } else if j.is_multiple_of(2) {
                format!("distrust_alpha::graph::f{j}")
            } else {
                format!("distrust_beta::graph::f{j}")
            };
            calls.push_str(&format!("{path}(x); "));
        }
        crates[krate].push_str(&format!(
            "pub fn f{i}(x: usize) {{ {calls}let v: Vec<u64> = Vec::with_capacity(x); keep(v); }}\n"
        ));
    }
    // One root feeds a wire-announced length into the graph.
    crates[0].push_str(
        "pub fn decode_root(input: &mut &[u8]) { let n = decode_len(input).unwrap_or(0); f0(n); }\n",
    );
    vec![
        SourceFile::parse("crates/alpha/src/graph.rs".into(), &crates[0]),
        SourceFile::parse("crates/beta/src/graph.rs".into(), &crates[1]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bound_join_is_a_lattice_join(
        a_tag in 0u8..4, a_cap in any::<u64>(),
        b_tag in 0u8..4, b_cap in any::<u64>(),
        c_tag in 0u8..4, c_cap in any::<u64>(),
    ) {
        let (a, b, c) = (bound(a_tag, a_cap), bound(b_tag, b_cap), bound(c_tag, c_cap));
        // Upper bound and monotone: the join never loses either side.
        prop_assert!(a.join(b) >= a && a.join(b) >= b);
        // Idempotent, commutative, associative.
        prop_assert_eq!(a.join(a), a);
        prop_assert_eq!(a.join(b), b.join(a));
        prop_assert_eq!(a.join(b).join(c), a.join(b.join(c)));
        // Least upper bound: no element strictly between the larger input
        // and the join (the lattice is a chain, so join is max).
        prop_assert_eq!(a.join(b), a.max(b));
    }

    #[test]
    fn taint_merge_is_monotone_and_idempotent(
        a_params in any::<u64>(), a_tag in 0u8..4, a_cap in any::<u64>(), a_hop in any::<u64>(),
        b_params in any::<u64>(), b_tag in 0u8..4, b_cap in any::<u64>(), b_hop in any::<u64>(),
    ) {
        let a = taint(a_params, a_tag, a_cap, a_hop);
        let b = taint(b_params, b_tag, b_cap, b_hop);
        let mut joined = a.clone();
        joined.merge(&b);
        // No information loss: both param sets survive, the bound only
        // goes up, and a chain survives whenever either side had one.
        prop_assert_eq!(joined.params & a.params, a.params);
        prop_assert_eq!(joined.params & b.params, b.params);
        prop_assert!(joined.bound >= a.bound && joined.bound >= b.bound);
        prop_assert_eq!(joined.chain.is_some(), a.chain.is_some() || b.chain.is_some());
        // Idempotent: merging the same value again changes nothing, which
        // is what lets the fixpoint detect convergence.
        let mut again = joined.clone();
        again.merge(&b);
        prop_assert_eq!(&again, &joined);
        again.merge(&a);
        prop_assert_eq!(&again, &joined);
        // Commutative: order of discovery cannot change the result.
        let mut flipped = b.clone();
        flipped.merge(&a);
        prop_assert_eq!(&flipped, &joined);
    }

    #[test]
    fn argument_taint_fixpoint_terminates_on_arbitrary_graphs(
        n in 1usize..=64, seed in any::<u64>(),
    ) {
        let files = synthetic_workspace(n, seed);
        let flow = Dataflow::build(&files);
        // Terminates inside the iteration budget even on cyclic graphs...
        prop_assert!(flow.fixpoint_iters <= MAX_TOTAL_SWEEPS, "{}", flow.fixpoint_iters);
        // ...and lands on a deterministic fixpoint: rebuilding from the
        // same sources reproduces every site exactly.
        let again = Dataflow::build(&files);
        prop_assert_eq!(&again.sites, &flow.sites);
        prop_assert_eq!(again.fixpoint_iters, flow.fixpoint_iters);
    }
}
