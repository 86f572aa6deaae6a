//! Property tests for the window machinery: random programs, random
//! window sizes, random parameters — interleaved execution must always
//! equal the backtracking regex oracle, bit for bit.

use bitgen_bitstream::Basis;
use bitgen_exec::{execute, ExecConfig, FallbackPolicy, Scheme};
use bitgen_ir::{lower_group_with, LowerOptions};
use bitgen_regex::{match_ends, Ast, ByteSet};
use proptest::prelude::*;

fn arb_ast() -> impl Strategy<Value = Ast> {
    let leaf = prop::sample::select(vec![b'a', b'b', b'c', b'd'])
        .prop_map(|b| Ast::Class(ByteSet::singleton(b)));
    leaf.prop_recursive(3, 20, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Ast::Concat),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Ast::Alt),
            inner.clone().prop_map(|a| Ast::Star(Box::new(a))),
            inner.clone().prop_map(|a| Ast::Plus(Box::new(a))),
            (inner, 1u32..4).prop_map(|(a, n)| Ast::Repeat {
                node: Box::new(a),
                min: n,
                max: Some(n + 1),
            }),
        ]
    })
}

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"abcdx".to_vec()), 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn windows_never_change_results(
        asts in prop::collection::vec(arb_ast(), 1..3),
        input in arb_input(),
        threads in 1usize..6,
        scheme in prop::sample::select(Scheme::ALL.to_vec()),
        merge in 1usize..9,
        interval in 1usize..9,
        match_star in any::<bool>(),
        log_repetition in any::<bool>(),
    ) {
        let prog = lower_group_with(&asts, LowerOptions { match_star, log_repetition });
        let basis = Basis::transpose(&input);
        let expect: Vec<Vec<usize>> = asts.iter().map(|a| match_ends(a, &input)).collect();
        let config = ExecConfig {
            scheme,
            threads,
            merge_size: merge,
            interval,
            fallback: FallbackPolicy::Sequential,
            ..ExecConfig::default()
        };
        let out = execute(&prog, &basis, &config).unwrap();
        for (got, want) in out.outputs.iter().zip(&expect) {
            prop_assert_eq!(
                got.positions(),
                *want,
                "scheme {} t={} m={} i={} ms={} lr={}",
                scheme, threads, merge, interval, match_star, log_repetition
            );
        }
    }

    #[test]
    fn tiny_allowance_still_correct(
        ast in arb_ast(),
        input in arb_input(),
    ) {
        // With no dynamic allowance every loop-carrying window must
        // retry or fall back; correctness may never depend on the
        // allowance being generous.
        let prog = lower_group_with(std::slice::from_ref(&ast), LowerOptions::default());
        let basis = Basis::transpose(&input);
        let expect = match_ends(&ast, &input);
        let config = ExecConfig {
            scheme: Scheme::Zbs,
            threads: 2,
            dynamic_allowance: 0,
            ..ExecConfig::default()
        };
        let out = execute(&prog, &basis, &config).unwrap();
        prop_assert_eq!(out.outputs[0].positions(), expect, "{}", ast);
    }
}
