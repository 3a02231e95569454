//! Campaign determinism: the work-stealing parallel runner must be
//! invisible in the results. Every (mix, scheme) simulation owns its
//! models and PRNG streams, so a serial sweep and a stolen-to-pieces
//! parallel sweep of the same matrix must produce **bit-identical**
//! `MixResult`s — any divergence means shared mutable state leaked into
//! the simulation (or a nondeterministic map iteration started steering
//! timing), which would also poison figure reproducibility.

use ivl_bench::run_matrix_on_with_workers;
use ivl_simulator::{RunConfig, SchemeKind};
use ivl_workloads::mixes::MIXES;

const MAIN_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Baseline,
    SchemeKind::IvBasic,
    SchemeKind::IvInvert,
    SchemeKind::IvPro,
];

#[test]
fn parallel_campaign_is_bit_identical_to_serial() {
    let run = RunConfig::smoke_test();
    let serial = run_matrix_on_with_workers(&MIXES, &MAIN_SCHEMES, &run, 1);
    let parallel = run_matrix_on_with_workers(&MIXES, &MAIN_SCHEMES, &run, 4);
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(serial.len(), MIXES.len() * MAIN_SCHEMES.len());
    for (s, p) in serial.iter().zip(&parallel) {
        // `Debug` prints every stat field and every f64 with
        // shortest-round-trip precision, so equal strings ⇔ bit-equal
        // results (modulo NaN, which no field may be anyway).
        assert_eq!(
            format!("{s:?}"),
            format!("{p:?}"),
            "serial and parallel runs diverged for {}/{:?}",
            s.mix,
            s.scheme
        );
    }
}
