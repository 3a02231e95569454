//! Golden figure data: every (mix, main scheme) point at
//! `RunConfig::smoke_test()` must reproduce a pinned digest of its
//! `MixResult`.
//!
//! The digests in `golden_digests.txt` are SipHash-2-4 values of the
//! result's `Debug` text, which prints every stat field and every `f64`
//! with shortest-round-trip precision, so equal digests ⇔ bit-equal
//! results. A change that moves any figure number fails here; a change that
//! means to move them must regenerate the file (the failure message prints
//! its new contents) and say why in the changelog.

use ivl_crypto::siphash::{siphash24, SipKey};
use ivl_simulator::{run_mix, RunConfig, SchemeKind};
use ivl_workloads::mixes::MIXES;

const GOLDEN: &str = include_str!("golden_digests.txt");

fn digest(text: &str) -> u64 {
    siphash24(SipKey::from_bytes(*b"ivleague-golden!"), text.as_bytes())
}

#[test]
fn smoke_matrix_matches_golden_digests() {
    let run = RunConfig::smoke_test();
    let mut actual = String::new();
    for mix in &MIXES {
        for scheme in SchemeKind::MAIN {
            let result = run_mix(mix, scheme, &run);
            let line = format!(
                "{} {} {:016x}\n",
                mix.name,
                scheme.label(),
                digest(&format!("{result:?}"))
            );
            actual.push_str(&line);
        }
    }
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let got: Vec<&str> = actual.lines().collect();
    let drifted: Vec<String> = expected
        .iter()
        .zip(&got)
        .filter(|(e, g)| e != g)
        .map(|(e, g)| format!("  expected {e}\n  got      {g}"))
        .collect();
    assert!(
        expected.len() == got.len() && drifted.is_empty(),
        "figure data drifted from tests/golden_digests.txt \
         ({} of {} points differ, {} pinned):\n{}\n\nnew file body:\n{actual}",
        drifted.len(),
        got.len(),
        expected.len(),
        drifted.join("\n")
    );
}
