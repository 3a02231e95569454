//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints notes and `# key=value` context lines, then the result as one
//! JSON object on the last line of standard output. Exits 2 on bad
//! arguments or when any `IVL_*` variable is set (those reroute
//! `run_mix`).
//!
//! `perfbench --print-digests [--seed N]` prints the expected-digest table
//! (`expected.txt`) for every workload at the seed.

use ivl_simulator::{run_mix, EngineKind};
use perfbench::digest::{digest, expected_table};
use perfbench::workload::{Workload, DEFAULT_SEED};
use perfbench::{run_traced_set, run_untraced, Checks};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         perfbench --print-digests [--seed N]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let ivl_vars: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("IVL_"))
        .collect();
    if !ivl_vars.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: IVL_* variables reroute run_mix",
            ivl_vars.join(", ")
        );
        return ExitCode::from(2);
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut print_digests) = (DEFAULT_SEED, 10.0, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            print_digests = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::from_name(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| seconds = v)
                .is_ok_and(|_| seconds.is_finite() && seconds >= 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown argument {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }

    if print_digests {
        for w in Workload::ALL {
            let run = w.run_config(seed);
            for p in w.points() {
                let r = run_mix(p.mix, p.scheme, &run);
                println!("{} {} {}", w.name(), p.label(), digest(&r));
            }
        }
        return ExitCode::SUCCESS;
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };

    let run = workload.run_config(seed);
    let points = workload.points();
    println!(
        "# workload={} seed={seed} seconds={seconds} trace={} points={} engine={:?} entry=run_mix",
        workload.name(),
        u8::from(trace),
        points.len(),
        EngineKind::from_env(),
    );
    let table = expected_table();
    let checks = Checks {
        workload: workload.name(),
        expected: (seed == DEFAULT_SEED).then_some(&table),
    };
    let report = if trace {
        run_traced_set(&points, &run, &checks, seconds)
    } else {
        run_untraced(&points, &run, &checks, seconds)
    };
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
