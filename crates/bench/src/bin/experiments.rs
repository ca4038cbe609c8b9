//! Print every experiment table (E1–E9) from live runs.
//!
//! Usage:
//!   experiments                    # run everything at default scales
//!   experiments e4 e5              # run selected experiments
//!   experiments --quick            # smaller scales (CI-friendly)
//!   experiments --threads N        # force N eval workers for the tables
//!   experiments --verify-parallel  # seq vs parallel divergence check, exit 1 on mismatch
//!
//! An unknown experiment name or flag prints this usage to stderr and
//! exits 2.

use dco::prelude::{set_eval_config, EvalConfig};
use dco_bench::experiments as ex;
use dco_bench::experiments::print_table;
use dco_bench::verify;

const USAGE: &str = "usage: experiments [--quick] [--threads N] [--verify-parallel] [e1 … e9]";

const EXPERIMENTS: [&str; 9] = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"];

/// What the command line asks for.
#[derive(Debug, Default, PartialEq, Eq)]
struct Args {
    quick: bool,
    threads: Option<usize>,
    verify_parallel: bool,
    /// Experiments to run; empty means all of them.
    selected: Vec<String>,
}

/// Parse the arguments after the program name, rejecting anything
/// unknown with a one-line reason.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => out.quick = true,
            "--verify-parallel" => out.verify_parallel = true,
            "--threads" => {
                let value = it.next().ok_or("--threads needs a value")?;
                let n = value
                    .parse()
                    .map_err(|_| format!("--threads: not a thread count: {value:?}"))?;
                out.threads = Some(n);
            }
            name if EXPERIMENTS.contains(&name) => out.selected.push(name.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("experiments: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let quick = args.quick;

    if args.verify_parallel {
        let n = args.threads.unwrap_or(4).max(2);
        match verify::verify_parallel(n) {
            Ok(()) => {
                println!("verify-parallel: sequential and {n}-thread results identical");
                return;
            }
            Err(e) => {
                eprintln!("verify-parallel FAILED: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(n) = args.threads {
        set_eval_config(EvalConfig {
            threads: n,
            parallel_threshold: if n > 1 { 1 } else { 192 },
            ..EvalConfig::default()
        });
    }

    let want = |name: &str| args.selected.is_empty() || args.selected.iter().any(|s| s == name);

    let small: &[usize] = if quick {
        &[2, 4, 8]
    } else {
        &[2, 4, 8, 16, 32]
    };
    let tiny: &[usize] = if quick { &[2, 3] } else { &[2, 3, 4, 5] };
    let e4_sizes: &[usize] = if quick { &[4, 8] } else { &[4, 8, 16, 24] };

    if want("e1") {
        print_table(
            "E1  Theorem 4.1 — FO+ over integer-defined inputs (AC0 shape)",
            &ex::e1(small),
        );
    }
    if want("e2") {
        print_table(
            "E2  Theorem 4.2 — connectivity & parity not in FO+ (EF witnesses)",
            &ex::e2(if quick { 2 } else { 3 }),
        );
    }
    if want("e3") {
        print_table(
            "E3  Theorem 4.3 — region connectivity not linear (EF on encodings)",
            &ex::e3(if quick { 1 } else { 2 }),
        );
    }
    if want("e4") {
        print_table(
            "E4  Theorem 4.4 — inflationary Datalog¬ = PTIME (fixpoint scaling)",
            &ex::e4(e4_sizes),
        );
    }
    if want("e5") {
        print_table(
            "E5  Theorem 5.2 — PTIME ⊆ C-CALC1 ⊆ PSPACE (TC, both engines)",
            &ex::e5(tiny),
        );
    }
    if want("e6") {
        print_table(
            "E6  Theorems 5.3–5.5 — the set-height hierarchy H_i",
            &ex::e6(if quick { 3 } else { 5 }),
        );
    }
    if want("e7") {
        print_table(
            "E7  §2 — compact 'four constants + flag' box encoding",
            &ex::e7(small),
        );
    }
    if want("e8") {
        print_table(
            "E8  [KKR90]/§4 — FO closed-form evaluation (AC0 shape)",
            &ex::e8(small),
        );
    }
    if want("e9") {
        print_table(
            "E9  §4 — integer-only homeomorphism is harmless",
            &ex::e9(if quick { &[2, 4] } else { &[2, 4, 8, 16] }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_arguments_select_everything() {
        assert_eq!(parse(&[]).unwrap(), Args::default());
    }

    #[test]
    fn experiments_and_flags_mix_in_any_order() {
        let args = parse(&["e4", "--quick", "--threads", "3", "e1"]).unwrap();
        assert_eq!(
            args,
            Args {
                quick: true,
                threads: Some(3),
                verify_parallel: false,
                selected: vec!["e4".into(), "e1".into()],
            }
        );
        let args = parse(&["--verify-parallel", "--threads", "4"]).unwrap();
        assert!(args.verify_parallel);
        assert_eq!(args.threads, Some(4));
        assert!(args.selected.is_empty());
    }

    #[test]
    fn unknown_input_is_rejected() {
        for bad in [
            &["e99"][..],
            &["E1"],
            &["--json", "out.json"],
            &["--threads"],
            &["--threads", "many"],
            &["e1", "--quick", "--verbose"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
