//! Tier-1 CLI usage contract, checked against the real binaries: a
//! duplicated flag, an empty `--flag=` value, or a removed flag is a usage
//! error (exit 2, stderr names the flag), never a silent last-wins,
//! empty-string config, or ignored option. Each probe exits in argument parsing, long before any
//! co-simulation work, so the whole matrix is cheap.

use std::process::Command;

/// The long-running drivers whose flag surface the serve/sweep/dse/fault
/// campaign walkthroughs lean on.
const BINARIES: [(&str, &str); 4] = [
    ("sweep", env!("CARGO_BIN_EXE_sweep")),
    ("fault_campaign", env!("CARGO_BIN_EXE_fault_campaign")),
    ("dse", env!("CARGO_BIN_EXE_dse")),
    ("serve", env!("CARGO_BIN_EXE_serve")),
];

/// Runs `bin args`, returning (exit code, stderr).
fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn duplicated_flags_are_usage_errors_in_every_binary() {
    // `--progress` is the one flag all four drivers share.
    for (name, bin) in BINARIES {
        let args = ["--progress", "off", "--progress=json"];
        let (code, stderr) = run(bin, &args);
        assert_eq!(code, 2, "{name} {args:?} must exit 2, stderr: {stderr}");
        assert!(
            stderr.contains("--progress given more than once"),
            "{name} {args:?} must name the duplicated flag, stderr: {stderr}"
        );
    }
    // Binary-specific surfaces: spelled, `=`-joined, and boolean repeats.
    for (bin, args, flag) in [
        (env!("CARGO_BIN_EXE_sweep"), &["--jobs", "2", "--jobs", "8"][..], "--jobs"),
        (env!("CARGO_BIN_EXE_fault_campaign"), &["--jobs", "2", "--jobs", "8"][..], "--jobs"),
        (env!("CARGO_BIN_EXE_dse"), &["--seed", "7", "--seed=9"][..], "--seed"),
        (env!("CARGO_BIN_EXE_serve"), &["--trace", "--trace"][..], "--trace"),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, 2, "{args:?} must exit 2, stderr: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} given more than once")),
            "{args:?} must name the duplicated flag, stderr: {stderr}"
        );
    }
}

#[test]
fn empty_flag_values_are_usage_errors_in_every_binary() {
    for (name, bin) in BINARIES {
        for args in [&["--progress="][..], &["--progress", ""][..]] {
            let (code, stderr) = run(bin, args);
            assert_eq!(code, 2, "{name} {args:?} must exit 2, stderr: {stderr}");
            assert!(
                stderr.contains("--progress needs a non-empty value"),
                "{name} {args:?} must name the empty flag, stderr: {stderr}"
            );
        }
    }
    // Binary-specific value flags keep the same contract.
    for (bin, args, flag) in [
        (env!("CARGO_BIN_EXE_sweep"), &["--out="][..], "--out"),
        (env!("CARGO_BIN_EXE_fault_campaign"), &["--jobs="][..], "--jobs"),
        (env!("CARGO_BIN_EXE_dse"), &["--seed", ""][..], "--seed"),
        (env!("CARGO_BIN_EXE_serve"), &["--store="][..], "--store"),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, 2, "{args:?} must exit 2, stderr: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} needs a non-empty value")),
            "{args:?} must name the empty flag, stderr: {stderr}"
        );
    }
}

#[test]
fn removed_batch_lanes_flag_is_a_usage_error() {
    // The lockstep-lane solver and its flag are gone; an old script that
    // still passes it must fail loudly rather than run something else.
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_sweep"), &["run", "--batch-lanes", "4"][..]),
        (env!("CARGO_BIN_EXE_serve"), &["--stdio", "--batch-lanes", "4"][..]),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, 2, "{args:?} must exit 2, stderr: {stderr}");
        assert!(
            stderr.contains("unknown flag \"--batch-lanes\""),
            "{args:?} must name the removed flag, stderr: {stderr}"
        );
    }
}
