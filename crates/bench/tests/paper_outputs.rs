//! The `tables` and `figures` binaries print every paper table and figure the
//! reproduction regenerates.  Their whole standard output is pinned byte for
//! byte to the fixtures in `crates/bench/fixtures/`, so a change to the
//! accelerator model, the eDRAM model or the accuracy proxy that moves any
//! printed number fails here.
//!
//! A change that moves them on purpose re-captures both fixtures from a
//! release build,
//!
//! ```text
//! cargo run --release -q -p kelle-bench --bin tables > crates/bench/fixtures/tables.txt
//! cargo run --release -q -p kelle-bench --bin figures > crates/bench/fixtures/figures.txt
//! ```
//!
//! and says which numbers moved and why.

use std::process::Command;

/// Runs `bin` with no arguments (every table or figure) and compares its
/// standard output with `fixture`, naming the first line that differs.
fn assert_output_matches(bin: &str, fixture: &str) {
    let out = Command::new(bin).output().expect("the binary starts");
    assert!(
        out.status.success(),
        "{bin} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let printed = String::from_utf8(out.stdout).expect("the output is UTF-8");
    if printed == fixture {
        return;
    }
    let mut pinned = fixture.lines();
    for (i, line) in printed.lines().enumerate() {
        let want = pinned.next();
        assert_eq!(Some(line), want, "{bin}: line {} moved", i + 1);
    }
    assert_eq!(
        printed.lines().count(),
        fixture.lines().count(),
        "{bin}: the line count moved"
    );
    assert_eq!(printed, fixture, "{bin}: the line endings moved");
}

#[test]
fn tables_print_what_the_fixture_pins() {
    assert_output_matches(
        env!("CARGO_BIN_EXE_tables"),
        include_str!("../fixtures/tables.txt"),
    );
}

#[test]
fn figures_print_what_the_fixture_pins() {
    assert_output_matches(
        env!("CARGO_BIN_EXE_figures"),
        include_str!("../fixtures/figures.txt"),
    );
}
