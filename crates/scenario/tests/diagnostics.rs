//! Negative-parse suite: one committed fixture per diagnostic, asserting
//! the *exact* rendered error — position and wording. These messages are
//! a stable interface (scripts and editors match on them); changing one
//! is an API change and must update the fixture table here deliberately.

use scenario::parse;

/// (fixture name, source, expected `line:col: message`).
const FIXTURES: &[(&str, &str, &str)] = &[
    (
        "unknown-cca",
        include_str!("bad/unknown-cca.scn"),
        "7:9: unknown CCA `renno` (expected one of: reno, cubic, vegas, fast, ledbat, copa, bbr, verus, vivace, allegro, delay-aimd, jitter-aware, const-cwnd)",
    ),
    (
        "missing-field",
        include_str!("bad/missing-field.scn"),
        "6:8: flow `f0` is missing required field `rtt`",
    ),
    (
        "unit-mismatch",
        include_str!("bad/unit-mismatch.scn"),
        "8:9: unit mismatch: expected a duration (s/ms/us/ns), got `40mbps`",
    ),
    (
        "duplicate-flow",
        include_str!("bad/duplicate-flow.scn"),
        "10:8: duplicate flow id `f0` (first declared at 6:8)",
    ),
    (
        "missing-unit",
        include_str!("bad/missing-unit.scn"),
        "4:12: missing unit: expected a duration (s/ms/us/ns), got bare `5`",
    ),
    (
        "bad-loss",
        include_str!("bad/bad-loss.scn"),
        "8:10: loss probability must be in [0, 1], got `1.5`",
    ),
    (
        "tiny-buffer",
        include_str!("bad/tiny-buffer.scn"),
        "4:29: buffer of 1B is smaller than one 1500B packet, so every packet would be dropped",
    ),
    (
        "no-flows",
        include_str!("bad/no-flows.scn"),
        "3:1: scenario has no flows (at least one `flow` or `workload` block is required)",
    ),
];

#[test]
fn every_fixture_renders_its_pinned_diagnostic() {
    let mut mismatches = Vec::new();
    for (name, src, want) in FIXTURES {
        match parse(src) {
            Ok(_) => mismatches.push(format!("{name}: expected a parse error, but it parsed")),
            Err(e) => {
                let got = e.to_string();
                if got != *want {
                    mismatches.push(format!("{name}:\n  want: {want}\n  got:  {got}"));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "diagnostic drift:\n{}", mismatches.join("\n"));
}

#[test]
fn diagnostics_carry_real_positions() {
    // Every pinned diagnostic points into its source: the line exists and
    // the column is within that line (1-based, so a `line:col` from an
    // error message can be pasted into an editor).
    for (name, src, _) in FIXTURES {
        let e = parse(src).expect_err(name);
        let (line, col) = (e.line as usize, e.col as usize);
        let lines: Vec<&str> = src.lines().collect();
        assert!(line >= 1 && line <= lines.len(), "{name}: line {line} out of range");
        let width = lines[line - 1].chars().count();
        assert!(col >= 1 && col <= width + 1, "{name}: col {col} out of range");
    }
}

#[test]
fn fixtures_on_disk_match_the_embedded_copies() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/bad");
    for (name, src, _) in FIXTURES {
        let on_disk = std::fs::read_to_string(dir.join(format!("{name}.scn")))
            .unwrap_or_else(|e| panic!("{name}.scn: {e}"));
        assert_eq!(&on_disk, src, "{name}.scn drifted from the embedded copy");
    }
}
