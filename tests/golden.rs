//! Golden snapshot tests for the experiment renderings.
//!
//! Canonical outputs live under `tests/golden/`; each test regenerates
//! its table at a debug-affordable scale and diffs against the snapshot.
//! Because the simulator is deterministic — and the sweep runner
//! assembles results in input order whatever `CEDAR_SWEEP_THREADS` says —
//! any drift is a real behaviour change.
//! To bless intentional changes:
//!
//! ```text
//! CEDAR_UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use cedar::experiments::table2::Table2Sizes;
use cedar::experiments::{ppt4, resilience, table1, table2};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

/// Diff `actual` against the snapshot `name`, or rewrite the snapshot
/// when `CEDAR_UPDATE_GOLDEN=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("CEDAR_UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, actual).unwrap();
        eprintln!("blessed golden snapshot {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); bless it with \
             CEDAR_UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    if want != actual {
        let mut diff = String::new();
        for (i, (w, a)) in want.lines().zip(actual.lines()).enumerate() {
            if w != a {
                let _ = writeln!(diff, "line {}:\n  golden: {w}\n  actual: {a}", i + 1);
            }
        }
        let (wn, an) = (want.lines().count(), actual.lines().count());
        if wn != an {
            let _ = writeln!(diff, "line counts differ: golden {wn}, actual {an}");
        }
        panic!(
            "{name} drifted from its golden snapshot \
             (CEDAR_UPDATE_GOLDEN=1 to bless intentional changes):\n{diff}"
        );
    }
}

/// Table 1 + Table 2 at test scale — the snapshot analogue of
/// `results_tables12.txt`.
#[test]
fn tables12_match_golden_snapshot() {
    let t1 = table1::run(64).unwrap();
    let mut out = t1.render();
    let pf = t1.prefetch_factors();
    let cf = t1.cache_factors();
    let _ = writeln!(
        out,
        "prefetch improvement over no-pref: {:.1} / {:.1} / {:.1} / {:.1}",
        pf[0], pf[1], pf[2], pf[3]
    );
    let _ = writeln!(
        out,
        "cache improvement over no-pref   : {:.1} / {:.1} / {:.1} / {:.1}",
        cf[0], cf[1], cf[2], cf[3]
    );
    out.push('\n');
    let t2 = table2::run_sized(Table2Sizes {
        vl_words_per_ce: 1024,
        tm_n: 4096,
        rk_n: 64,
        cg_n: 4096,
    })
    .unwrap();
    out.push_str(&t2.render());
    check_golden("tables12.txt", &out);
}

/// The PPT4 scalability study over a shrunken sweep — the snapshot
/// analogue of `results_ppt4.txt`.
#[test]
fn ppt4_matches_golden_snapshot() {
    let study = ppt4::run_swept(1, &[1024, 4096], &[8, 32], 8192).unwrap();
    check_golden("ppt4.txt", &study.render());
}

/// The resilience study at test scale. Fault injection is seeded and
/// counter-based, so the exact drops, retries and cycle counts of every
/// faulty run are as reproducible as the healthy tables; drift here
/// means the fault path (not just the happy path) changed behaviour.
#[test]
fn resilience_matches_golden_snapshot() {
    let r = resilience::run(64, 0xCEDA_0001).unwrap();
    check_golden("resilience.txt", &r.render());
}
