//! Determinism tests: a fresh machine reproduces a run exactly.
//!
//! The simulator promises bit-for-bit repeatability: running the same
//! programs on a freshly built machine with the same configuration gives
//! identical cycle counts, identical final memory state, and an identical
//! stats-counter tree. Host parallelism lives only at the sweep level
//! (whole independent machines side by side), so this repeatability is
//! exactly what makes sweep reports independent of the host thread
//! count. These tests pin it on the workloads the paper's tables are
//! built from: the rank-64 update (Table 1 rows: every memory version at
//! every cluster count) and a Perfect-benchmark code compiled through
//! the Fortran pipeline.
//!
//! The guarantee extends to fault injection: when `CEDAR_FAULT_SEED` is
//! set (CI's faults leg), every workload here reruns with a transient
//! fault plan at that seed, and the repeatability assertions then cover
//! the drop/NACK/retry machinery too — injected faults are part of the
//! fingerprint, so they must land on the same packets in every run. The
//! same mechanism covers journey tracing: CI's tracing leg sets
//! `CEDAR_TRACE_SAMPLE_PPM`, and the `trace.*` stats keys then join the
//! fingerprint.

use cedar_fortran::compile::Backend;
use cedar_fortran::restructure::{Level, Restructurer};
use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::config::{fault_seed_from_env, trace_plan_from_env};
use cedar_machine::machine::Machine;
use cedar_machine::stats::export::flat_text;
use cedar_machine::{FaultPlan, MachineConfig, MachineStats};

/// CI's faults leg: `CEDAR_FAULT_SEED` turns every determinism workload
/// into a faulty one (2000 ppm drops, 1000 ppm NACKs at that seed). A
/// garbage value is a hard error — the strict parser, pinned separately
/// in `env_knobs.rs`, forbids silently running a different plan.
fn with_env_faults(cfg: MachineConfig) -> MachineConfig {
    match fault_seed_from_env().expect("CEDAR_FAULT_SEED must be a u64") {
        Some(seed) => cfg.with_faults(FaultPlan {
            drop_per_million: 2_000,
            nack_per_million: 1_000,
            ..FaultPlan::none(seed)
        }),
        None => cfg,
    }
}

/// CI's tracing leg: `CEDAR_TRACE_SAMPLE_PPM` (with `CEDAR_TRACE_SEED`)
/// turns every determinism workload into a traced one. Sampled journeys
/// land in the `trace.*` stats keys, so the repeatability assertions then
/// cover the tracing layer too.
fn with_env_knobs(cfg: MachineConfig) -> MachineConfig {
    let cfg = with_env_faults(cfg);
    match trace_plan_from_env().expect("CEDAR_TRACE_* must be valid") {
        Some(plan) => cfg.with_trace(plan),
        None => cfg,
    }
}
use cedar_perfect::codes::{spec, CodeName};
use cedar_xylem::costs::XylemCosts;

/// Everything a run can leak about its execution: cycle count, a digest
/// of the persistent memory state (global sync words + cache tag arrays),
/// and the full stats-counter tree.
struct Fingerprint {
    cycles: u64,
    memory: u64,
    stats: MachineStats,
}

/// Compare a rerun's fingerprint `got` against the first run's `base`,
/// with a readable counter diff on mismatch.
fn assert_repeated(label: &str, base: &Fingerprint, got: &Fingerprint) {
    assert_eq!(
        base.cycles, got.cycles,
        "{label}: rerun took {} cycles, first run took {}",
        got.cycles, base.cycles
    );
    assert_eq!(
        base.memory, got.memory,
        "{label}: rerun left different memory state"
    );
    if base.stats != got.stats {
        let first = flat_text(&base.stats);
        let rerun = flat_text(&got.stats);
        let diff: Vec<String> = first
            .lines()
            .zip(rerun.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("  first: {a}\n  rerun: {b}"))
            .collect();
        panic!(
            "{label}: rerun stats tree differs from the first run:\n{}",
            diff.join("\n")
        );
    }
}

fn run_rank64(clusters: usize, fastfwd: bool, version: Rank64Version, n: u32) -> Fingerprint {
    let cfg =
        with_env_knobs(MachineConfig::cedar_with_clusters(clusters).with_fast_forward(fastfwd));
    let mut m = Machine::new(cfg).unwrap();
    let kern = Rank64 { n, k: 64, version };
    let progs = kern.build(&mut m, clusters);
    let r = m.run(progs, 1_000_000_000).unwrap();
    Fingerprint {
        cycles: r.cycles,
        memory: m.memory_digest(),
        stats: r.stats,
    }
}

/// The headline guarantee: the rank-64 kernel on the full machine
/// reproduces on a fresh machine, with fast-forward on and off.
#[test]
fn rank64_is_deterministic() {
    let version = Rank64Version::GmPrefetch { block_words: 32 };
    for fastfwd in [true, false] {
        let base = run_rank64(4, fastfwd, version, 64);
        assert!(base.cycles > 0);
        let got = run_rank64(4, fastfwd, version, 64);
        assert_repeated(
            &format!("rank64 gm+prefetch fastfwd={fastfwd}"),
            &base,
            &got,
        );
    }
}

/// Every Table 1 row (memory version, at test scale) reproduces on a
/// fresh machine, on the full machine and on a partial one.
#[test]
fn table1_rows_are_deterministic() {
    for version in [
        Rank64Version::GmNoPrefetch,
        Rank64Version::GmPrefetch { block_words: 32 },
        Rank64Version::GmCache,
    ] {
        let label = format!("table1 {version:?} x4 clusters");
        let base = run_rank64(4, true, version, 64);
        let got = run_rank64(4, true, version, 64);
        assert_repeated(&label, &base, &got);
    }
    let version = Rank64Version::GmCache;
    let base = run_rank64(3, true, version, 64);
    let got = run_rank64(3, true, version, 64);
    assert_repeated("table1 GmCache x3 clusters", &base, &got);
}

fn run_perfect(code: CodeName) -> Fingerprint {
    let clusters = 4;
    let src = spec(code).to_source();
    let compiled = Restructurer::default().restructure(&src, Level::Automatable);
    let backend = Backend::new(XylemCosts::cedar());
    let cfg = with_env_knobs(MachineConfig::cedar_with_clusters(clusters));
    let mut m = Machine::new(cfg).unwrap();
    let progs = backend.lower(&compiled, &mut m, clusters);
    let r = m.run(progs, 4_000_000_000).unwrap();
    Fingerprint {
        cycles: r.cycles,
        memory: m.memory_digest(),
        stats: r.stats,
    }
}

/// A Perfect-benchmark code through the full Fortran pipeline (TRFD at
/// the automatable level) reproduces on a fresh machine.
#[test]
fn perfect_trfd_is_deterministic() {
    let base = run_perfect(CodeName::Trfd);
    assert!(base.cycles > 0);
    let got = run_perfect(CodeName::Trfd);
    assert_repeated("perfect TRFD automatable", &base, &got);
}
