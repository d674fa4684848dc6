//! Equivalence battery for the ahead-of-run program lowering.
//!
//! Lowering (`MachineConfig::lowered`, on by default) compiles each CE
//! program once into a flat micro-op stream: branch targets resolved,
//! pure scalar/vector runs fused into single bulk-timed micro-ops,
//! pure `Repeat` bodies collapsed into one charge, and prefetch
//! arm+fire pairs glued into a superinstruction. Straight-line timed
//! work is then charged as one stall whose end the engine reports to
//! the fast-forward scheduler, so quiescent CEs tick in O(1). Its
//! contract is *bit-for-bit* equivalence with the tree-walking
//! interpreter (kept verbatim behind the `CEDAR_NO_LOWER` escape
//! hatch): the same cycle count, the same memory digest, the same full
//! stats registry — attribution vectors, histograms, journey stamps —
//! with fast-forward and the flow path on or off, under fault
//! injection, and under journey tracing.
//!
//! These tests pin that contract on the paper's Table 1 rows and on a
//! Perfect-benchmark code through the full Fortran pipeline. The
//! randomized cross-check on arbitrary generated programs lives in
//! `properties.rs`; the environment-variable hatch is exercised in its
//! own process in `lower_env.rs`.

use cedar_fortran::compile::Backend;
use cedar_fortran::restructure::{Level, Restructurer};
use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::machine::Machine;
use cedar_machine::stats::export::{chrome_trace_with_journeys, flat_text};
use cedar_machine::{FaultPlan, MachineConfig, MachineStats, TracePlan};
use cedar_perfect::codes::{spec, CodeName};
use cedar_xylem::costs::XylemCosts;

const LIMIT: u64 = 1_000_000_000;

/// `CEDAR_NO_LOWER=1` (a CI matrix leg) overrides the config flag, so
/// "lowered on" runs silently fall back to the interpreter. The
/// equivalence assertions must hold on every leg; the "actually
/// lowered" assertions only apply when lowering is possible at all.
fn lowering_possible() -> bool {
    !cedar_machine::config::lowered_disabled_from_env()
}

/// Everything a run can leak about its execution, plus whether the
/// machine actually executed the flat streams while producing it.
struct Fingerprint {
    cycles: u64,
    memory: u64,
    stats: MachineStats,
    lowered: bool,
}

/// Compare a lowered run against the interpreter baseline, with a
/// readable counter diff on mismatch.
fn assert_equivalent(label: &str, base: &Fingerprint, got: &Fingerprint) {
    assert_eq!(
        base.cycles, got.cycles,
        "{label}: lowered run took {} cycles, interpreter took {}",
        got.cycles, base.cycles
    );
    assert_eq!(
        base.memory, got.memory,
        "{label}: lowered run left different memory state"
    );
    if base.stats != got.stats {
        let tree = flat_text(&base.stats);
        let flat = flat_text(&got.stats);
        let diff: Vec<String> = tree
            .lines()
            .zip(flat.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("  interpreter: {a}\n  lowered:     {b}"))
            .collect();
        panic!(
            "{label}: lowered stats tree differs from the interpreter:\n{}",
            diff.join("\n")
        );
    }
}

fn fingerprint_rank64(
    version: Rank64Version,
    lowered: bool,
    fast_forward: bool,
    flow: bool,
    faults: Option<FaultPlan>,
    trace: Option<TracePlan>,
) -> Fingerprint {
    let clusters = 4;
    let mut cfg = MachineConfig::cedar_with_clusters(clusters)
        .with_fast_forward(fast_forward)
        .with_flow_path(flow)
        .with_lowered(lowered);
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    if let Some(plan) = trace {
        cfg = cfg.with_trace(plan);
    }
    let mut m = Machine::new(cfg).unwrap();
    let progs = Rank64 {
        n: 64,
        k: 64,
        version,
    }
    .build(&mut m, clusters);
    let r = m.run(progs, LIMIT).unwrap();
    Fingerprint {
        cycles: r.cycles,
        memory: m.memory_digest(),
        stats: r.stats,
        lowered: m.lowered_enabled(),
    }
}

/// Every Table 1 memory version produces a bit-identical fingerprint
/// with lowering on, with the event-horizon fast-forward on and off,
/// and with the network flow path on and off (all three fast paths
/// compose).
#[test]
fn table1_rows_match_with_lowering_on() {
    for version in [
        Rank64Version::GmNoPrefetch,
        Rank64Version::GmPrefetch { block_words: 32 },
        Rank64Version::GmCache,
    ] {
        let label = format!("table1 {version:?}");
        let base = fingerprint_rank64(version, false, false, true, None, None);
        assert!(!base.lowered, "{label}: baseline must interpret");
        for fast_forward in [false, true] {
            let got = fingerprint_rank64(version, true, fast_forward, true, None, None);
            assert_equivalent(
                &format!("{label}, fast-forward {fast_forward}"),
                &base,
                &got,
            );
        }
        // One leg against the per-flit network oracle, so the flat
        // streams compose with the slow network sweep too.
        let got = fingerprint_rank64(version, true, true, false, None, None);
        assert_equivalent(&format!("{label} per-flit network"), &base, &got);
    }
}

/// A Perfect-benchmark code through the full Fortran pipeline: loops,
/// self-scheduling, barriers and sync ops in one real program, where
/// every lowering fixup (branch targets, frame kinds, chunk epochs) has
/// to hold at once.
#[test]
fn perfect_trfd_matches_with_lowering_on() {
    let clusters = 4;
    let src = spec(CodeName::Trfd).to_source();
    let compiled = Restructurer::default().restructure(&src, Level::Automatable);
    let backend = Backend::new(XylemCosts::cedar());
    let run = |lowered: bool| {
        let cfg = MachineConfig::cedar_with_clusters(clusters).with_lowered(lowered);
        let mut m = Machine::new(cfg).unwrap();
        let progs = backend.lower(&compiled, &mut m, clusters);
        let r = m.run(progs, LIMIT).unwrap();
        Fingerprint {
            cycles: r.cycles,
            memory: m.memory_digest(),
            stats: r.stats,
            lowered: m.lowered_enabled(),
        }
    };
    let base = run(false);
    assert!(base.cycles > 0);
    let got = run(true);
    assert_equivalent("perfect TRFD", &base, &got);
}

/// The equivalence survives fault injection: drops and NACKs replay the
/// same retry schedules whether the program is interpreted or lowered,
/// so fault-site sequence counters and recovery stalls stay aligned.
#[test]
fn lowering_matches_interpreter_under_fault_injection() {
    let plan = FaultPlan {
        drop_per_million: 2_000,
        nack_per_million: 1_000,
        ..FaultPlan::none(0xCEDA)
    };
    let version = Rank64Version::GmPrefetch { block_words: 32 };
    let base = fingerprint_rank64(version, false, true, true, Some(plan.clone()), None);
    let got = fingerprint_rank64(version, true, true, true, Some(plan), None);
    assert_equivalent("faulty rank64", &base, &got);
}

/// The equivalence survives journey tracing at CI's sampling rate and
/// at an explicit rate of zero: `trace.*` keys join the registry (and
/// hence the fingerprint), so every journey stamp recorded from a flat
/// stream must equal the interpreter's schedule.
#[test]
fn lowering_matches_interpreter_under_tracing() {
    let version = Rank64Version::GmCache;
    for sample_ppm in [0, 10_000] {
        let plan = TracePlan {
            seed: 0xCEDA,
            sample_ppm,
        };
        let base = fingerprint_rank64(version, false, true, true, None, Some(plan));
        let got = fingerprint_rank64(version, true, true, true, None, Some(plan));
        assert_equivalent(&format!("traced rank64 ppm={sample_ppm}"), &base, &got);
    }
}

/// Journey hop timestamps survive bulk-charged timed runs exactly: the
/// raw trace-event streams are element-for-element identical, and so is
/// the full Chrome export with journeys attached — no collapsed or
/// reordered `TraceEvent`s.
#[test]
fn journey_hop_stamps_survive_bulk_timing() {
    let run = |lowered: bool| {
        let clusters = 4;
        let cfg = MachineConfig::cedar_with_clusters(clusters)
            .with_lowered(lowered)
            .with_trace(TracePlan {
                seed: 0xCEDA,
                sample_ppm: 1_000_000,
            });
        let mut m = Machine::new(cfg).unwrap();
        let progs = Rank64 {
            n: 64,
            k: 64,
            version: Rank64Version::GmPrefetch { block_words: 32 },
        }
        .build(&mut m, clusters);
        let r = m.run(progs, LIMIT).unwrap();
        (r.stats, m)
    };
    let (tree_stats, tree) = run(false);
    let (flat_stats, flat) = run(true);

    let base = tree.trace_events();
    let got = flat.trace_events();
    assert!(!base.is_empty(), "full sampling must catch journeys");
    assert_eq!(base.len(), got.len(), "trace event count drifted");
    if let Some(i) = (0..base.len()).find(|&i| base[i] != got[i]) {
        panic!(
            "trace stream diverges at event {i}:\n  interpreter: {:?}\n  lowered:     {:?}",
            base[i], got[i]
        );
    }
    assert_eq!(
        chrome_trace_with_journeys(tree.timeline(), &tree_stats, 170.0, &tree.trace_journeys()),
        chrome_trace_with_journeys(flat.timeline(), &flat_stats, 170.0, &flat.trace_journeys()),
        "Chrome export with journeys drifted under lowering"
    );
}

/// The dense prefetching Table 1 kernel actually goes through the
/// compiler: the machine reports flat streams enabled, and the cached
/// program metadata shows fusion did real work (its arm+fire pairs
/// glue into `ArmFire` superinstructions, so there are strictly fewer
/// micro-ops than source ops).
#[test]
fn dense_kernel_actually_lowers_and_fuses() {
    let version = Rank64Version::GmPrefetch { block_words: 32 };
    let got = fingerprint_rank64(version, true, true, true, None, None);
    if !lowering_possible() {
        assert!(!got.lowered, "CEDAR_NO_LOWER must force the interpreter");
        return;
    }
    assert!(
        got.lowered,
        "lowering requested and possible, but not enabled"
    );
    let clusters = 4;
    let cfg = MachineConfig::cedar_with_clusters(clusters);
    let mut m = Machine::new(cfg).unwrap();
    let progs = Rank64 {
        n: 64,
        k: 64,
        version,
    }
    .build(&mut m, clusters);
    m.run(progs, LIMIT).unwrap();
    let meta = m.program_meta().expect("a completed run caches metadata");
    assert!(meta.source_ops > 0);
    assert!(
        meta.fused_ops > 0,
        "the prefetching kernel must fuse some of its {} ops",
        meta.source_ops
    );
    // Loops expand (Repeat becomes EnterRepeat..LoopEnd), so the stream
    // is not strictly smaller — but fusion must at least beat the loop
    // overhead's 1-op-per-loop expansion.
    assert!(
        meta.uops < 2 * meta.source_ops,
        "micro-op stream blew up: {} uops from {} ops",
        meta.uops,
        meta.source_ops
    );
    assert!(meta.max_loop_depth >= 3, "rank64 nests three loops deep");
    // The same metadata flows into the stats registry for reports.
    let stats = m.stats();
    let text = flat_text(&stats);
    for key in [
        "program.ops",
        "program.uops",
        "program.fused_ops",
        "program.max_loop_depth",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(key)),
            "stats registry is missing {key}:\n{text}"
        );
    }
}

/// Enabling the VM model forces the interpreter (page faults interleave
/// with fetch in ways the bulk-timed path does not model), and the
/// forced run is bit-identical to an explicit `with_lowered(false)`.
#[test]
fn vm_model_forces_the_interpreter() {
    let run = |lowered: bool| {
        let clusters = 4;
        let mut cfg = MachineConfig::cedar_with_clusters(clusters).with_lowered(lowered);
        cfg.vm.enabled = true;
        let mut m = Machine::new(cfg).unwrap();
        assert!(
            !m.lowered_enabled(),
            "VM runs must fall back to the interpreter (lowered={lowered})"
        );
        let progs = Rank64 {
            n: 32,
            k: 64,
            version: Rank64Version::GmNoPrefetch,
        }
        .build(&mut m, clusters);
        let r = m.run(progs, LIMIT).unwrap();
        Fingerprint {
            cycles: r.cycles,
            memory: m.memory_digest(),
            stats: r.stats,
            lowered: m.lowered_enabled(),
        }
    };
    let base = run(false);
    let got = run(true);
    assert_equivalent("vm forces interpreter", &base, &got);
}
