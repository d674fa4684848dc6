//! Equivalence tests for the event-horizon fast-forward.
//!
//! The fast-forward path (`MachineConfig::fast_forward`, on by default)
//! skips cycles in which no subsystem can change externally visible
//! state, bulk-crediting them into the same counters a cycle-by-cycle run
//! would have bumped. Its contract is *bit-for-bit* equivalence: the same
//! cycle count, the same final memory digest and the same full stats tree
//! as a run with skipping disabled. These tests pin that contract on the paper's Table 1 rows, on a Perfect code
//! through the Fortran pipeline, and on synthetic barrier-heavy programs
//! built to maximize quiescent stretches.

use cedar_fortran::compile::Backend;
use cedar_fortran::restructure::{Level, Restructurer};
use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::ids::CeId;
use cedar_machine::machine::Machine;
use cedar_machine::program::{MemOperand, Op, Program, ProgramBuilder, VectorOp};
use cedar_machine::sched::BarrierScope;
use cedar_machine::stats::export::flat_text;
use cedar_machine::{ClusterId, MachineConfig, MachineStats};
use cedar_perfect::codes::{spec, CodeName};
use cedar_xylem::costs::XylemCosts;

const LIMIT: u64 = 1_000_000_000;

/// `CEDAR_NO_FASTFWD=1` (a CI matrix leg) overrides the config flag, so
/// "fast-forward on" runs silently stop skipping. The *equivalence*
/// assertions must hold on every leg; the "actually skipped" assertions
/// only apply when skipping is possible at all.
fn skipping_possible() -> bool {
    !cedar_machine::config::fastfwd_disabled_from_env()
}

/// Everything a run can leak about its execution, plus how many cycles
/// the fast-forward jumped over while producing it.
struct Fingerprint {
    cycles: u64,
    memory: u64,
    stats: MachineStats,
    skipped: u64,
}

/// Compare a fast-forwarded run against the unskipped baseline, with a
/// readable counter diff on mismatch.
fn assert_equivalent(label: &str, base: &Fingerprint, got: &Fingerprint) {
    assert_eq!(
        base.cycles, got.cycles,
        "{label}: fast-forward run took {} cycles, baseline took {}",
        got.cycles, base.cycles
    );
    assert_eq!(
        base.memory, got.memory,
        "{label}: fast-forward run left different memory state"
    );
    if base.stats != got.stats {
        let baseline = flat_text(&base.stats);
        let fast = flat_text(&got.stats);
        let diff: Vec<String> = baseline
            .lines()
            .zip(fast.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("  baseline:     {a}\n  fast-forward: {b}"))
            .collect();
        panic!(
            "{label}: fast-forward stats tree differs from baseline:\n{}",
            diff.join("\n")
        );
    }
}

fn fingerprint_run(
    cfg: MachineConfig,
    build: impl FnOnce(&mut Machine) -> Vec<(CeId, Program)>,
) -> Fingerprint {
    let mut m = Machine::new(cfg).unwrap();
    let progs = build(&mut m);
    let r = m.run(progs, LIMIT).unwrap();
    Fingerprint {
        cycles: r.cycles,
        memory: m.memory_digest(),
        stats: r.stats,
        skipped: m.fastforward_skipped_cycles(),
    }
}

fn run_rank64(version: Rank64Version, fast_forward: bool) -> Fingerprint {
    let clusters = 4;
    let cfg = MachineConfig::cedar_with_clusters(clusters).with_fast_forward(fast_forward);
    fingerprint_run(cfg, |m| {
        Rank64 {
            n: 64,
            k: 64,
            version,
        }
        .build(m, clusters)
    })
}

/// Every Table 1 memory version produces a bit-identical fingerprint with
/// fast-forward on.
#[test]
fn table1_rows_match_with_fastforward_on() {
    for version in [
        Rank64Version::GmNoPrefetch,
        Rank64Version::GmPrefetch { block_words: 32 },
        Rank64Version::GmCache,
    ] {
        let label = format!("table1 {version:?}");
        let base = run_rank64(version, false);
        assert_eq!(base.skipped, 0, "{label}: baseline must not skip");
        let got = run_rank64(version, true);
        assert_equivalent(&label, &base, &got);
    }
}

/// A barrier-heavy synthetic: each round, one CE per cluster computes for
/// thousands of cycles while its seven siblings wait at a cluster
/// barrier. Almost the entire run is quiescent, so this both maximizes
/// what fast-forward can get wrong and proves it actually skips.
fn barrier_storm(m: &mut Machine, rounds: u32, work: u32) -> Vec<(CeId, Program)> {
    let clusters = m.config().clusters;
    let cpc = m.config().ces_per_cluster;
    let bars: Vec<_> = (0..clusters)
        .map(|c| m.alloc_barrier(BarrierScope::Cluster(ClusterId(c)), cpc as u32))
        .collect();
    let mut progs = Vec::new();
    for ce in 0..clusters * cpc {
        let cluster = ce / cpc;
        let mut b = ProgramBuilder::new();
        b.repeat(rounds, |b| {
            // Rotate the long worker so every CE takes turns stalling the
            // others (and the waiters' credit lands on every engine).
            if ce % cpc == 0 {
                b.scalar(work);
            } else {
                b.vector(VectorOp {
                    length: 16,
                    flops_per_element: 2,
                    operand: MemOperand::None,
                });
            }
            b.push(Op::Barrier {
                barrier: bars[cluster],
            });
        });
        progs.push((CeId(ce), b.build()));
    }
    progs
}

fn run_barrier_storm(fast_forward: bool) -> Fingerprint {
    let cfg = MachineConfig::cedar().with_fast_forward(fast_forward);
    fingerprint_run(cfg, |m| barrier_storm(m, 20, 4_000))
}

/// The barrier storm is bit-identical with fast-forward on — and the
/// skip counter confirms the fast path actually ran.
#[test]
fn barrier_storm_matches_and_actually_skips() {
    let base = run_barrier_storm(false);
    assert_eq!(base.skipped, 0);
    let got = run_barrier_storm(true);
    assert_equivalent("barrier storm", &base, &got);
    if skipping_possible() {
        assert!(
            got.skipped > base.cycles / 2,
            "barrier storm should be mostly skippable: skipped {} of {} cycles",
            got.skipped,
            base.cycles
        );
    }
}

/// Global barriers poll memory with exponential backoff; the stretches
/// between polls are exactly the kind of short quiescent window the
/// chunked skip has to credit correctly (CE stall attribution, module
/// queues, timeline buckets).
#[test]
fn global_barrier_imbalance_matches() {
    let run = |fast_forward: bool| {
        let cfg = MachineConfig::cedar().with_fast_forward(fast_forward);
        fingerprint_run(cfg, |m| {
            let total = m.config().total_ces();
            let barrier = m.alloc_barrier(BarrierScope::Global, total as u32);
            let mut progs = Vec::new();
            for ce in 0..total {
                let mut b = ProgramBuilder::new();
                b.repeat(4, |b| {
                    if ce == 0 {
                        b.scalar(20_000);
                    }
                    b.push(Op::Barrier { barrier });
                });
                progs.push((CeId(ce), b.build()));
            }
            progs
        })
    };
    let base = run(false);
    let got = run(true);
    assert_equivalent("global barrier imbalance", &base, &got);
    if skipping_possible() {
        assert!(got.skipped > 0, "imbalanced global barrier should skip");
    }
}

fn run_perfect(fast_forward: bool) -> Fingerprint {
    let clusters = 4;
    let src = spec(CodeName::Trfd).to_source();
    let compiled = Restructurer::default().restructure(&src, Level::Automatable);
    let backend = Backend::new(XylemCosts::cedar());
    let cfg = MachineConfig::cedar_with_clusters(clusters).with_fast_forward(fast_forward);
    fingerprint_run(cfg, |m| backend.lower(&compiled, m, clusters))
}

/// A Perfect-benchmark code through the full Fortran pipeline: the
/// fingerprint with fast-forward on equals the unskipped baseline.
#[test]
fn perfect_trfd_matches_with_fastforward_on() {
    let base = run_perfect(false);
    assert!(base.cycles > 0);
    let got = run_perfect(true);
    assert_equivalent("perfect TRFD", &base, &got);
}
