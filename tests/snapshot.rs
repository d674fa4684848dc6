//! Crash-recovery proof harness for the snapshot subsystem.
//!
//! The checkpoint/restore guarantee is determinism-grade: a run killed
//! at an arbitrary cycle and resumed from its last auto-checkpoint
//! produces the *bit-identical* report — cycle count, memory digest and
//! full stats tree — of the uninterrupted run. These tests kill runs at
//! adversarial points (mid outage window, under fault retries, under
//! journey tracing) across the engine paths: fast-forward on and off,
//! the flow-level network path and its per-flit oracle, tree-walking and
//! lowered execution, and the Fortran pipeline.
//!
//! The second half pins the failure envelope: torn, truncated,
//! corrupted, foreign and future-versioned images — and images restored
//! onto differently shaped machines — are each rejected with a
//! structured `MachineError::Snapshot`, never a panic and never a
//! silent partial restore. A property test drives the corruption case
//! harder: *any* single bit flip anywhere in an image must be caught.

use std::path::PathBuf;

use proptest::prelude::*;

use cedar_fortran::compile::Backend;
use cedar_fortran::restructure::{Level, Restructurer};
use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::ids::CeId;
use cedar_machine::machine::Machine;
use cedar_machine::program::Program;
use cedar_machine::stats::export::flat_text;
use cedar_machine::{
    FaultPlan, LinkOutage, MachineConfig, MachineError, MachineStats, ModuleOutage, TracePlan,
};
use cedar_perfect::codes::{spec, CodeName};
use cedar_xylem::costs::XylemCosts;

const LIMIT: u64 = 1_000_000_000;

/// Everything a run can leak: cycle count, a digest of the persistent
/// memory state, and the full stats-counter tree.
struct Fingerprint {
    cycles: u64,
    memory: u64,
    stats: MachineStats,
}

fn assert_identical(label: &str, base: &Fingerprint, got: &Fingerprint) {
    assert_eq!(
        base.cycles, got.cycles,
        "{label}: resumed run took {} cycles, uninterrupted took {}",
        got.cycles, base.cycles
    );
    assert_eq!(
        base.memory, got.memory,
        "{label}: resumed run left different memory state"
    );
    if base.stats != got.stats {
        let a = flat_text(&base.stats);
        let b = flat_text(&got.stats);
        let diff: Vec<String> = a
            .lines()
            .zip(b.lines())
            .filter(|(x, y)| x != y)
            .map(|(x, y)| format!("  uninterrupted: {x}\n  resumed:       {y}"))
            .collect();
        panic!(
            "{label}: resumed stats tree differs from uninterrupted:\n{}",
            diff.join("\n")
        );
    }
}

/// A per-test scratch snapshot path under the system temp dir, removed
/// on drop so reruns never resume from a stale image.
struct SnapFile(PathBuf);

impl SnapFile {
    fn new(test: &str) -> SnapFile {
        let p = std::env::temp_dir().join(format!("cedar-snap-{}-{test}.bin", std::process::id()));
        let _ = std::fs::remove_file(&p);
        SnapFile(p)
    }
}

impl Drop for SnapFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn build_rank64(m: &mut Machine, clusters: usize, version: Rank64Version) -> Vec<(CeId, Program)> {
    Rank64 {
        n: 64,
        k: 64,
        version,
    }
    .build(m, clusters)
}

fn uninterrupted(cfg: &MachineConfig, clusters: usize, version: Rank64Version) -> Fingerprint {
    let mut m = Machine::new(cfg.clone()).unwrap();
    let progs = build_rank64(&mut m, clusters, version);
    let r = m.run(progs, LIMIT).unwrap();
    Fingerprint {
        cycles: r.cycles,
        memory: m.memory_digest(),
        stats: r.stats,
    }
}

/// The core harness move: kill a checkpointing run at `kill_at` cycles
/// via the cycle limit, assert the crash left a valid image behind, then
/// resume it on a fresh machine and return the resumed fingerprint.
fn kill_then_resume(
    label: &str,
    cfg: &MachineConfig,
    clusters: usize,
    version: Rank64Version,
    every: u64,
    kill_at: u64,
    snap: &SnapFile,
) -> Fingerprint {
    let killed_cfg = cfg.clone().with_checkpoint(every, &snap.0);
    let mut killed = Machine::new(killed_cfg).unwrap();
    let progs = build_rank64(&mut killed, clusters, version);
    match killed.run(progs, kill_at) {
        Err(MachineError::CycleLimitExceeded { .. }) => {}
        other => panic!("{label}: kill run should hit the cycle limit, got {other:?}"),
    }
    drop(killed); // the crash: the mid-run machine is gone
    assert!(
        snap.0.exists(),
        "{label}: no checkpoint file at {} after the kill",
        snap.0.display()
    );

    let mut resumed = Machine::new(cfg.clone()).unwrap();
    let progs = build_rank64(&mut resumed, clusters, version);
    let r = resumed
        .resume_from_file(progs, &snap.0, LIMIT)
        .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
    Fingerprint {
        cycles: r.cycles,
        memory: resumed.memory_digest(),
        stats: r.stats,
    }
}

/// Serial engine: kills at an early, a late and a nearly-done cycle all
/// resume to the uninterrupted fingerprint, and resuming from the same
/// image twice is idempotent.
#[test]
fn serial_kill_and_resume_is_bit_identical() {
    let version = Rank64Version::GmPrefetch { block_words: 32 };
    let cfg = MachineConfig::cedar_with_clusters(4);
    let base = uninterrupted(&cfg, 4, version);
    let t = base.cycles;
    assert!(t > 100, "workload too small to place kills ({t} cycles)");
    let snap = SnapFile::new("serial");
    for kill_at in [t / 3, 2 * t / 3, t - 2] {
        let label = format!("serial kill@{kill_at}/{t}");
        let got = kill_then_resume(&label, &cfg, 4, version, t / 7, kill_at, &snap);
        assert_identical(&label, &base, &got);
    }
    // Idempotence: the image survives a restore and replays identically.
    let image = std::fs::read(&snap.0).unwrap();
    for round in 0..2 {
        let mut m = Machine::new(cfg.clone()).unwrap();
        let progs = build_rank64(&mut m, 4, version);
        let r = m.resume(progs, &image, LIMIT).unwrap();
        let got = Fingerprint {
            cycles: r.cycles,
            memory: m.memory_digest(),
            stats: r.stats,
        };
        assert_identical(&format!("serial re-resume round {round}"), &base, &got);
    }
}

/// Every engine path kills and resumes to the uninterrupted fingerprint:
/// fast-forward on and off, the flow-level network fast path on and off,
/// across memory versions.
#[test]
fn kill_and_resume_is_bit_identical_across_fastforward_and_flow_path() {
    let cases: [(bool, bool, Rank64Version); 4] = [
        (true, true, Rank64Version::GmPrefetch { block_words: 32 }),
        (false, true, Rank64Version::GmCache),
        (true, false, Rank64Version::GmNoPrefetch),
        (true, false, Rank64Version::GmCache),
    ];
    for (fastfwd, flow, version) in cases {
        let cfg = MachineConfig::cedar_with_clusters(4)
            .with_fast_forward(fastfwd)
            .with_flow_path(flow);
        let base = uninterrupted(&cfg, 4, version);
        let t = base.cycles;
        let label = format!("{version:?} fastfwd={fastfwd} flow={flow}");
        let snap = SnapFile::new(&format!("path-{fastfwd}-{flow}-{version:?}"));
        let got = kill_then_resume(&label, &cfg, 4, version, t / 5, 2 * t / 3, &snap);
        assert_identical(&label, &base, &got);
    }
}

/// Lowered execution: the micro-op streams, lowering cache and program
/// metadata all survive the round trip.
#[test]
fn lowered_kill_and_resume_is_bit_identical() {
    let version = Rank64Version::GmPrefetch { block_words: 32 };
    let cfg = MachineConfig::cedar_with_clusters(4).with_lowered(true);
    let base = uninterrupted(&cfg, 4, version);
    let t = base.cycles;
    let snap = SnapFile::new("low");
    let got = kill_then_resume("lowered", &cfg, 4, version, t / 6, t / 2, &snap);
    assert_identical("lowered", &base, &got);
}

/// The adversarial kill: fault injection with drop/NACK rates plus a
/// link outage and a module outage, and journey tracing sampling — the
/// run is killed *inside* the outage window, so the restored image holds
/// in-flight retries, an offline module, a partially filled trace store
/// and open journey spans. Resume must still be bit-identical.
#[test]
fn kill_inside_an_outage_window_under_tracing_resumes_identically() {
    let version = Rank64Version::GmCache;
    // Scout the faultless run length to place the outage windows.
    let t0 = uninterrupted(&MachineConfig::cedar_with_clusters(4), 4, version).cycles;
    let (from, until) = (t0 / 4, 3 * t0 / 4);
    let plan = FaultPlan {
        drop_per_million: 2_000,
        nack_per_million: 1_000,
        link_outages: vec![LinkOutage {
            port: 1,
            from,
            until,
        }],
        module_outages: vec![ModuleOutage {
            module: 0,
            from,
            until,
        }],
        ..FaultPlan::none(7)
    };
    let trace = TracePlan {
        seed: 11,
        sample_ppm: 250_000,
    };
    let cfg = MachineConfig::cedar_with_clusters(4)
        .with_faults(plan)
        .with_trace(trace);
    let base = uninterrupted(&cfg, 4, version);
    let t = base.cycles;
    // Kill mid-window, checkpointing often enough that the restored
    // image was taken inside the window too.
    let kill_at = (from + until) / 2;
    assert!(kill_at < t, "outage window fell past the faulty run's end");
    let every = ((until - from) / 8).max(1);
    let label = format!("faults+trace kill@{kill_at} in [{from},{until})");
    let snap = SnapFile::new("fault");
    let got = kill_then_resume(&label, &cfg, 4, version, every, kill_at, &snap);
    assert_identical(&label, &base, &got);
}

/// The full Fortran pipeline (Perfect TRFD restructured at the
/// automatable level) kills and resumes bit-identically.
#[test]
fn fortran_pipeline_kill_and_resume_is_bit_identical() {
    let clusters = 4;
    let src = spec(CodeName::Trfd).to_source();
    let compiled = Restructurer::default().restructure(&src, Level::Automatable);
    let backend = Backend::new(XylemCosts::cedar());

    let run = |cfg: MachineConfig, snap: Option<(&SnapFile, u64, u64)>| -> Fingerprint {
        let with_ckpt = match snap {
            Some((s, every, _)) => cfg.with_checkpoint(every, &s.0),
            None => cfg,
        };
        let mut m = Machine::new(with_ckpt).unwrap();
        let progs = backend.lower(&compiled, &mut m, clusters);
        match snap {
            None => {
                let r = m.run(progs, 4 * LIMIT).unwrap();
                Fingerprint {
                    cycles: r.cycles,
                    memory: m.memory_digest(),
                    stats: r.stats,
                }
            }
            Some((s, _, kill_at)) => {
                match m.run(progs, kill_at) {
                    Err(MachineError::CycleLimitExceeded { .. }) => {}
                    other => panic!("TRFD kill run should hit the limit, got {other:?}"),
                }
                drop(m);
                let mut resumed =
                    Machine::new(MachineConfig::cedar_with_clusters(clusters)).unwrap();
                let progs = backend.lower(&compiled, &mut resumed, clusters);
                let r = resumed.resume_from_file(progs, &s.0, 4 * LIMIT).unwrap();
                Fingerprint {
                    cycles: r.cycles,
                    memory: resumed.memory_digest(),
                    stats: r.stats,
                }
            }
        }
    };

    let base = run(MachineConfig::cedar_with_clusters(clusters), None);
    let t = base.cycles;
    let snap = SnapFile::new("trfd");
    let got = run(
        MachineConfig::cedar_with_clusters(clusters),
        Some((&snap, t / 5, 2 * t / 3)),
    );
    assert_identical("perfect TRFD", &base, &got);
}

/// Between-runs archival: `checkpoint` a finished machine, `restore` the
/// image onto a sibling that was killed halfway (so its state provably
/// differs — the serialized cycle counter alone separates them), and the
/// sibling must come back byte-for-byte: its own re-checkpoint
/// reproduces the original image exactly.
#[test]
fn between_run_checkpoint_restores_byte_identically() {
    let version = Rank64Version::GmPrefetch { block_words: 32 };
    let cfg = MachineConfig::cedar_with_clusters(2);

    let mut a = Machine::new(cfg.clone()).unwrap();
    let progs_a = build_rank64(&mut a, 2, version);
    let t = a.run(progs_a, LIMIT).unwrap().cycles;
    let mut image_a = Vec::new();
    a.checkpoint(&mut image_a).unwrap();

    let mut b = Machine::new(cfg).unwrap();
    let progs_b = build_rank64(&mut b, 2, version);
    assert!(matches!(
        b.run(progs_b, t / 2),
        Err(MachineError::CycleLimitExceeded { .. })
    ));
    let mut before = Vec::new();
    b.checkpoint(&mut before).unwrap();
    assert_ne!(
        before, image_a,
        "a half-finished machine should checkpoint differently"
    );

    b.restore(&mut &image_a[..]).unwrap();
    assert_eq!(a.memory_digest(), b.memory_digest());
    let mut after = Vec::new();
    b.checkpoint(&mut after).unwrap();
    assert_eq!(
        image_a, after,
        "restored machine should re-checkpoint to the identical image"
    );
}

/// A valid mid-run image for the rejection tests, plus the config that
/// wrote it.
fn reference_image() -> (Vec<u8>, MachineConfig) {
    let version = Rank64Version::GmPrefetch { block_words: 32 };
    let cfg = MachineConfig::cedar_with_clusters(2);
    let snap = SnapFile::new("reference");
    let t = uninterrupted(&cfg, 2, version).cycles;
    let killed_cfg = cfg.clone().with_checkpoint(t / 4, &snap.0);
    let mut m = Machine::new(killed_cfg).unwrap();
    let progs = build_rank64(&mut m, 2, version);
    assert!(matches!(
        m.run(progs, t / 2),
        Err(MachineError::CycleLimitExceeded { .. })
    ));
    (std::fs::read(&snap.0).unwrap(), cfg)
}

fn expect_snapshot_err(result: Result<(), MachineError>, needle: &str, label: &str) {
    match result {
        Err(MachineError::Snapshot(msg)) => assert!(
            msg.contains(needle),
            "{label}: error should mention {needle:?}, got {msg:?}"
        ),
        other => panic!("{label}: expected a snapshot error, got {other:?}"),
    }
}

/// Torn, truncated, foreign and future-versioned images are rejected
/// with distinct structured errors before any machine state is touched.
#[test]
fn damaged_images_are_rejected_with_structured_errors() {
    let (image, cfg) = reference_image();
    let mut m = Machine::new(cfg).unwrap();

    let header_short = &image[..20];
    expect_snapshot_err(
        m.restore(&mut &header_short[..]),
        "too short",
        "header-truncated",
    );

    let torn = &image[..image.len() - 7];
    expect_snapshot_err(m.restore(&mut &torn[..]), "torn file", "payload-truncated");

    let mut foreign = image.clone();
    foreign[..8].copy_from_slice(b"NOTCEDAR");
    expect_snapshot_err(m.restore(&mut &foreign[..]), "bad magic", "foreign magic");

    let mut future = image.clone();
    future[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    expect_snapshot_err(
        m.restore(&mut &future[..]),
        "format version",
        "future version",
    );

    let mut corrupt = image.clone();
    let mid = 28 + (corrupt.len() - 28) / 2;
    corrupt[mid] ^= 0x40;
    expect_snapshot_err(
        m.restore(&mut &corrupt[..]),
        "checksum mismatch",
        "corrupted payload",
    );
}

/// Structural disagreements — a differently shaped machine, missing
/// programs, an image with no run context — get named errors, not
/// garbage state.
#[test]
fn mismatched_machines_are_rejected_with_named_errors() {
    let (image, cfg) = reference_image();

    // Wrong cluster count.
    let mut wrong = Machine::new(MachineConfig::cedar_with_clusters(4)).unwrap();
    expect_snapshot_err(
        wrong.restore(&mut &image[..]),
        "cluster count",
        "shape mismatch",
    );

    // Right shape, but no programs loaded: a mid-run image cannot land on
    // an idle machine.
    let mut idle = Machine::new(cfg.clone()).unwrap();
    expect_snapshot_err(
        idle.restore(&mut &image[..]),
        "engine slots",
        "programs missing",
    );

    // A between-runs archive image holds no run context to resume.
    let version = Rank64Version::GmPrefetch { block_words: 32 };
    let mut done = Machine::new(cfg.clone()).unwrap();
    let progs = build_rank64(&mut done, 2, version);
    done.run(progs, LIMIT).unwrap();
    let mut archive = Vec::new();
    done.checkpoint(&mut archive).unwrap();
    let mut m = Machine::new(cfg).unwrap();
    let progs = build_rank64(&mut m, 2, version);
    match m.resume(progs, &archive, LIMIT) {
        Err(MachineError::Snapshot(msg)) => assert!(
            msg.contains("no run context"),
            "resume of an archive image: got {msg:?}"
        ),
        other => panic!("resume of an archive image should fail, got {other:?}"),
    }
}

proptest! {
    // One machine build per case; restore rejects corrupt images at the
    // header, before touching any state.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single bit flip anywhere in a snapshot image — header, length
    /// field, checksum or payload — is caught by validation: restore
    /// returns a structured error, never Ok and never a panic.
    #[test]
    fn any_single_bit_flip_is_rejected(pos_seed in 0u64..1_000_000, bit in 0usize..8) {
        use std::sync::OnceLock;
        static IMAGE: OnceLock<(Vec<u8>, MachineConfig)> = OnceLock::new();
        let (image, cfg) = IMAGE.get_or_init(reference_image);
        let mut flipped = image.clone();
        let pos = (pos_seed as usize) % flipped.len();
        flipped[pos] ^= 1 << bit;
        let mut m = Machine::new(cfg.clone()).unwrap();
        let r = m.restore(&mut &flipped[..]);
        prop_assert!(
            matches!(r, Err(MachineError::Snapshot(_))),
            "bit {bit} of byte {pos} flipped, restore returned {r:?}"
        );
    }
}
