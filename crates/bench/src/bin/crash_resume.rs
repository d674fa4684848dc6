//! Crash-recovery bench: kill checkpointing runs and prove the resumed
//! runs are bit-identical to uninterrupted ones.
//!
//! Two kill mechanisms on a Table 1 workload (rank-64 GM/cache, four
//! clusters):
//!
//! * **in-process** — the run is cut off at an adversarial cycle via the
//!   cycle limit, the machine is dropped mid-run, and a fresh machine
//!   resumes from the auto-checkpoint;
//! * **sigkill** — the binary re-execs itself as a child running the
//!   same workload with auto-checkpointing, waits for a snapshot file to
//!   appear, and SIGKILLs the child (a real crash: no destructors, no
//!   flushing), then resumes from whatever image the dead process left.
//!   The row records whether the child was still running just before
//!   the kill and the cycle of the image the resume restored, so the
//!   artifact shows the kill landed mid-run.
//!
//! Both must reproduce the uninterrupted run's cycle count, memory
//! digest and full stats tree. Writes `BENCH_crash_resume.json`;
//! `bench_history --check` gates on every point matching and on a
//! SIGKILL that hit a live child mid-run. `--smoke` shrinks the workload
//! for CI.

use std::path::{Path, PathBuf};

use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::ids::CeId;
use cedar_machine::machine::Machine;
use cedar_machine::program::Program;
use cedar_machine::{MachineConfig, MachineError, MachineStats};

const LIMIT: u64 = 2_000_000_000;
const CLUSTERS: usize = 4;

fn build(m: &mut Machine, n: u32) -> Vec<(CeId, Program)> {
    Rank64 {
        n,
        k: 64,
        version: Rank64Version::GmCache,
    }
    .build(m, CLUSTERS)
}

fn cfg() -> MachineConfig {
    MachineConfig::cedar_with_clusters(CLUSTERS)
}

struct Fingerprint {
    cycles: u64,
    memory: u64,
    stats: MachineStats,
}

fn uninterrupted(n: u32) -> Fingerprint {
    let mut m = Machine::new(cfg()).expect("machine");
    let progs = build(&mut m, n);
    let r = m.run(progs, LIMIT).expect("baseline run");
    Fingerprint {
        cycles: r.cycles,
        memory: m.memory_digest(),
        stats: r.stats,
    }
}

fn resume(n: u32, snap: &Path) -> Fingerprint {
    let mut m = Machine::new(cfg()).expect("machine");
    let progs = build(&mut m, n);
    let r = m
        .resume_from_file(progs, snap, LIMIT)
        .expect("resume from the crashed run's snapshot");
    Fingerprint {
        cycles: r.cycles,
        memory: m.memory_digest(),
        stats: r.stats,
    }
}

/// The cycle a crashed run's snapshot was taken at: a resume under a
/// zero cycle budget restores the image and stops before its first tick,
/// leaving `Machine::now()` at the restored cycle.
fn snapshot_cycle(n: u32, snap: &Path) -> u64 {
    let mut m = Machine::new(cfg()).expect("machine");
    let progs = build(&mut m, n);
    match m.resume_from_file(progs, snap, 0) {
        Err(MachineError::CycleLimitExceeded { .. }) => m.now().0,
        other => panic!("zero-budget resume should stop at once, got {other:?}"),
    }
}

struct Point {
    mode: &'static str,
    /// In-process: the cycle limit the run was cut off at. SIGKILL: the
    /// cycle of the image the resume restored (the child was at or past
    /// it when killed).
    kill_cycle: u64,
    /// SIGKILL only: the child was still running just before `kill()`.
    /// Always true in-process, where the kill is the cycle limit.
    child_alive_at_kill: bool,
    baseline_cycles: u64,
    resumed_cycles: u64,
    digest_match: bool,
    stats_match: bool,
}

impl Point {
    fn ok(&self) -> bool {
        self.digest_match && self.stats_match && self.resumed_cycles == self.baseline_cycles
    }
}

fn point(
    mode: &'static str,
    kill_cycle: u64,
    child_alive_at_kill: bool,
    base: &Fingerprint,
    got: &Fingerprint,
) -> Point {
    Point {
        mode,
        kill_cycle,
        child_alive_at_kill,
        baseline_cycles: base.cycles,
        resumed_cycles: got.cycles,
        digest_match: base.memory == got.memory,
        stats_match: base.stats == got.stats,
    }
}

/// In-process crash: cut the run off at `kill_at` via the cycle limit,
/// drop the machine, resume from the checkpoint file.
fn in_process(n: u32, base: &Fingerprint, snap: &Path) -> Point {
    let kill_at = 2 * base.cycles / 3;
    let every = (base.cycles / 9).max(1);
    let _ = std::fs::remove_file(snap);
    let mut m = Machine::new(cfg().with_checkpoint(every, snap)).expect("machine");
    let progs = build(&mut m, n);
    match m.run(progs, kill_at) {
        Err(MachineError::CycleLimitExceeded { .. }) => {}
        other => panic!("kill run should hit the cycle limit, got {other:?}"),
    }
    drop(m);
    assert!(snap.exists(), "no checkpoint after the in-process kill");
    let got = resume(n, snap);
    let p = point("in-process", kill_at, true, base, &got);
    let _ = std::fs::remove_file(snap);
    p
}

/// Real crash: re-exec this binary as a child running the workload with
/// auto-checkpointing, SIGKILL it once a snapshot exists, resume here.
fn sigkill(n: u32, base: &Fingerprint, snap: &Path) -> Point {
    let every = (base.cycles / 9).max(1);
    let _ = std::fs::remove_file(snap);
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .args([
            "--child",
            snap.to_str().expect("utf-8 snap path"),
            &n.to_string(),
            &every.to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child");
    // Wait for the first auto-checkpoint to land (atomic rename: a
    // visible file is always complete), then kill without ceremony.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while !snap.exists() {
        if let Some(status) = child.try_wait().expect("try_wait") {
            // The child finished before we could kill it: the snapshot
            // of its last interval is still on disk and resume must
            // still reproduce the run — unless it never checkpointed.
            assert!(
                status.success() && snap.exists(),
                "child exited ({status}) without leaving a snapshot"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "child produced no snapshot within the deadline"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let alive = child.try_wait().expect("try_wait").is_none();
    let _ = child.kill(); // SIGKILL on unix: the process gets no say
    let _ = child.wait();
    let kill_cycle = snapshot_cycle(n, snap);
    let got = resume(n, snap);
    let p = point("sigkill", kill_cycle, alive, base, &got);
    let _ = std::fs::remove_file(snap);
    p
}

/// Child mode for the sigkill scenario: run the workload with
/// auto-checkpointing until killed.
fn child_main(args: &[String]) -> ! {
    let snap = PathBuf::from(&args[0]);
    let n: u32 = args[1].parse().expect("n");
    let every: u64 = args[2].parse().expect("every");
    let mut m = Machine::new(cfg().with_checkpoint(every, &snap)).expect("machine");
    let progs = build(&mut m, n);
    m.run(progs, LIMIT).expect("child run");
    std::process::exit(0);
}

fn json(smoke: bool, points: &[Point]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"crash_resume\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n  \"points\": [\n"));
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"mode\": \"{}\",\n",
                    "      \"kill_cycle\": {},\n",
                    "      \"child_alive_at_kill\": {},\n",
                    "      \"baseline_cycles\": {},\n",
                    "      \"resumed_cycles\": {},\n",
                    "      \"digest_match\": {},\n",
                    "      \"stats_match\": {}\n",
                    "    }}"
                ),
                p.mode,
                p.kill_cycle,
                p.child_alive_at_kill,
                p.baseline_cycles,
                p.resumed_cycles,
                p.digest_match,
                p.stats_match,
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        child_main(&args[1..]);
    }
    let smoke = args.iter().any(|a| a == "--smoke") || cedar_bench::quick();
    let n = if smoke { 64 } else { 128 };
    eprintln!("crash_resume: baseline (n = {n})...");
    let base = uninterrupted(n);
    let snap = std::env::temp_dir().join(format!("cedar-crash-resume-{}.snap", std::process::id()));
    eprintln!(
        "crash_resume: in-process kill at 2/3 of {} cycles...",
        base.cycles
    );
    let in_proc = in_process(n, &base, &snap);
    eprintln!("crash_resume: SIGKILL of a checkpointing child...");
    let points = [in_proc, sigkill(n, &base, &snap)];
    for p in &points {
        eprintln!(
            "crash_resume: {} kill@{} (child alive: {}): cycles {} -> {}, digest {}, stats {}",
            p.mode,
            p.kill_cycle,
            p.child_alive_at_kill,
            p.baseline_cycles,
            p.resumed_cycles,
            if p.digest_match { "match" } else { "MISMATCH" },
            if p.stats_match { "match" } else { "MISMATCH" },
        );
    }
    std::fs::write("BENCH_crash_resume.json", json(smoke, &points)).expect("write artifact");
    eprintln!("wrote BENCH_crash_resume.json");
    if points.iter().any(|p| !p.ok()) {
        eprintln!("crash_resume: FAILED — resumed run differs from uninterrupted run");
        std::process::exit(1);
    }
    eprintln!("crash_resume: all {} points bit-identical", points.len());
}
