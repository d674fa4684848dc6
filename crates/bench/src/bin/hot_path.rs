//! Busy-cycle throughput: simulated cycles per wall second on dense
//! kernels with fast-forward disabled.
//!
//! The event-horizon fast-forward (PR 3) made quiescent time nearly free,
//! so the remaining simulator-performance frontier is the busy cycle: the
//! per-tick cost when every subsystem is active. This bin pins that cost
//! on the paper's dense memory-system kernels — the rank-64 update (cache
//! and prefetch versions), the staged CG iteration and the banded
//! matrix–vector multiply — run cycle-by-cycle (fast-forward off via
//! config, so the numbers measure the tick loop, not the skip path).
//!
//! Results go to `BENCH_hotpath.json`. The file carries two sections:
//! `baseline` (the pre-overhaul tick loop, recorded once with `--rebase`)
//! and `current` (this build). Because the hot-path overhaul is bit-for-bit
//! invisible, the simulated cycle counts in both sections must be
//! identical — the bin asserts zero drift against the recorded baseline —
//! while the wall-clock columns show what the overhaul bought.
//!
//! Each `current` kernel also times the per-flit oracle sweep (flow-level
//! network fast path off) on the same workload, asserting bit-identical
//! cycles and memory digests across the two paths, and records
//! `cycles_per_sec_flowpath_off` plus the quotient `flowpath_speedup` —
//! what the flow path alone contributes on top of the other overhauls.
//! A third timed leg disables program lowering (the tree-walking
//! interpreter instead of flat micro-op streams), asserts the same
//! bit-identity, and records `cycles_per_sec_lowered_off` plus
//! `lowered_speedup` — what the lowering pipeline alone contributes.
//!
//! `--smoke` shrinks the workloads for CI. Wall-clock numbers are
//! reported, never asserted, so CI stays flake-free; the cross-path
//! cycle/digest identities are asserted in both modes.

use std::time::Instant;

use cedar_kernels::staged::banded::BandedMatvec;
use cedar_kernels::staged::cg::StagedCg;
use cedar_kernels::staged::rank64::{effective_peak_program, Rank64, Rank64Version};
use cedar_machine::ids::CeId;
use cedar_machine::machine::Machine;
use cedar_machine::program::Program;
use cedar_machine::MachineConfig;

/// Builds a kernel's per-CE programs against a fresh machine.
type ProgramBuilder = Box<dyn Fn(&mut Machine) -> Vec<(CeId, Program)>>;

/// A dense kernel the study drives, as a builder of per-CE programs.
struct Workload {
    name: &'static str,
    /// Timed repetitions (fixed per profile so total simulated cycles are
    /// reproducible; full-mode counts give each kernel several wall
    /// seconds).
    reps: u32,
    build: ProgramBuilder,
}

/// One kernel's timed run.
struct Measurement {
    name: &'static str,
    simulated_cycles: u64,
    wall_seconds: f64,
    /// Wall seconds for the same workload with the flow-level network
    /// fast path off (the per-flit oracle sweep), extrapolated to the
    /// same repetition count. `None` for re-emitted baseline entries,
    /// which predate the flow path.
    flowpath_off_wall_seconds: Option<f64>,
    /// Wall seconds for the same workload with program lowering off
    /// (the tree-walking interpreter), extrapolated to the same
    /// repetition count. `None` for re-emitted baseline entries, which
    /// predate the lowering pipeline.
    lowered_off_wall_seconds: Option<f64>,
}

impl Measurement {
    fn cycles_per_sec(&self) -> f64 {
        self.simulated_cycles as f64 / self.wall_seconds.max(1e-9)
    }

    /// What the flow path buys on this kernel: oracle wall over flow-path
    /// wall (equivalently the rate quotient, since the cycle counts are
    /// identical by construction).
    fn flowpath_speedup(&self) -> Option<f64> {
        self.flowpath_off_wall_seconds
            .map(|off| off / self.wall_seconds.max(1e-9))
    }

    /// What program lowering buys on this kernel: interpreter wall over
    /// lowered wall.
    fn lowered_speedup(&self) -> Option<f64> {
        self.lowered_off_wall_seconds
            .map(|off| off / self.wall_seconds.max(1e-9))
    }

    fn json(&self, speedup: Option<f64>) -> String {
        let speedup_field = match speedup {
            Some(s) => format!(",\n        \"speedup_vs_baseline\": {s:.3}"),
            None => String::new(),
        };
        let flow_fields = match self.flowpath_off_wall_seconds {
            Some(off) => format!(
                concat!(
                    ",\n        \"cycles_per_sec_flowpath_off\": {:.1},\n",
                    "        \"flowpath_speedup\": {:.3}"
                ),
                self.simulated_cycles as f64 / off.max(1e-9),
                self.flowpath_speedup().unwrap_or(0.0),
            ),
            None => String::new(),
        };
        let lower_fields = match self.lowered_off_wall_seconds {
            Some(off) => format!(
                concat!(
                    ",\n        \"cycles_per_sec_lowered_off\": {:.1},\n",
                    "        \"lowered_speedup\": {:.3}"
                ),
                self.simulated_cycles as f64 / off.max(1e-9),
                self.lowered_speedup().unwrap_or(0.0),
            ),
            None => String::new(),
        };
        format!(
            concat!(
                "      {{\n",
                "        \"name\": \"{}\",\n",
                "        \"simulated_cycles\": {},\n",
                "        \"wall_seconds\": {:.6},\n",
                "        \"cycles_per_sec\": {:.1}{}{}{}\n",
                "      }}"
            ),
            self.name,
            self.simulated_cycles,
            self.wall_seconds,
            self.cycles_per_sec(),
            flow_fields,
            lower_fields,
            speedup_field,
        )
    }
}

/// A kernel entry parsed back out of an existing `BENCH_hotpath.json`.
struct BaselineEntry {
    name: String,
    simulated_cycles: u64,
    wall_seconds: f64,
    cycles_per_sec: f64,
}

/// The dense-kernel profile. `smoke` shrinks every size for CI.
fn workloads(smoke: bool) -> Vec<Workload> {
    let clusters = 4;
    let rank_n: u32 = if smoke { 64 } else { 128 };
    let cg_n: u64 = if smoke { 2_048 } else { 16_384 };
    let banded_n: u64 = if smoke { 2_048 } else { 16_384 };
    let reps = |full: u32| if smoke { 1 } else { full };
    vec![
        Workload {
            name: "rank64_gm_cache",
            reps: reps(25),
            build: Box::new(move |m| {
                Rank64 {
                    n: rank_n,
                    k: 64,
                    version: Rank64Version::GmCache,
                }
                .build(m, clusters)
            }),
        },
        Workload {
            name: "rank64_gm_prefetch",
            reps: reps(8),
            build: Box::new(move |m| {
                Rank64 {
                    n: rank_n,
                    k: 64,
                    version: Rank64Version::GmPrefetch { block_words: 32 },
                }
                .build(m, clusters)
            }),
        },
        Workload {
            // The paper's effective-peak calibration: every CE runs the
            // register-only rank-64 inner loops (no memory operands), so
            // the busy cycle is pure CE issue and dispatch — the
            // component program lowering targets. The memory-bound
            // kernels above converge across the lowering hatch (their
            // wall clock is network and module movement, identical on
            // both paths); this row is where the lowered floor is gated.
            name: "rank64_peak",
            reps: reps(6),
            build: Box::new(move |m| {
                let ces = 4 * m.config().ces_per_cluster;
                (0..ces)
                    .map(|ce| (CeId(ce), effective_peak_program(rank_n, 64)))
                    .collect()
            }),
        },
        Workload {
            name: "cg_iteration",
            reps: reps(8),
            build: Box::new(move |m| StagedCg::new(cg_n).build(m, clusters * 8)),
        },
        Workload {
            name: "banded_bw11",
            reps: reps(12),
            build: Box::new(move |m| BandedMatvec::new(banded_n, 11).build(m, clusters)),
        },
    ]
}

/// Run one workload cycle-by-cycle with the flow-level network fast path
/// and program lowering on or off, returning the fingerprint the drift
/// assertions compare.
fn run_workload(w: &Workload, flow: bool, lowered: bool) -> (u64, u64, u64) {
    let cfg = MachineConfig::cedar_with_clusters(4)
        .with_fast_forward(false)
        .with_flow_path(flow)
        .with_lowered(lowered);
    let mut m = Machine::new(cfg).expect("cedar config");
    let progs = (w.build)(&mut m);
    let r = m.run(progs, 2_000_000_000).expect("kernel run");
    (r.cycles, r.flops, m.memory_digest())
}

fn measure(w: &Workload, smoke: bool) -> Measurement {
    eprintln!("  {}: cycle-by-cycle x{}...", w.name, w.reps);
    let mut cycles = 0;
    let mut reference = (0, 0, 0);
    let mut best = f64::INFINITY;
    for _ in 0..w.reps {
        let t = Instant::now();
        reference = run_workload(w, true, true);
        cycles += reference.0;
        best = best.min(t.elapsed().as_secs_f64());
    }
    // Time the per-flit oracle (flow path off) on the same workload.
    // Fewer repetitions suffice: the min-of-reps estimator converges
    // fast, and the flowpath_speedup column is informational while the
    // cross-path cycle/digest identity below is the hard assertion.
    let off_reps = if smoke { 1 } else { (w.reps / 4).max(2) };
    eprintln!("  {}: per-flit oracle x{off_reps}...", w.name);
    let mut best_off = f64::INFINITY;
    for _ in 0..off_reps {
        let t = Instant::now();
        let oracle = run_workload(w, false, true);
        best_off = best_off.min(t.elapsed().as_secs_f64());
        assert_eq!(
            reference, oracle,
            "{}: flow path drifted from the per-flit oracle",
            w.name
        );
    }
    // Time the tree-walking interpreter (lowering off) on the same
    // workload, with the same hard cross-path identity assertion.
    eprintln!("  {}: interpreter x{off_reps}...", w.name);
    let mut best_interp = f64::INFINITY;
    for _ in 0..off_reps {
        let t = Instant::now();
        let interp = run_workload(w, true, false);
        best_interp = best_interp.min(t.elapsed().as_secs_f64());
        assert_eq!(
            reference, interp,
            "{}: lowered streams drifted from the interpreter",
            w.name
        );
    }
    // Report the best (least-interfered) repetition extrapolated to all
    // reps: on a shared host the minimum is the standard noise-resistant
    // estimator of what the simulator can actually sustain.
    Measurement {
        name: w.name,
        simulated_cycles: cycles,
        wall_seconds: best * f64::from(w.reps),
        flowpath_off_wall_seconds: Some(best_off * f64::from(w.reps)),
        lowered_off_wall_seconds: Some(best_interp * f64::from(w.reps)),
    }
}

/// Extract the `"baseline": { ... }` object from a previous run's JSON
/// (the emitter's layout is fixed, so brace matching suffices).
fn baseline_section(json: &str) -> Option<&str> {
    let start = json.find("\"baseline\": {")?;
    let open = start + "\"baseline\": ".len();
    let bytes = json.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[open..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parse kernel entries out of a baseline section. Field layout matches
/// the emitter in [`Measurement::json`].
fn parse_baseline(section: &str) -> Vec<BaselineEntry> {
    fn field<'a>(chunk: &'a str, key: &str) -> Option<&'a str> {
        let at = chunk.find(key)? + key.len();
        let rest = &chunk[at..];
        let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"'))
    }
    let mut out = Vec::new();
    for chunk in section.split("\"name\":").skip(1) {
        let name = chunk.split('"').nth(1).unwrap_or_default().to_string();
        let cycles = field(chunk, "\"simulated_cycles\":").and_then(|v| v.parse().ok());
        let wall = field(chunk, "\"wall_seconds\":").and_then(|v| v.parse().ok());
        let cps = field(chunk, "\"cycles_per_sec\":").and_then(|v| v.parse().ok());
        if let (Some(simulated_cycles), Some(wall_seconds), Some(cycles_per_sec)) =
            (cycles, wall, cps)
        {
            out.push(BaselineEntry {
                name,
                simulated_cycles,
                wall_seconds,
                cycles_per_sec,
            });
        }
    }
    out
}

fn section_json(label: &str, body: &[String]) -> String {
    format!(
        "{{\n    \"label\": \"{label}\",\n    \"kernels\": [\n{}\n    ]\n  }}",
        body.join(",\n")
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let rebase = args.iter().any(|a| a == "--rebase");
    // `--only <name>` measures a single kernel and skips the JSON
    // rewrite: an iteration loop for profiling sessions.
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1).cloned());
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "busy-cycle throughput study (smoke = {smoke}, rebase = {rebase}, \
         host parallelism = {host}, fast-forward off)"
    );

    let baseline: Vec<BaselineEntry> = if rebase || smoke {
        Vec::new()
    } else {
        std::fs::read_to_string("BENCH_hotpath.json")
            .ok()
            .as_deref()
            .and_then(baseline_section)
            .map(parse_baseline)
            .unwrap_or_default()
    };

    let mut measurements = Vec::new();
    for w in workloads(smoke) {
        if only.as_deref().is_some_and(|o| o != w.name) {
            continue;
        }
        let m = measure(&w, smoke);
        if let Some(b) = baseline.iter().find(|b| b.name == m.name) {
            assert_eq!(
                b.simulated_cycles, m.simulated_cycles,
                "{}: simulated cycles drifted from the recorded baseline \
                 (the hot-path overhaul must be bit-for-bit invisible)",
                m.name
            );
        }
        measurements.push(m);
    }

    println!(
        "{:<20} {:>14} {:>10} {:>14} {:>14} {:>8} {:>8} {:>8}",
        "kernel", "sim cycles", "wall (s)", "cyc/s", "base cyc/s", "speedup", "flow x", "lower x"
    );
    let mut current_json = Vec::new();
    let mut baseline_json = Vec::new();
    for m in &measurements {
        let base = baseline.iter().find(|b| b.name == m.name);
        let speedup = base.map(|b| m.cycles_per_sec() / b.cycles_per_sec.max(1e-9));
        println!(
            "{:<20} {:>14} {:>10.3} {:>14.0} {:>14} {:>8} {:>8} {:>8}",
            m.name,
            m.simulated_cycles,
            m.wall_seconds,
            m.cycles_per_sec(),
            base.map_or("-".into(), |b| format!("{:.0}", b.cycles_per_sec)),
            speedup.map_or("-".into(), |s| format!("{s:.2}x")),
            m.flowpath_speedup()
                .map_or("-".into(), |s| format!("{s:.2}x")),
            m.lowered_speedup()
                .map_or("-".into(), |s| format!("{s:.2}x")),
        );
        current_json.push(m.json(speedup));
        if let Some(b) = base {
            baseline_json.push(
                Measurement {
                    name: m.name,
                    simulated_cycles: b.simulated_cycles,
                    wall_seconds: b.wall_seconds,
                    flowpath_off_wall_seconds: None,
                    lowered_off_wall_seconds: None,
                }
                .json(None),
            );
        }
    }
    // With --rebase (or a missing/smoke baseline) the current build
    // becomes the recorded reference for future runs.
    let baseline_label = if baseline_json.is_empty() {
        baseline_json = measurements.iter().map(|m| m.json(None)).collect();
        "this build (rebased)"
    } else {
        "pre-overhaul tick loop"
    };

    if only.is_some() {
        // A profiling subset is not a coherent artifact; leave the
        // committed JSON alone.
        eprintln!("--only run: BENCH_hotpath.json left untouched");
        return Ok(());
    }
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"host_parallelism\": {host},\n  \
         \"baseline\": {},\n  \"current\": {}\n}}\n",
        section_json(baseline_label, &baseline_json),
        section_json(
            "hot-path overhaul + network flow path + program lowering",
            &current_json
        ),
    );
    std::fs::write("BENCH_hotpath.json", json)?;
    eprintln!("wrote BENCH_hotpath.json");
    Ok(())
}
