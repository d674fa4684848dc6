//! Bench-regression observatory: validate the committed `BENCH_*.json`
//! artifacts and gate on unexplained regressions.
//!
//! The repo commits four machine-readable bench artifacts —
//! `BENCH_hotpath.json` (busy-cycle throughput vs the pre-overhaul
//! baseline), `BENCH_simspeed.json` (fast-forward on/off speedups),
//! `BENCH_resilience.json` (fault-sweep outcomes) and
//! `BENCH_crash_resume.json` (checkpoint/resume kill-and-recover
//! outcomes). Each is written by a different binary with its own
//! hand-rolled serializer, so drift is easy: a field renamed in one
//! place, a speedup that no longer matches the quotient it claims to be,
//! a committed smoke artifact masquerading as a full run.
//!
//! Default mode prints a one-screen summary of all four files.
//! `--check` additionally exits nonzero when any file is missing,
//! malformed, schema-invalid, internally inconsistent, or carries a
//! regression the file itself does not explain:
//!
//! * hot-path kernels must keep `speedup_vs_baseline >= 0.90`,
//! * hot-path kernels must carry the flow-path columns
//!   (`cycles_per_sec_flowpath_off`, `flowpath_speedup`), the speedup
//!   must equal the rate quotient, and the flow path must not cost more
//!   than 10% on any kernel (`flowpath_speedup >= 0.90`),
//! * hot-path kernels must likewise carry the program-lowering columns
//!   (`cycles_per_sec_lowered_off`, `lowered_speedup`), the speedup must
//!   equal the rate quotient, lowering must keep a real win on the
//!   dispatch-bound dense-compute kernel (`lowered_speedup >= 1.15` on
//!   `rank64_peak`) and never cost any kernel more than 10%, and the
//!   dense-compute kernel's cumulative speedup vs the pre-overhaul
//!   baseline must stay `>= 1.9`,
//! * the fast-forward `barrier_storm` speedup must stay `>= 10`, other
//!   fast-forward experiments `>= 0.75` (the feature may be neutral but
//!   must not badly hurt),
//! * every resilience row must have completed with outcome `"ok"` and
//!   slowdown under 10x,
//! * every crash-resume point must be bit-identical — matching cycle
//!   count, memory digest and stats tree — and the file must cover both
//!   kill modes (in-process and SIGKILL), with at least one SIGKILL that
//!   hit a child still running and resumed from an image taken mid-run.
//!   These are determinism gates, not performance gates, so they are
//!   *not* skipped for smoke artifacts: bit-identity holds at any
//!   workload size.
//!
//! Regression gates are skipped (with a note) for smoke artifacts —
//! `"smoke": true`, or a resilience `n` below the full 128 — since smoke
//! sizes are not comparable; schema and consistency checks still apply.
//! Run it from the repo root (CI does, before the smoke benches
//! overwrite the committed files):
//!
//! ```text
//! cargo run --release -p cedar-bench --bin bench_history -- --check
//! ```

use cedar_bench::json::{parse, Value};

/// Relative tolerance for "this field must equal that quotient" checks:
/// the emitters round rates to 0.1 and speedups to 3 decimals.
const REL_TOL: f64 = 0.01;

/// Hot-path kernels must not lose more than 10% of their recorded win.
const HOTPATH_FLOOR: f64 = 0.90;

/// The flow-level network fast path may be neutral on kernels whose hot
/// loops sit elsewhere, but must never cost a kernel more than 10%.
const FLOWPATH_FLOOR: f64 = 0.90;

/// Program lowering targets the CE dispatch loop, so its win is gated
/// where dispatch is the workload: the register-only dense-compute
/// kernels below. The memory-bound kernels converge across the lowering
/// hatch — their wall clock is network and module word movement, which
/// both paths share bit for bit — so there lowering only has to stay
/// neutral (the flow-path rule).
const LOWERED_FLOOR: f64 = 1.15;

/// Kernels whose busy cycle is CE issue and dispatch rather than memory
/// traffic: the rows [`LOWERED_FLOOR`] and [`CUMULATIVE_FLOOR`] gate.
const DENSE_COMPUTE_KERNELS: &[&str] = &["rank64_peak"];

/// On every other kernel lowering may be neutral but must never cost
/// more than 10%.
const LOWERED_NEUTRAL_FLOOR: f64 = 0.90;

/// The performance arc's headline: on the dense-compute kernel the
/// overhauls stack to at least this much over the pre-overhaul tick
/// loop (fast-forward is gated separately in `BENCH_simspeed.json`).
const CUMULATIVE_FLOOR: f64 = 1.9;

/// Fast-forward must stay a big win on the quiescent-heavy workload...
const FF_STORM_FLOOR: f64 = 10.0;

/// ...and at worst mildly unprofitable elsewhere.
const FF_OTHER_FLOOR: f64 = 0.75;

/// Resilience rows must not slow down more than this vs their clean run.
const RESILIENCE_SLOWDOWN_CEIL: f64 = 10.0;

/// One validation failure, tagged with the file it came from.
struct Finding {
    file: &'static str,
    msg: String,
}

struct Report {
    findings: Vec<Finding>,
    gates_skipped: Vec<&'static str>,
}

impl Report {
    fn fail(&mut self, file: &'static str, msg: String) {
        self.findings.push(Finding { file, msg });
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * b.abs().max(1e-9)
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// Load and parse one artifact, recording findings for I/O/parse errors.
fn load(rep: &mut Report, file: &'static str) -> Option<Value> {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            rep.fail(file, format!("unreadable: {e}"));
            return None;
        }
    };
    match parse(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            rep.fail(file, format!("malformed JSON: {e}"));
            None
        }
    }
}

/// A kernel section of `BENCH_hotpath.json`: `(name, cycles, rate)`.
fn hotpath_kernels(
    rep: &mut Report,
    file: &'static str,
    doc: &Value,
    section: &str,
) -> Vec<(String, u64, f64)> {
    let mut out = Vec::new();
    let Some(kernels) = doc
        .get(section)
        .and_then(|s| s.get("kernels"))
        .and_then(Value::as_arr)
    else {
        rep.fail(file, format!("missing {section}.kernels array"));
        return out;
    };
    for (i, k) in kernels.iter().enumerate() {
        let name = k.get("name").and_then(Value::as_str);
        let cycles = k.get("simulated_cycles").and_then(Value::as_u64);
        let wall = num(k, "wall_seconds");
        let rate = num(k, "cycles_per_sec");
        let (Some(name), Some(cycles), Some(wall), Some(rate)) = (name, cycles, wall, rate) else {
            rep.fail(
                file,
                format!("{section}.kernels[{i}]: missing/mistyped field"),
            );
            continue;
        };
        if wall <= 0.0 || rate <= 0.0 || cycles == 0 {
            rep.fail(
                file,
                format!("{section} kernel {name}: non-positive measurement"),
            );
            continue;
        }
        if !close(rate, cycles as f64 / wall) {
            rep.fail(
                file,
                format!(
                    "{section} kernel {name}: cycles_per_sec {rate} != \
                     simulated_cycles/wall_seconds {:.1}",
                    cycles as f64 / wall
                ),
            );
        }
        out.push((name.to_string(), cycles, rate));
    }
    out
}

fn check_hotpath(rep: &mut Report) {
    let file = "BENCH_hotpath.json";
    let Some(doc) = load(rep, file) else { return };
    let Some(smoke) = doc.get("smoke").and_then(Value::as_bool) else {
        rep.fail(file, "missing boolean smoke field".into());
        return;
    };
    let baseline = hotpath_kernels(rep, file, &doc, "baseline");
    let current = hotpath_kernels(rep, file, &doc, "current");
    if current.is_empty() {
        rep.fail(file, "no current kernels".into());
        return;
    }
    for (name, cycles, rate) in &current {
        let Some((_, base_cycles, base_rate)) = baseline.iter().find(|(n, _, _)| n == name) else {
            rep.fail(file, format!("kernel {name}: no baseline entry"));
            continue;
        };
        // The simulator is deterministic: a changed cycle count means the
        // baseline was taken on a different workload, not a slower host.
        if cycles != base_cycles {
            rep.fail(
                file,
                format!(
                    "kernel {name}: simulated_cycles {cycles} != baseline {base_cycles} \
                     (stale baseline? rerun with --rebase)"
                ),
            );
        }
        let entry = doc
            .get("current")
            .and_then(|c| c.get("kernels"))
            .and_then(Value::as_arr)
            .and_then(|ks| {
                ks.iter()
                    .find(|k| k.get("name").and_then(Value::as_str) == Some(name))
            });
        // The flow-path columns: present on every current kernel, with
        // the claimed speedup equal to the rate quotient, and (non-smoke)
        // the flow path never costing a kernel more than the floor.
        let rate_off = entry.and_then(|k| num(k, "cycles_per_sec_flowpath_off"));
        let flow_speedup = entry.and_then(|k| num(k, "flowpath_speedup"));
        match (rate_off, flow_speedup) {
            (Some(rate_off), Some(flow_speedup)) if rate_off > 0.0 => {
                if !close(flow_speedup, rate / rate_off) {
                    rep.fail(
                        file,
                        format!(
                            "kernel {name}: flowpath_speedup {flow_speedup} != \
                             rate quotient {:.3}",
                            rate / rate_off
                        ),
                    );
                }
                if !smoke && flow_speedup < FLOWPATH_FLOOR {
                    rep.fail(
                        file,
                        format!(
                            "kernel {name}: flowpath_speedup {flow_speedup:.3} below \
                             the {FLOWPATH_FLOOR} floor"
                        ),
                    );
                }
            }
            _ => rep.fail(
                file,
                format!("kernel {name}: missing/invalid flow-path columns"),
            ),
        }
        // The program-lowering columns, with the same quotient identity
        // and (non-smoke) a floor: a real win where dispatch is the
        // workload, neutrality-at-worst where memory movement is.
        let dense = DENSE_COMPUTE_KERNELS.contains(&name.as_str());
        let rate_interp = entry.and_then(|k| num(k, "cycles_per_sec_lowered_off"));
        let lowered_speedup = entry.and_then(|k| num(k, "lowered_speedup"));
        match (rate_interp, lowered_speedup) {
            (Some(rate_interp), Some(lowered_speedup)) if rate_interp > 0.0 => {
                if !close(lowered_speedup, rate / rate_interp) {
                    rep.fail(
                        file,
                        format!(
                            "kernel {name}: lowered_speedup {lowered_speedup} != \
                             rate quotient {:.3}",
                            rate / rate_interp
                        ),
                    );
                }
                let floor = if dense {
                    LOWERED_FLOOR
                } else {
                    LOWERED_NEUTRAL_FLOOR
                };
                if !smoke && lowered_speedup < floor {
                    rep.fail(
                        file,
                        format!(
                            "kernel {name}: lowered_speedup {lowered_speedup:.3} below \
                             the {floor} floor"
                        ),
                    );
                }
            }
            _ => rep.fail(
                file,
                format!("kernel {name}: missing/invalid program-lowering columns"),
            ),
        }
        let claimed = entry.and_then(|k| num(k, "speedup_vs_baseline"));
        let Some(claimed) = claimed else {
            // Smoke/rebased artifacts record the current build as their
            // own baseline and omit the speedup field.
            if !smoke {
                rep.fail(file, format!("kernel {name}: missing speedup_vs_baseline"));
            }
            continue;
        };
        if !close(claimed, rate / base_rate) {
            rep.fail(
                file,
                format!(
                    "kernel {name}: speedup_vs_baseline {claimed} != rate quotient {:.3}",
                    rate / base_rate
                ),
            );
        }
        if smoke {
            continue;
        }
        if claimed < HOTPATH_FLOOR {
            rep.fail(
                file,
                format!(
                    "kernel {name}: speedup_vs_baseline {claimed:.3} below the \
                     {HOTPATH_FLOOR} regression floor"
                ),
            );
        }
        if dense && claimed < CUMULATIVE_FLOOR {
            rep.fail(
                file,
                format!(
                    "kernel {name}: cumulative speedup_vs_baseline {claimed:.3} below \
                     the {CUMULATIVE_FLOOR} headline floor"
                ),
            );
        }
    }
    if smoke {
        rep.gates_skipped.push(file);
    }
}

fn check_simspeed(rep: &mut Report) {
    let file = "BENCH_simspeed.json";
    let Some(doc) = load(rep, file) else { return };
    let Some(smoke) = doc.get("smoke").and_then(Value::as_bool) else {
        rep.fail(file, "missing boolean smoke field".into());
        return;
    };
    let Some(experiments) = doc.get("experiments").and_then(Value::as_arr) else {
        rep.fail(file, "missing experiments array".into());
        return;
    };
    if experiments.is_empty() {
        rep.fail(file, "no experiments".into());
    }
    for (i, e) in experiments.iter().enumerate() {
        let name = e.get("name").and_then(Value::as_str);
        let cycles = e.get("simulated_cycles").and_then(Value::as_u64);
        let (off_w, on_w) = (num(e, "wall_seconds_off"), num(e, "wall_seconds_on"));
        let (off_r, on_r) = (num(e, "cycles_per_sec_off"), num(e, "cycles_per_sec_on"));
        let speedup = num(e, "speedup");
        let (
            Some(name),
            Some(cycles),
            Some(off_w),
            Some(on_w),
            Some(off_r),
            Some(on_r),
            Some(speedup),
        ) = (name, cycles, off_w, on_w, off_r, on_r, speedup)
        else {
            rep.fail(file, format!("experiments[{i}]: missing/mistyped field"));
            continue;
        };
        if off_w <= 0.0 || on_w <= 0.0 || cycles == 0 {
            rep.fail(file, format!("experiment {name}: non-positive measurement"));
            continue;
        }
        for (label, rate, wall) in [("off", off_r, off_w), ("on", on_r, on_w)] {
            if !close(rate, cycles as f64 / wall) {
                rep.fail(
                    file,
                    format!(
                        "experiment {name}: cycles_per_sec_{label} {rate} != \
                         simulated_cycles/wall_seconds_{label} {:.1}",
                        cycles as f64 / wall
                    ),
                );
            }
        }
        if !close(speedup, off_w / on_w) {
            rep.fail(
                file,
                format!(
                    "experiment {name}: speedup {speedup} != wall-seconds quotient {:.3}",
                    off_w / on_w
                ),
            );
        }
        if smoke {
            continue;
        }
        let floor = if name == "barrier_storm" {
            FF_STORM_FLOOR
        } else {
            FF_OTHER_FLOOR
        };
        if speedup < floor {
            rep.fail(
                file,
                format!("experiment {name}: speedup {speedup:.3} below the {floor} floor"),
            );
        }
    }
    if smoke {
        rep.gates_skipped.push(file);
    }
}

fn check_resilience(rep: &mut Report) {
    let file = "BENCH_resilience.json";
    let Some(doc) = load(rep, file) else { return };
    let n = doc.get("n").and_then(Value::as_u64);
    let Some(n) = n else {
        rep.fail(file, "missing integer n field".into());
        return;
    };
    let smoke = n < 128; // the full study runs rank-64 at n = 128
    let Some(rows) = doc.get("rows").and_then(Value::as_arr) else {
        rep.fail(file, "missing rows array".into());
        return;
    };
    if rows.is_empty() {
        rep.fail(file, "no rows".into());
    }
    // Collect clean baselines per workload for slowdown cross-checks.
    let clean_cycles = |workload: &str| -> Option<u64> {
        rows.iter()
            .find(|r| {
                r.get("workload").and_then(Value::as_str) == Some(workload)
                    && r.get("scenario").and_then(Value::as_str) == Some("clean")
            })
            .and_then(|r| r.get("cycles").and_then(Value::as_u64))
    };
    for (i, r) in rows.iter().enumerate() {
        let workload = r.get("workload").and_then(Value::as_str);
        let scenario = r.get("scenario").and_then(Value::as_str);
        let completed = r.get("completed").and_then(Value::as_bool);
        let outcome = r.get("outcome").and_then(Value::as_str);
        let cycles = r.get("cycles").and_then(Value::as_u64);
        let slowdown = num(r, "slowdown");
        let (
            Some(workload),
            Some(scenario),
            Some(completed),
            Some(outcome),
            Some(cycles),
            Some(slowdown),
        ) = (workload, scenario, completed, outcome, cycles, slowdown)
        else {
            rep.fail(file, format!("rows[{i}]: missing/mistyped field"));
            continue;
        };
        for key in ["drops", "nacks", "retries", "timeouts", "prefetch_retries"] {
            if r.get(key).and_then(Value::as_u64).is_none() {
                rep.fail(file, format!("row {workload}/{scenario}: bad {key}"));
            }
        }
        if scenario == "clean" {
            let traffic: u64 = ["drops", "nacks", "retries", "timeouts"]
                .iter()
                .filter_map(|k| r.get(k).and_then(Value::as_u64))
                .sum();
            if traffic != 0 {
                rep.fail(
                    file,
                    format!("row {workload}/clean: reports recovery traffic"),
                );
            }
        }
        if completed {
            if cycles == 0 {
                rep.fail(
                    file,
                    format!("row {workload}/{scenario}: completed with zero cycles"),
                );
            }
            if let Some(clean) = clean_cycles(workload) {
                if clean > 0 && !close(slowdown, cycles as f64 / clean as f64) {
                    rep.fail(
                        file,
                        format!(
                            "row {workload}/{scenario}: slowdown {slowdown} != \
                             cycles quotient {:.4}",
                            cycles as f64 / clean as f64
                        ),
                    );
                }
            }
        }
        if smoke {
            continue;
        }
        if !completed || outcome != "ok" {
            rep.fail(
                file,
                format!("row {workload}/{scenario}: outcome {outcome:?} (completed = {completed})"),
            );
        }
        if slowdown > RESILIENCE_SLOWDOWN_CEIL {
            rep.fail(
                file,
                format!(
                    "row {workload}/{scenario}: slowdown {slowdown:.2}x above the \
                     {RESILIENCE_SLOWDOWN_CEIL}x ceiling"
                ),
            );
        }
    }
    if smoke {
        rep.gates_skipped.push(file);
    }
}

fn check_crash_resume(rep: &mut Report) {
    let file = "BENCH_crash_resume.json";
    let Some(doc) = load(rep, file) else { return };
    if doc.get("smoke").and_then(Value::as_bool).is_none() {
        rep.fail(file, "missing boolean smoke field".into());
        return;
    }
    let Some(points) = doc.get("points").and_then(Value::as_arr) else {
        rep.fail(file, "missing points array".into());
        return;
    };
    if points.is_empty() {
        rep.fail(file, "no points".into());
    }
    // Coverage: both kill modes, and at least one SIGKILL that hit a
    // child still running, restored from an image taken mid-run.
    let mut covered: Vec<String> = Vec::new();
    let mut live_sigkill = false;
    for (i, p) in points.iter().enumerate() {
        let mode = p.get("mode").and_then(Value::as_str);
        let kill = p.get("kill_cycle").and_then(Value::as_u64);
        let alive = p.get("child_alive_at_kill").and_then(Value::as_bool);
        let baseline = p.get("baseline_cycles").and_then(Value::as_u64);
        let resumed = p.get("resumed_cycles").and_then(Value::as_u64);
        let digest = p.get("digest_match").and_then(Value::as_bool);
        let stats = p.get("stats_match").and_then(Value::as_bool);
        let (
            Some(mode),
            Some(kill),
            Some(alive),
            Some(baseline),
            Some(resumed),
            Some(digest),
            Some(stats),
        ) = (mode, kill, alive, baseline, resumed, digest, stats)
        else {
            rep.fail(file, format!("points[{i}]: missing/mistyped field"));
            continue;
        };
        covered.push(mode.to_string());
        live_sigkill |= mode == "sigkill" && alive && kill > 0 && kill < baseline;
        if baseline == 0 {
            rep.fail(file, format!("point {mode}: zero baseline cycles"));
        }
        // Bit-identity is workload-size-independent, so these gates
        // apply to smoke artifacts too.
        if resumed != baseline {
            rep.fail(
                file,
                format!(
                    "point {mode}: resumed run took {resumed} cycles, \
                     uninterrupted took {baseline}"
                ),
            );
        }
        if !digest {
            rep.fail(
                file,
                format!("point {mode}: memory digest mismatch after resume"),
            );
        }
        if !stats {
            rep.fail(
                file,
                format!("point {mode}: stats tree mismatch after resume"),
            );
        }
    }
    for mode in ["in-process", "sigkill"] {
        if !covered.iter().any(|m| m == mode) {
            rep.fail(file, format!("missing coverage: no {mode} point"));
        }
    }
    if !live_sigkill {
        rep.fail(
            file,
            "no sigkill point hit a live child mid-run (child_alive_at_kill with \
             0 < kill_cycle < baseline_cycles)"
                .into(),
        );
    }
}

/// One-line summary per file for the default (no `--check`) mode.
fn summarize() {
    for file in [
        "BENCH_hotpath.json",
        "BENCH_simspeed.json",
        "BENCH_resilience.json",
        "BENCH_crash_resume.json",
    ] {
        let Ok(text) = std::fs::read_to_string(file) else {
            println!("{file:<24} (missing)");
            continue;
        };
        let Ok(doc) = parse(&text) else {
            println!("{file:<24} (malformed)");
            continue;
        };
        match file {
            "BENCH_hotpath.json" => {
                let speedups: Vec<String> = doc
                    .get("current")
                    .and_then(|c| c.get("kernels"))
                    .and_then(Value::as_arr)
                    .map(|ks| {
                        ks.iter()
                            .filter_map(|k| {
                                let flow = num(k, "flowpath_speedup")
                                    .map_or(String::new(), |f| format!(" (flow {f:.2}x)"));
                                let lower = num(k, "lowered_speedup")
                                    .map_or(String::new(), |l| format!(" (lower {l:.2}x)"));
                                Some(format!(
                                    "{} {:.2}x{flow}{lower}",
                                    k.get("name")?.as_str()?,
                                    num(k, "speedup_vs_baseline")?
                                ))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                println!("{file:<24} {}", speedups.join(", "));
            }
            "BENCH_simspeed.json" => {
                let speedups: Vec<String> = doc
                    .get("experiments")
                    .and_then(Value::as_arr)
                    .map(|es| {
                        es.iter()
                            .filter_map(|e| {
                                Some(format!(
                                    "{} {:.2}x",
                                    e.get("name")?.as_str()?,
                                    num(e, "speedup")?
                                ))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                println!("{file:<24} fast-forward: {}", speedups.join(", "));
            }
            "BENCH_crash_resume.json" => {
                let pts = doc.get("points").and_then(Value::as_arr);
                let total = pts.map_or(0, <[Value]>::len);
                let ok = pts.map_or(0, |ps| {
                    ps.iter()
                        .filter(|p| {
                            p.get("digest_match").and_then(Value::as_bool) == Some(true)
                                && p.get("stats_match").and_then(Value::as_bool) == Some(true)
                        })
                        .count()
                });
                println!("{file:<24} {ok}/{total} points bit-identical");
            }
            _ => {
                let rows = doc
                    .get("rows")
                    .and_then(Value::as_arr)
                    .map_or(0, <[Value]>::len);
                let ok = doc.get("rows").and_then(Value::as_arr).map_or(0, |rs| {
                    rs.iter()
                        .filter(|r| r.get("outcome").and_then(Value::as_str) == Some("ok"))
                        .count()
                });
                println!("{file:<24} {ok}/{rows} rows ok");
            }
        }
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    if !check {
        summarize();
        return;
    }
    let mut rep = Report {
        findings: Vec::new(),
        gates_skipped: Vec::new(),
    };
    check_hotpath(&mut rep);
    check_simspeed(&mut rep);
    check_resilience(&mut rep);
    check_crash_resume(&mut rep);
    for file in &rep.gates_skipped {
        eprintln!("note: {file} is a smoke artifact; regression gates skipped");
    }
    if rep.findings.is_empty() {
        eprintln!("bench history: all artifacts valid, no unexplained regressions");
        return;
    }
    for f in &rep.findings {
        eprintln!("FAIL {}: {}", f.file, f.msg);
    }
    eprintln!("bench history: {} finding(s)", rep.findings.len());
    std::process::exit(1);
}
