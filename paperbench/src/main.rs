//! Host cost of regenerating the Cedar paper, end to end and per layer.
//!
//! ```text
//! paperbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record]
//! ```
//!
//! `--trace 0` times the workload's public paper driver in a closed loop
//! for `--seconds` and prints the end-to-end metrics; `--trace 1`
//! alternates untraced driver calls with a traced pass over the same
//! points and prints the per-layer metrics. `--record` runs one checked
//! driver call plus one traced pass and files the output's fingerprint
//! for the (workload, seed). The last line of standard output is always
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See README.md in this directory.

mod check;
mod host;
mod span;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::{Recorded, Verdict};
use host::Provenance;
use span::{json_num, json_str};
use traced::{Metric, TracedPass};
use workload::{DriverOut, PointSpec, Workload};

/// Before each timed driver call, set-up passes repeat for at least this
/// many passes and this long; `setup_s` is the median over all of them.
const SETUP_MIN_PASSES: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_millis(200);

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join(" | "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(bad("0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        record,
    })
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Points attempted and failed so far, with a note per failure.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, n: u64, note: String) {
        self.failed += n;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }
}

/// Checks every driver call of a run against the recorded fingerprint
/// (or, for an unrecorded seed, against the run's first call).
struct DriverCheck<'a> {
    workload: Workload,
    key: String,
    recorded: &'a Recorded,
    expected: Vec<String>,
    first_fp: Option<String>,
    verdict: Option<Verdict>,
}

impl DriverCheck<'_> {
    fn check(&mut self, out: &cedar::machine::Result<DriverOut>, tally: &mut Tally) {
        let n = self.expected.len() as u64;
        tally.attempted += n;
        let out = match out {
            Ok(out) => out,
            Err(e) => return tally.fail(n, format!("driver call failed: {e}")),
        };
        let keys: Vec<&str> = out.points.iter().map(|p| p.key.as_str()).collect();
        if keys != self.expected {
            return tally.fail(n, format!("driver returned points {keys:?}"));
        }
        let fp = check::fingerprint(out);
        let verdict = self.recorded.verify(self.workload.name(), &self.key, &fp);
        let first = self.first_fp.get_or_insert_with(|| fp.clone());
        match &verdict {
            Verdict::Mismatch(want) => {
                return tally.fail(n, format!("fingerprint {fp} != recorded {want}"));
            }
            Verdict::Unrecorded if *first != fp => {
                return tally.fail(n, format!("fingerprint {fp} != this run's first {first}"));
            }
            _ => {}
        }
        self.verdict.get_or_insert(verdict);
        for p in &out.points {
            if let Some(why) = &p.failure {
                tally.fail(1, format!("{}: {why}", p.key));
            } else if let Some(Err(e)) = p.stats.as_ref().map(|s| check::conservation(s, p.cycles))
            {
                tally.fail(1, format!("{}: {e}", p.key));
            }
        }
    }
}

/// Check a traced pass: every point Ok, conserving, and on exactly the
/// cycles the untraced driver reported for it.
fn check_traced(pass: &TracedPass, driver_cycles: &BTreeMap<String, u64>, tally: &mut Tally) {
    for p in &pass.points {
        tally.attempted += 1;
        match p {
            Err(e) => tally.fail(1, format!("traced {e}")),
            Ok(p) => {
                if driver_cycles.get(&p.key) != Some(&p.cycles) {
                    let want = driver_cycles.get(&p.key);
                    tally.fail(
                        1,
                        format!("traced {}: {} cycles, driver {want:?}", p.key, p.cycles),
                    );
                } else if let Err(e) = check::conservation(&p.stats, p.cycles) {
                    tally.fail(1, format!("traced {}: {e}", p.key));
                }
            }
        }
    }
}

fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let m: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        m.join(",")
    )
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name} = {value:.6} {unit}{note}");
}

fn spread(values: &[f64]) -> String {
    if values.len() > 12 {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        return format!("  (median of {}, range {lo:.4} .. {hi:.4})", values.len());
    }
    let all: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("  (median of {}: {})", values.len(), all.join(" "))
}

/// Whether the closed loop starts another round: it stops at the round
/// boundary nearest to `seconds` after `start`, given the last round's
/// length, so a run measures `seconds` give or take half a round.
fn another_round(start: Instant, seconds: f64, last_round_s: Option<&f64>) -> bool {
    start.elapsed().as_secs_f64() + last_round_s.map_or(0.0, |r| r / 2.0) < seconds
}

/// The untraced pass: set-up passes, then driver calls in a closed loop.
fn untraced(
    args: &Args,
    groups: &[Vec<PointSpec>],
    dc: &mut DriverCheck,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let (mut setup, mut walls, mut rates, mut paper_err) =
        (Vec::new(), Vec::new(), Vec::new(), None);
    let start = Instant::now();
    while walls.is_empty() || another_round(start, args.seconds, walls.last()) {
        let (t0, passes) = (Instant::now(), setup.len());
        while setup.len() < passes + SETUP_MIN_PASSES || t0.elapsed() < SETUP_MIN_TIME {
            setup.push(traced::setup_pass(groups)?);
        }
        let (t0, cpu0) = (Instant::now(), host::process_cpu_s());
        let out = workload::run_driver(args.workload, args.seed);
        let (wall, cpu) = (t0.elapsed().as_secs_f64(), host::process_cpu_s() - cpu0);
        dc.check(&out, tally);
        if let Ok(out) = &out {
            let cycles: u64 = out.points.iter().map(|p| p.cycles).sum();
            rates.push(cycles as f64 / cpu);
            paper_err = out.paper_err_pct;
        }
        walls.push(wall);
    }
    let metrics = vec![
        ("wall_s", median(&walls), "s"),
        ("sim_cycles_per_cpu_s", median(&rates), "cycles/s"),
        ("setup_s", median(&setup), "s"),
        ("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ];
    print_metric("wall_s", metrics[0].1, "s", &spread(&walls));
    print_metric(
        "sim_cycles_per_cpu_s",
        metrics[1].1,
        "cycles/s",
        &spread(&rates),
    );
    print_metric("setup_s", metrics[2].1, "s", &spread(&setup));
    print_metric("peak_rss_mb", metrics[3].1, "MB", "");
    let ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    print_metric(
        "failed_ratio",
        ratio,
        "ratio",
        &format!("  ({} of {} points)", tally.failed, tally.attempted),
    );
    match paper_err {
        Some(e) => print_metric("paper_err_pct", e, "%", "  (against paper-legible values)"),
        None => println!("paper_err_pct = unvalidated (this workload holds no paper numbers)"),
    }
    Ok(metrics)
}

/// The traced pass: untraced driver calls alternating with traced passes.
fn traced_run(
    args: &Args,
    prov: &Provenance,
    groups: &[Vec<PointSpec>],
    dc: &mut DriverCheck,
    tally: &mut Tally,
) -> Vec<Metric> {
    let epoch = Instant::now();
    let threads = cedar::experiments::sweep::sweep_threads();
    let (mut untraced_walls, mut passes) = (Vec::new(), Vec::<TracedPass>::new());
    let mut driver_cycles: Option<BTreeMap<String, u64>> = None;
    let (start, mut round) = (Instant::now(), None);
    while passes.is_empty() || another_round(start, args.seconds, round.as_ref()) {
        let t0 = Instant::now();
        let out = workload::run_driver(args.workload, args.seed);
        untraced_walls.push(t0.elapsed().as_secs_f64());
        dc.check(&out, tally);
        let Ok(out) = out else { break };
        let cycles = driver_cycles.get_or_insert_with(|| {
            out.points
                .iter()
                .map(|p| (p.key.clone(), p.cycles))
                .collect()
        });
        let pass = traced::traced_pass(groups, &out, epoch);
        check_traced(&pass, cycles, tally);
        passes.push(pass);
        round = Some(t0.elapsed().as_secs_f64());
    }
    if passes.is_empty() {
        return Vec::new();
    }
    // Host-time metrics: the median over passes; counters repeat exactly.
    let per_pass: Vec<Vec<Metric>> = passes
        .iter()
        .map(|p| traced::host_metrics(p, threads))
        .collect();
    let mut metrics: Vec<Metric> = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            (
                name,
                median(&per_pass.iter().map(|m| m[i].1).collect::<Vec<_>>()),
                unit,
            )
        })
        .collect();
    let counters = traced::counter_metrics(&passes[0]);
    for p in &passes[1..] {
        if traced::counter_metrics(p) != counters {
            tally.fail(1, "simulated counters differ between traced passes".into());
        }
    }
    metrics.extend(counters);
    let traced_wall = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let overhead = 100.0 * (traced_wall / median(&untraced_walls) - 1.0);
    metrics.push(("trace.overhead_pct", overhead, "%"));
    for &(name, v, unit) in &metrics {
        print_metric(name, v, unit, "");
    }
    write_traces(args, prov, &passes);
    metrics
}

/// Write every pass's spans, kept in memory until now.
fn write_traces(args: &Args, prov: &Provenance, passes: &[TracedPass]) {
    let mut traces = Vec::new();
    for (i, pass) in passes.iter().enumerate() {
        for p in pass.points.iter().flatten() {
            traces.push((p.key.clone(), i, p.trace.clone()));
        }
        if let Some(t) = &pass.derive {
            traces.push(("methodology".to_string(), i, t.clone()));
        }
    }
    let dir = bench_dir().join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let body = format!(
        "{{\"provenance\":{},\"traces\":{}}}\n",
        prov.json(),
        span::traces_json(&traces)
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// `--record`: one checked driver call and one traced pass; file the
/// fingerprint if every point passes.
fn record(
    args: &Args,
    groups: &[Vec<PointSpec>],
    path: &Path,
    recorded: &mut Recorded,
) -> Result<(), String> {
    let out = workload::run_driver(args.workload, args.seed).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let cycles: BTreeMap<String, u64> = out
        .points
        .iter()
        .map(|p| (p.key.clone(), p.cycles))
        .collect();
    let pass = traced::traced_pass(groups, &out, Instant::now());
    check_traced(&pass, &cycles, &mut tally);
    for p in &out.points {
        if let Some(why) = &p.failure {
            tally.fail(1, format!("{}: {why}", p.key));
        }
    }
    if tally.failed > 0 {
        return Err(format!("not recorded: {}", tally.notes.join("; ")));
    }
    let fp = check::fingerprint(&out);
    let key = args.workload.fingerprint_key(args.seed);
    recorded.insert(args.workload.name(), &key, &fp);
    std::fs::write(path, recorded.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("recorded {} {key} {fp}", args.workload.name());
    Ok(())
}

fn run(args: &Args) -> Result<String, String> {
    let prov = Provenance::collect(args.seed);
    println!(
        "paperbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance {}", prov.json());
    if !prov.default_engine() {
        eprintln!("warning: CEDAR_* knobs are set; these figures are not the default engine's");
    }
    if !args.workload.seeded() {
        println!("seed: unused (this workload runs the paper's fixed inputs)");
    }
    let fp_path = bench_dir().join("fingerprints.txt");
    let mut recorded = Recorded::load(&fp_path)?;
    let groups = workload::point_groups(args.workload, args.seed);
    if args.record {
        record(args, &groups, &fp_path, &mut recorded)?;
        return Ok(String::new());
    }
    let mut dc = DriverCheck {
        workload: args.workload,
        key: args.workload.fingerprint_key(args.seed),
        recorded: &recorded,
        expected: groups.iter().flatten().map(|p| p.key.clone()).collect(),
        first_fp: None,
        verdict: None,
    };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced_run(args, &prov, &groups, &mut dc, &mut tally)
    } else {
        untraced(args, &groups, &mut dc, &mut tally)?
    };
    let fp_state = match dc.verdict {
        Some(Verdict::Match) => "matches the recorded fingerprint",
        Some(Verdict::Unrecorded) => {
            "unrecorded seed: checked for repeatability within the run only"
        }
        _ => "no clean driver output",
    };
    println!(
        "fingerprint: {} ({fp_state})",
        dc.first_fp.as_deref().unwrap_or("-")
    );
    for note in &tally.notes {
        println!("FAILED: {note}");
    }
    Ok(result_line(&tally, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paperbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            if !line.is_empty() {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("paperbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn cli_accepts_the_driver_contract_and_rejects_garbage() {
        let a = args(&[
            "--workload",
            "perfect_suite",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::PerfectSuite);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.record),
            (7, 3.0, true, false)
        );
        assert!(args(&["--workload", "table9"]).is_err());
        assert!(args(&["--workload", "table1_rank64", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "table1_rank64", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "table1_rank64", "--seed"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }

    #[test]
    fn median_and_result_line() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let tally = Tally {
            attempted: 12,
            failed: 0,
            notes: Vec::new(),
        };
        let line = result_line(
            &tally,
            &[("wall_s", 1.25, "s"), ("machine.cycles", 7.0, "cycles")],
        );
        let v = cedar_bench::json::parse(&line).expect("result line parses");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(12));
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(wall.get("unit").and_then(|x| x.as_str()), Some("s"));
    }
}
