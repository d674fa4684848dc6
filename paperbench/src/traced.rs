//! The set-up and traced passes: the workload's points driven through
//! the same public calls its driver makes (`Machine::new`, the kernel
//! `build` or `Restructurer::restructure` + `Backend::lower`,
//! `Machine::run`), each call timed as a span, with the machine's own
//! `HostProfiler` attributing the run to simulator layers.

use std::collections::BTreeMap;
use std::time::Instant;

use cedar::experiments::sweep;
use cedar::fortran::compile::Backend;
use cedar::fortran::restructure::Restructurer;
use cedar::machine::ids::CeId;
use cedar::machine::{Machine, MachineStats, Program};

use crate::span::Trace;
use crate::workload::{derive_perfect, Build, DriverOut, PointSpec};

/// Build a point's programs onto `m`, timing each layer call as a span.
fn build_programs(
    p: &PointSpec,
    m: &mut Machine,
    t: &mut Trace,
    parent: Option<usize>,
) -> Vec<(CeId, Program)> {
    match &p.build {
        Build::Rank64(k) => t.time("kernels.build", parent, || k.build(m, p.clusters)),
        Build::VectorLoad(k) => t.time("kernels.build", parent, || k.build(m, p.clusters)),
        Build::Tridiag(k) => t.time("kernels.build", parent, || k.build(m, p.clusters)),
        Build::Cg(k, ces) => t.time("kernels.build", parent, || k.build(m, *ces)),
        Build::Fortran(f) => {
            let compiled = t.time("fortran.restructure", parent, || {
                Restructurer::default().restructure(&f.src, f.level)
            });
            t.time("fortran.lower", parent, || {
                Backend::new(f.costs.clone()).lower(&compiled, m, p.clusters.clamp(1, 4))
            })
        }
    }
}

/// One set-up pass: build every point's machine and programs, without
/// running them. Returns the host seconds spent inside those calls.
///
/// # Errors
///
/// A machine the configuration cannot build.
pub fn setup_pass(groups: &[Vec<PointSpec>]) -> Result<f64, String> {
    let mut total = 0.0;
    for p in groups.iter().flatten() {
        let mut scratch = Trace::new(Instant::now());
        let t0 = Instant::now();
        let mut m = Machine::new(p.cfg.clone()).map_err(|e| format!("{}: {e}", p.key))?;
        let progs = build_programs(p, &mut m, &mut scratch, None);
        total += t0.elapsed().as_secs_f64();
        drop(std::hint::black_box((m, progs)));
    }
    Ok(total)
}

/// One point as the traced pass ran it.
#[derive(Debug)]
pub struct TracedPoint {
    pub key: String,
    pub cycles: u64,
    /// Cycles the event-horizon fast-forward skipped.
    pub skipped: u64,
    pub stats: MachineStats,
    /// Host nanoseconds per `HostProfiler` region.
    pub regions: BTreeMap<&'static str, u64>,
    pub flow_stall_replays: u64,
    pub trace: Trace,
}

fn trace_point(p: &PointSpec, epoch: Instant) -> Result<TracedPoint, String> {
    let fail = |e: cedar::machine::MachineError| format!("{}: {e}", p.key);
    let mut t = Trace::new(epoch);
    let root = t.open("point", None);
    let mut m = t
        .time("machine.new", Some(root), || Machine::new(p.cfg.clone()))
        .map_err(fail)?;
    m.enable_host_profiling();
    let progs = build_programs(p, &mut m, &mut t, Some(root));
    let report = t.time("machine.run", Some(root), || m.run(progs, p.limit));
    t.close(root);
    let report = report.map_err(fail)?;
    let regions = m
        .host_profile()
        .map(|h| h.rows().iter().map(|&(name, _, ns)| (name, ns)).collect())
        .unwrap_or_default();
    Ok(TracedPoint {
        key: p.key.clone(),
        cycles: report.cycles,
        skipped: m.fastforward_skipped_cycles(),
        stats: report.stats,
        regions,
        flow_stall_replays: m.flow_stall_replays(),
        trace: t,
    })
}

/// One traced pass over a workload.
#[derive(Debug)]
pub struct TracedPass {
    pub wall_s: f64,
    /// Every point, in input order; a failed point holds its message.
    pub points: Vec<Result<TracedPoint, String>>,
    /// The methodology derivations (Tables 3–6, Fig. 3), when the
    /// workload has them.
    pub derive: Option<Trace>,
}

/// Run every point traced, grouped as the driver groups them (groups go
/// through the sweep runner; points of a group run in order), then time
/// the methodology derivations on the driver's suite when there is one.
pub fn traced_pass(groups: &[Vec<PointSpec>], driver: &DriverOut, epoch: Instant) -> TracedPass {
    let t0 = Instant::now();
    let run_group = |g: &Vec<PointSpec>| -> Vec<Result<TracedPoint, String>> {
        g.iter().map(|p| trace_point(p, epoch)).collect()
    };
    let points = match sweep::try_parallel_map(groups, run_group) {
        Ok(per_group) => per_group.into_iter().flatten().collect(),
        Err(e) => groups
            .iter()
            .flatten()
            .map(|p| Err(format!("{}: {e}", p.key)))
            .collect(),
    };
    let derive = driver.suite.as_ref().map(|suite| {
        let mut t = Trace::new(epoch);
        let rendered = t.time("methodology.derive", None, || derive_perfect(suite));
        std::hint::black_box(rendered);
        t
    });
    TracedPass {
        wall_s: t0.elapsed().as_secs_f64(),
        points,
        derive,
    }
}

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Host-time metrics of one pass. `threads` is the sweep's thread count.
pub fn host_metrics(pass: &TracedPass, threads: usize) -> Vec<Metric> {
    let ok: Vec<&TracedPoint> = pass.points.iter().filter_map(|p| p.as_ref().ok()).collect();
    let span_s = |name: &str| ok.iter().map(|p| p.trace.total_ns(name)).sum::<u64>() as f64 * 1e-9;
    let region = |name: &str| {
        ok.iter()
            .map(|p| p.regions.get(name).copied().unwrap_or(0))
            .sum::<u64>() as f64
    };
    let cycles = ok.iter().map(|p| p.cycles).sum::<u64>() as f64;
    let busy = ok.iter().map(|p| p.cycles - p.skipped).sum::<u64>() as f64;
    let all_regions: f64 = ok.iter().flat_map(|p| p.regions.values()).sum::<u64>() as f64;
    let run_ns = span_s("machine.run") * 1e9;
    let derive_s = pass
        .derive
        .as_ref()
        .map_or(0.0, |t| t.total_ns("methodology.derive") as f64 * 1e-9);
    vec![
        (
            "sweep.util",
            ratio(span_s("point"), pass.wall_s * threads as f64),
            "ratio",
        ),
        ("kernels.build_s", span_s("kernels.build"), "s"),
        ("fortran.restructure_s", span_s("fortran.restructure"), "s"),
        ("fortran.lower_s", span_s("fortran.lower"), "s"),
        ("machine.new_s", span_s("machine.new"), "s"),
        ("machine.run_s", span_s("machine.run"), "s"),
        ("methodology.derive_s", derive_s, "s"),
        (
            "memory.host_ns_per_cycle",
            ratio(region("gmem"), cycles),
            "ns/cycle",
        ),
        (
            "network.fwd_host_ns_per_cycle",
            ratio(region("forward"), cycles),
            "ns/cycle",
        ),
        (
            "network.rev_host_ns_per_cycle",
            ratio(region("reverse"), cycles),
            "ns/cycle",
        ),
        (
            "cluster.host_ns_per_cycle",
            ratio(region("cluster"), cycles),
            "ns/cycle",
        ),
        (
            "fastfwd.host_ns_per_busy_cycle",
            ratio(region("fastfwd"), busy),
            "ns/cycle",
        ),
        (
            "fault.host_ns_per_cycle",
            ratio(region("faults"), cycles),
            "ns/cycle",
        ),
        (
            "stats.timeline_host_ns_per_cycle",
            ratio(region("timeline"), cycles),
            "ns/cycle",
        ),
        // The run loop itself: `Machine::run` time no profiler region covers.
        (
            "machine.loop_host_ns_per_cycle",
            ratio(run_ns - all_regions, cycles),
            "ns/cycle",
        ),
    ]
}

/// Simulated-counter metrics of one pass (identical on every pass).
pub fn counter_metrics(pass: &TracedPass) -> Vec<Metric> {
    let ok: Vec<&TracedPoint> = pass.points.iter().filter_map(|p| p.as_ref().ok()).collect();
    let sum = |k: &str| ok.iter().map(|p| p.stats.counter(k)).sum::<u64>() as f64;
    let cycles = ok.iter().map(|p| p.cycles).sum::<u64>() as f64;
    let skipped = ok.iter().map(|p| p.skipped).sum::<u64>() as f64;
    let ce_total = ["ce.busy", "ce.stall_mem", "ce.stall_sync", "ce.idle"]
        .iter()
        .map(|k| sum(k))
        .sum::<f64>();
    let mut out: Vec<Metric> = vec![
        ("fastfwd.skip_ratio", ratio(skipped, cycles), "ratio"),
        ("ce.busy_frac", ratio(sum("ce.busy"), ce_total), "ratio"),
        (
            "ce.stall_mem_frac",
            ratio(sum("ce.stall_mem"), ce_total),
            "ratio",
        ),
        (
            "ce.stall_sync_frac",
            ratio(sum("ce.stall_sync"), ce_total),
            "ratio",
        ),
        ("ce.idle_frac", ratio(sum("ce.idle"), ce_total), "ratio"),
        ("program.uops", sum("program.uops"), "count"),
        (
            "program.fused_ratio",
            ratio(sum("program.fused_ops"), sum("program.ops")),
            "ratio",
        ),
        (
            "cache.hit_ratio",
            ratio(sum("cache.hits"), sum("cache.accesses")),
            "ratio",
        ),
        (
            "prefetch.useful_ratio",
            ratio(sum("prefetch.words_returned"), sum("prefetch.requests")),
            "ratio",
        ),
        (
            "net.flow_stall_replays",
            ok.iter().map(|p| p.flow_stall_replays).sum::<u64>() as f64,
            "count",
        ),
        ("machine.cycles", cycles, "cycles"),
    ];
    let counts: [(&'static str, &'static str); 21] = [
        ("cache.mshr_stalls", "count"),
        ("cache.bank_stalls", "count"),
        ("ccbus.barrier_wait_cycles", "cycles"),
        ("ccbus.dispatches", "count"),
        ("prefetch.requests", "count"),
        ("prefetch.inject_stall_cycles", "cycles"),
        ("prefetch.retries", "count"),
        ("net.fwd.words_moved", "count"),
        ("net.fwd.conflicts", "count"),
        ("net.fwd.blocked_moves", "count"),
        ("net.rev.words_moved", "count"),
        ("net.rev.conflicts", "count"),
        ("net.rev.blocked_moves", "count"),
        ("net.fwd.drops", "count"),
        ("gmem.accesses", "count"),
        ("gmem.sync_ops", "count"),
        ("gmem.conflict_stalls", "cycles"),
        ("gmem.busy_cycles", "cycles"),
        ("fault.retries", "count"),
        ("fault.nacks", "count"),
        ("fault.timeouts", "count"),
    ];
    out.extend(counts.iter().map(|&(k, unit)| (k, sum(k), unit)));
    out
}
