//! Resilience study: the machine under deterministic fault injection.
//!
//! The paper measures Cedar healthy; this study asks how gracefully the
//! simulated machine degrades when it is not. Each sweep point runs one
//! workload — the two global-memory Table 1 bandwidth kernels plus one
//! Perfect-suite code — under a [`FaultPlan`]: a clean baseline, three
//! transient-fault rates (packet drops on both omega networks plus
//! forward-network NACKs at half the drop rate), and one scheduled-outage
//! scenario (a switch port down and a global-memory module offline for
//! fixed cycle windows early in the run). The retry/NACK protocols must
//! carry every workload to completion with the *same answer*, only
//! slower; the table reports the slowdown and the recovery traffic
//! (drops, NACKs, retries, timeouts, retry-latency p99) that bought it.
//!
//! Every point is deterministic — the fault plan's seed fixes the exact
//! packets lost — so the whole table is golden-snapshotted like the
//! paper-facing tables, and points run through the
//! [`sweep`](crate::experiments::sweep) runner.

use cedar_fortran::compile::Backend;
use cedar_fortran::restructure::{Level, Restructurer};
use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::machine::RunReport;
use cedar_machine::{FaultPlan, LinkOutage, MachineConfig, MachineError, ModuleOutage};
use cedar_perfect::{spec, CodeName};
use cedar_xylem::costs::XylemCosts;

use crate::experiments::{ckpt, sweep};
use crate::report::{f2, Table};

/// Clusters every point runs on (the full machine).
const CLUSTERS: usize = 4;

/// Cycle budget per point; generous because faulty runs retry.
const LIMIT: u64 = 4_000_000_000;

/// Transient drop rates swept, in doomed packets per million injections
/// (the forward-network NACK rate rides along at half the drop rate).
pub const DROP_RATES_PPM: [u32; 3] = [200, 1_000, 5_000];

/// The workloads under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Rank-64 update, global memory without prefetch (latency-bound).
    Rank64NoPref,
    /// Rank-64 update with prefetch (bandwidth-bound; exercises the
    /// prefetch unit's retry path).
    Rank64Pref,
    /// TRFD at the automatable level (loop scheduling through
    /// global-memory counters; exercises sync-op retries).
    Trfd,
}

impl Workload {
    /// All workloads in report order.
    pub const ALL: [Workload; 3] = [Workload::Rank64NoPref, Workload::Rank64Pref, Workload::Trfd];

    /// Human-readable workload name (the table's first column).
    pub fn label(self) -> &'static str {
        match self {
            Workload::Rank64NoPref => "rank-64 GM/no-pref",
            Workload::Rank64Pref => "rank-64 GM/pref",
            Workload::Trfd => "TRFD automatable",
        }
    }
}

/// One fault scenario applied to every workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scenario {
    /// No fault plan at all — the byte-identical healthy baseline.
    Clean,
    /// Transient packet loss at this drop rate (ppm), NACKs at half.
    Transient(u32),
    /// Scheduled outages: switch port 0 down and global-memory module 0
    /// offline for fixed early windows.
    Outage,
}

impl Scenario {
    /// All scenarios in report order.
    pub fn all() -> Vec<Scenario> {
        let mut v = vec![Scenario::Clean];
        v.extend(DROP_RATES_PPM.iter().map(|&r| Scenario::Transient(r)));
        v.push(Scenario::Outage);
        v
    }

    /// Human-readable scenario name (the table's second column).
    pub fn label(&self) -> String {
        match self {
            Scenario::Clean => "clean".to_string(),
            Scenario::Transient(ppm) => format!("drop {ppm}/M"),
            Scenario::Outage => "outage".to_string(),
        }
    }

    /// The fault plan of this scenario, or `None` for the clean run.
    fn plan(&self, seed: u64) -> Option<FaultPlan> {
        match *self {
            Scenario::Clean => None,
            Scenario::Transient(ppm) => Some(FaultPlan {
                drop_per_million: ppm,
                nack_per_million: ppm / 2,
                ..FaultPlan::none(seed)
            }),
            Scenario::Outage => Some(FaultPlan {
                link_outages: vec![LinkOutage {
                    port: 0,
                    from: 2_000,
                    until: 6_000,
                }],
                module_outages: vec![ModuleOutage {
                    module: 0,
                    from: 2_000,
                    until: 10_000,
                }],
                ..FaultPlan::none(seed)
            }),
        }
    }
}

/// The outcome of one (workload, scenario) point.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceRow {
    pub workload: &'static str,
    pub scenario: String,
    /// Whether the run finished (false: deadlock, fault exhaustion or
    /// cycle-limit exhaustion — the `outcome` says which).
    pub completed: bool,
    /// "ok", or the failure kind.
    pub outcome: String,
    /// Simulated cycles to completion (0 when not completed).
    pub cycles: u64,
    /// Cycles relative to the same workload's clean run.
    pub slowdown: f64,
    /// Packets doomed on either network.
    pub drops: u64,
    /// NACKed operations seen by the CE retry controllers.
    pub nacks: u64,
    /// Packets resent by CE retry controllers (timeout or NACK backoff).
    pub retries: u64,
    /// Reply timeouts declared by CE retry controllers.
    pub timeouts: u64,
    /// Prefetch-element re-requests after a lost reply.
    pub prefetch_retries: u64,
    /// Median retry latency in cycles (issue → resolution).
    pub retry_p50: Option<usize>,
    /// 95th-percentile retry latency in cycles.
    pub retry_p95: Option<usize>,
    /// 99th-percentile retry latency in cycles (issue → resolution).
    pub retry_p99: Option<usize>,
}

/// The whole experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Resilience {
    pub rows: Vec<ResilienceRow>,
    pub n: u32,
    pub seed: u64,
    /// Crash-recovery provenance: one line per point resumed from a
    /// snapshot. Empty for uninterrupted studies.
    pub resumed: Vec<String>,
}

fn run_point(
    w: Workload,
    s: &Scenario,
    n: u32,
    seed: u64,
    ck: Option<&ckpt::Checkpoint>,
) -> cedar_machine::Result<(ResilienceRow, Option<String>)> {
    let mut cfg = MachineConfig::cedar_with_clusters(CLUSTERS);
    if let Some(plan) = s.plan(seed) {
        cfg = cfg.with_faults(plan);
    }
    let key = format!("res-{}-{}", w.label(), s.label());
    let report = match w {
        Workload::Rank64NoPref | Workload::Rank64Pref => {
            let version = if w == Workload::Rank64Pref {
                Rank64Version::GmPrefetch { block_words: 32 }
            } else {
                Rank64Version::GmNoPrefetch
            };
            ckpt::run_point(ck, &key, cfg, LIMIT, |m| {
                Rank64 { n, k: 64, version }.build(m, CLUSTERS)
            })
        }
        Workload::Trfd => {
            let src = spec(CodeName::Trfd).to_source();
            let compiled = Restructurer::default().restructure(&src, Level::Automatable);
            let backend = Backend::new(XylemCosts::cedar());
            if let Some(ck) = ck {
                let path = ck.snap_path(&key);
                let resuming = ck.resume && path.exists();
                let cfg = cfg.with_checkpoint(ck.every, &path);
                let r = if resuming {
                    backend.resume_on(&compiled, cfg, CLUSTERS, LIMIT, &path)
                } else {
                    backend.execute_on(&compiled, cfg, CLUSTERS, LIMIT)
                };
                if r.is_ok() {
                    let _ = std::fs::remove_file(&path);
                }
                r
            } else {
                backend.execute_on(&compiled, cfg, CLUSTERS, LIMIT)
            }
        }
    };
    Ok(match report {
        Ok(r) => {
            let provenance = ckpt::provenance_of(&key, &r);
            (row_from_report(w, s, &r), provenance)
        }
        // A structured failure is a *result* of the study, not an error
        // of the sweep: the row records what the machine reported.
        Err(MachineError::Deadlock { .. }) => (failed_row(w, s, "deadlock"), None),
        Err(MachineError::Faulted { .. }) => (failed_row(w, s, "fault exhaustion"), None),
        Err(MachineError::CycleLimitExceeded { .. }) => (failed_row(w, s, "cycle limit"), None),
        Err(e) => return Err(e),
    })
}

fn row_from_report(w: Workload, s: &Scenario, r: &RunReport) -> ResilienceRow {
    let c = |k: &str| r.stats.counter(k);
    ResilienceRow {
        workload: w.label(),
        scenario: s.label(),
        completed: true,
        outcome: "ok".to_string(),
        cycles: r.cycles,
        slowdown: 0.0, // filled in against the clean row afterwards
        drops: c("net.fwd.drops") + c("net.rev.drops"),
        nacks: c("fault.nacks"),
        retries: c("fault.retries"),
        timeouts: c("fault.timeouts"),
        prefetch_retries: c("prefetch.retries"),
        retry_p50: r
            .stats
            .histogram("fault.retry_latency")
            .and_then(|h| h.percentile(0.5)),
        retry_p95: r
            .stats
            .histogram("fault.retry_latency")
            .and_then(|h| h.percentile(0.95)),
        retry_p99: r
            .stats
            .histogram("fault.retry_latency")
            .and_then(|h| h.percentile(0.99)),
    }
}

fn failed_row(w: Workload, s: &Scenario, outcome: &str) -> ResilienceRow {
    ResilienceRow {
        workload: w.label(),
        scenario: s.label(),
        completed: false,
        outcome: outcome.to_string(),
        cycles: 0,
        slowdown: 0.0,
        drops: 0,
        nacks: 0,
        retries: 0,
        timeouts: 0,
        prefetch_retries: 0,
        retry_p50: None,
        retry_p95: None,
        retry_p99: None,
    }
}

/// Run the resilience study: every workload at every scenario. `n` is
/// the rank-64 matrix dimension; `seed` fixes the fault plan's random
/// decisions, so a (n, seed) pair names one exact reproducible table.
///
/// # Errors
///
/// Propagates machine *construction* errors (invalid configuration).
/// Structured run failures (deadlock, fault exhaustion, cycle limit) are
/// reported as non-completed rows, not errors.
pub fn run(n: u32, seed: u64) -> cedar_machine::Result<Resilience> {
    run_with(n, seed, None)
}

/// [`run`] under an optional crash-recovery plan: each (workload,
/// scenario) simulation auto-checkpoints to its own snapshot file, and
/// `--resume` continues interrupted points (recorded in
/// [`Resilience::resumed`]).
///
/// # Errors
///
/// As [`run`], plus snapshot read/validation failures.
pub fn run_with(
    n: u32,
    seed: u64,
    ck: Option<&ckpt::Checkpoint>,
) -> cedar_machine::Result<Resilience> {
    let scenarios = Scenario::all();
    let points: Vec<(Workload, Scenario)> = Workload::ALL
        .iter()
        .flat_map(|&w| scenarios.iter().map(move |s| (w, s.clone())))
        .collect();
    let results = sweep::parallel_map(&points, |(w, s)| run_point(*w, s, n, seed, ck));
    let mut rows = Vec::with_capacity(results.len());
    let mut resumed = Vec::new();
    for r in results {
        let (row, provenance) = r?;
        rows.push(row);
        resumed.extend(provenance);
    }
    // Slowdown against each workload's clean baseline.
    for w in Workload::ALL {
        let clean = rows
            .iter()
            .find(|r| r.workload == w.label() && r.scenario == "clean" && r.completed)
            .map(|r| r.cycles);
        if let Some(base) = clean.filter(|&b| b > 0) {
            for r in rows.iter_mut().filter(|r| r.workload == w.label()) {
                if r.completed {
                    r.slowdown = r.cycles as f64 / base as f64;
                }
            }
        }
    }
    Ok(Resilience {
        rows,
        n,
        seed,
        resumed,
    })
}

impl Resilience {
    /// Render the study table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&format!(
            "Resilience: fault injection on Cedar (rank-64 n = {}, seed = {:#x})",
            self.n, self.seed
        ));
        t.header(&[
            "workload",
            "scenario",
            "outcome",
            "cycles",
            "slowdown",
            "drops",
            "nacks",
            "retries",
            "timeouts",
            "pf.retries",
            "retry p50",
            "retry p95",
            "retry p99",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.workload.to_string(),
                r.scenario.clone(),
                r.outcome.clone(),
                if r.completed {
                    r.cycles.to_string()
                } else {
                    "-".to_string()
                },
                if r.completed && r.slowdown > 0.0 {
                    f2(r.slowdown)
                } else {
                    "-".to_string()
                },
                r.drops.to_string(),
                r.nacks.to_string(),
                r.retries.to_string(),
                r.timeouts.to_string(),
                r.prefetch_retries.to_string(),
                r.retry_p50.map_or("-".to_string(), |p| p.to_string()),
                r.retry_p95.map_or("-".to_string(), |p| p.to_string()),
                r.retry_p99.map_or("-".to_string(), |p| p.to_string()),
            ]);
        }
        let mut out = t.render();
        for line in &self.resumed {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}
