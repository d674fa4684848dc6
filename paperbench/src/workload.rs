//! The four workloads: each one's untraced driver call, the points it
//! simulates (rebuilt here for the set-up and traced passes), and the
//! paper values its output is compared with.

use cedar::experiments::resilience::Resilience;
use cedar::experiments::PerfectSuite;
use cedar::experiments::{fig3, resilience, table1, table2, table3, table4, table5, table6};
use cedar::fortran::restructure::Level;
use cedar::fortran::SourceProgram;
use cedar::kernels::staged::cg::StagedCg;
use cedar::kernels::staged::rank64::{Rank64, Rank64Version};
use cedar::kernels::staged::tridiag::TridiagMatvec;
use cedar::kernels::staged::vload::VectorLoad;
use cedar::machine::{FaultPlan, LinkOutage, MachineConfig, MachineStats, ModuleOutage};
use cedar::perfect::{hand_spec, spec, CodeName, Variant};
use cedar::xylem::costs::XylemCosts;

/// Matrix dimension of the Table 1 rank-64 update. The driver's quick
/// size: every size that keeps the table's shape is a multiple of 32, and
/// the neighbours of 128 change the simulated work by 40–56 %, so a
/// seed-chosen size would swamp the run-to-run spread of `wall_s`.
pub const TABLE1_N: u32 = 128;
/// Rank-64 dimension of the resilience study (its driver's default).
pub const RESILIENCE_N: u32 = 128;
/// Clusters the Perfect suite's parallel variants use.
pub const PERFECT_CLUSTERS: usize = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Rank64,
    Table2GmMonitor,
    PerfectSuite,
    ResilienceFaults,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table1Rank64,
        Workload::Table2GmMonitor,
        Workload::PerfectSuite,
        Workload::ResilienceFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Rank64 => "table1_rank64",
            Workload::Table2GmMonitor => "table2_gm_monitor",
            Workload::PerfectSuite => "perfect_suite",
            Workload::ResilienceFaults => "resilience_faults",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the benchmark seed reaches this workload's inputs (the
    /// fault seed). The other workloads run the paper's fixed inputs.
    pub fn seeded(self) -> bool {
        self == Workload::ResilienceFaults
    }

    /// The key its recorded fingerprint is filed under for `seed`.
    pub fn fingerprint_key(self, seed: u64) -> String {
        if self.seeded() {
            seed.to_string()
        } else {
            "*".to_string()
        }
    }
}

/// One simulated point as its driver returned it.
#[derive(Debug, Clone)]
pub struct PointOut {
    pub key: String,
    pub cycles: u64,
    /// The point's reported figures (MFLOPS, latencies, times, ...).
    pub values: Vec<f64>,
    /// The per-run stats delta, for the drivers that return it.
    pub stats: Option<MachineStats>,
    /// `None` when the point completed; otherwise how it failed.
    pub failure: Option<String>,
}

/// Everything one driver call returned.
#[derive(Debug, Clone)]
pub struct DriverOut {
    pub points: Vec<PointOut>,
    /// The rendered tables the driver regenerates.
    pub rendered: String,
    /// Mean absolute relative error against paper-legible values, in
    /// percent; `None` where the workload holds no paper numbers.
    pub paper_err_pct: Option<f64>,
    /// The measured suite, kept so the traced pass can time the
    /// methodology derivations on it.
    pub suite: Option<PerfectSuite>,
}

/// Mean absolute relative error of `(measured, paper)` pairs, percent.
pub fn mean_abs_rel_err_pct(pairs: &[(f64, f64)]) -> f64 {
    let sum: f64 = pairs.iter().map(|&(m, p)| ((m - p) / p).abs()).sum();
    100.0 * sum / pairs.len() as f64
}

/// Run the workload's public driver once, untraced.
///
/// # Errors
///
/// The simulator error the driver propagated.
pub fn run_driver(w: Workload, seed: u64) -> cedar::machine::Result<DriverOut> {
    match w {
        Workload::Table1Rank64 => table1::run(TABLE1_N).map(table1_out),
        Workload::Table2GmMonitor => table2::run().map(table2_out),
        Workload::PerfectSuite => PerfectSuite::measure(PERFECT_CLUSTERS).map(perfect_out),
        Workload::ResilienceFaults => resilience::run(RESILIENCE_N, seed).map(resilience_out),
    }
}

fn stats_point(key: String, values: Vec<f64>, stats: &MachineStats) -> PointOut {
    PointOut {
        key,
        cycles: stats.counter("machine.cycles"),
        values,
        stats: Some(stats.clone()),
        failure: None,
    }
}

fn table1_out(t: table1::Table1) -> DriverOut {
    let mut points = Vec::new();
    let mut pairs = Vec::new();
    for row in &t.rows {
        for (c, st) in row.stats.iter().enumerate() {
            let key = format!("t1-{}-{}cl", row.version, c + 1);
            points.push(stats_point(key, vec![row.measured[c]], st));
            pairs.push((row.measured[c], row.paper[c]));
        }
    }
    DriverOut {
        points,
        rendered: t.render(),
        paper_err_pct: Some(mean_abs_rel_err_pct(&pairs)),
        suite: None,
    }
}

fn table2_out(t: table2::Table2) -> DriverOut {
    let mut points = Vec::new();
    for k in &t.kernels {
        for (p, st) in k.points.iter().zip(&k.stats) {
            let key = format!("t2-{}-{}ce", k.name, p.ces);
            points.push(stats_point(key, vec![p.latency, p.interarrival], st));
        }
    }
    DriverOut {
        points,
        rendered: t.render(),
        paper_err_pct: None,
        suite: None,
    }
}

/// The Table 3–6 and Fig. 3 derivations the Perfect suite feeds.
pub fn derive_perfect(suite: &PerfectSuite) -> String {
    let mut out = table3::run(suite).render();
    out.push_str(&table4::run(suite).render());
    out.push_str(&table5::run(suite).render());
    out.push_str(&table6::run(suite).render());
    out.push_str(&fig3::run(suite).render());
    out
}

fn perfect_out(suite: PerfectSuite) -> DriverOut {
    let mut points = Vec::new();
    for code in CodeName::ALL {
        for v in Variant::ALL {
            if let Some(r) = suite.get(code, v) {
                points.push(PointOut {
                    key: perfect_key(code, v),
                    cycles: r.sim_cycles,
                    values: vec![r.seconds, r.mflops, r.speedup],
                    stats: None,
                    failure: None,
                });
            }
        }
    }
    let rendered = derive_perfect(&suite);
    // Table 4's hand-optimized times are the suite's paper-legible values.
    let pairs: Vec<(f64, f64)> = table4::run(&suite)
        .rows
        .iter()
        .filter_map(|r| r.paper_seconds.map(|p| (r.hand_seconds, p)))
        .collect();
    DriverOut {
        points,
        rendered,
        paper_err_pct: Some(mean_abs_rel_err_pct(&pairs)),
        suite: Some(suite),
    }
}

fn resilience_out(r: Resilience) -> DriverOut {
    let opt = |p: Option<usize>| p.map_or(-1.0, |v| v as f64);
    let points = r
        .rows
        .iter()
        .map(|row| PointOut {
            key: format!("res-{}-{}", row.workload, row.scenario),
            cycles: row.cycles,
            values: vec![
                row.slowdown,
                row.drops as f64,
                row.nacks as f64,
                row.retries as f64,
                row.timeouts as f64,
                row.prefetch_retries as f64,
                opt(row.retry_p50),
                opt(row.retry_p95),
                opt(row.retry_p99),
            ],
            stats: None,
            failure: (!row.completed).then(|| row.outcome.clone()),
        })
        .collect();
    DriverOut {
        points,
        rendered: r.render(),
        paper_err_pct: None,
        suite: None,
    }
}

fn perfect_key(code: CodeName, v: Variant) -> String {
    format!("pf-{code}-{v}")
}

/// How a point's programs are built onto a fresh machine.
#[derive(Debug, Clone)]
pub enum Build {
    Rank64(Rank64),
    VectorLoad(VectorLoad),
    Tridiag(TridiagMatvec),
    /// CG self-schedules over exactly this many CEs.
    Cg(StagedCg, usize),
    /// A Fortran-model program: restructured, then lowered with these
    /// Xylem costs.
    Fortran(Box<FortranPoint>),
}

#[derive(Debug, Clone)]
pub struct FortranPoint {
    pub src: SourceProgram,
    pub level: Level,
    pub costs: XylemCosts,
}

/// One point of a workload, rebuilt through the same public calls its
/// driver makes.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// The key of the driver's point it reproduces.
    pub key: String,
    pub cfg: MachineConfig,
    /// Clusters the programs are built (or lowered) for.
    pub clusters: usize,
    pub limit: u64,
    pub build: Build,
}

/// The workload's points, grouped the way its driver runs them: groups
/// go through the sweep runner side by side, the points of one group run
/// one after another (Table 1 is one serial group; a Perfect code's
/// variants share a group).
pub fn point_groups(w: Workload, seed: u64) -> Vec<Vec<PointSpec>> {
    match w {
        Workload::Table1Rank64 => vec![table1_points()],
        Workload::Table2GmMonitor => table2_points().into_iter().map(|p| vec![p]).collect(),
        Workload::PerfectSuite => CodeName::ALL.into_iter().map(perfect_points).collect(),
        Workload::ResilienceFaults => resilience_points(seed)
            .into_iter()
            .map(|p| vec![p])
            .collect(),
    }
}

fn cedar(clusters: usize) -> MachineConfig {
    MachineConfig::cedar_with_clusters(clusters).with_env_threads()
}

fn table1_points() -> Vec<PointSpec> {
    let versions = [
        ("GM/no-pref", Rank64Version::GmNoPrefetch),
        ("GM/pref", Rank64Version::GmPrefetch { block_words: 32 }),
        ("GM/cache", Rank64Version::GmCache),
    ];
    let mut out = Vec::new();
    for (name, version) in versions {
        for clusters in 1..=4 {
            out.push(PointSpec {
                key: format!("t1-{name}-{clusters}cl"),
                cfg: cedar(clusters),
                clusters,
                limit: 8_000_000_000,
                build: Build::Rank64(Rank64 {
                    n: TABLE1_N,
                    k: 64,
                    version,
                }),
            });
        }
    }
    out
}

fn table2_points() -> Vec<PointSpec> {
    let sizes = table2::Table2Sizes::default();
    let mut out = Vec::new();
    for name in ["VL", "TM", "RK", "CG"] {
        for ces in [8usize, 16, 32] {
            let clusters = if name == "CG" {
                ces.div_ceil(8)
            } else {
                ces / 8
            };
            let build = match name {
                "VL" => Build::VectorLoad(VectorLoad {
                    words_per_ce: sizes.vl_words_per_ce,
                    block: 32,
                }),
                "TM" => Build::Tridiag(TridiagMatvec {
                    n: sizes.tm_n,
                    sweeps: 2,
                }),
                "RK" => Build::Rank64(Rank64 {
                    n: sizes.rk_n,
                    k: 64,
                    version: Rank64Version::GmPrefetch { block_words: 256 },
                }),
                _ => Build::Cg(
                    StagedCg {
                        n: sizes.cg_n,
                        iterations: 2,
                    },
                    ces,
                ),
            };
            out.push(PointSpec {
                key: format!("t2-{name}-{ces}ce"),
                cfg: cedar(clusters),
                clusters,
                limit: 2_000_000_000,
                build,
            });
        }
    }
    out
}

/// The source a Perfect variant runs: hand codes swap in the hand
/// specification, and every automatable-level variant drops removable
/// I/O (the MG3D Table 3 footnote).
fn perfect_source(code: CodeName, v: Variant) -> SourceProgram {
    let s = match v {
        Variant::Hand => hand_spec(code).unwrap_or_else(|| spec(code)),
        _ => spec(code),
    };
    let mut src = s.to_source();
    if !matches!(v, Variant::Serial | Variant::Kap) {
        for ph in &mut src.phases {
            if ph.io.as_ref().is_some_and(|io| io.removable) {
                ph.io = None;
            }
        }
    }
    src
}

fn perfect_points(code: CodeName) -> Vec<PointSpec> {
    let mut out = Vec::new();
    for v in Variant::ALL {
        if v == Variant::Hand && hand_spec(code).is_none() {
            continue;
        }
        let (level, costs) = match v {
            Variant::Serial => (Level::Serial, XylemCosts::cedar()),
            Variant::Kap => (Level::KapCedar, XylemCosts::cedar()),
            Variant::Automatable => (Level::Automatable, XylemCosts::cedar()),
            Variant::AutoNoSync | Variant::Hand => {
                (Level::Automatable, XylemCosts::cedar_without_sync())
            }
            Variant::AutoNoPrefetch => (Level::Automatable, XylemCosts::cedar_without_prefetch()),
        };
        let clusters = if v == Variant::Serial {
            1
        } else {
            PERFECT_CLUSTERS
        };
        out.push(PointSpec {
            key: perfect_key(code, v),
            cfg: cedar(clusters),
            clusters,
            limit: 4_000_000_000,
            build: Build::Fortran(Box::new(FortranPoint {
                src: perfect_source(code, v),
                level,
                costs,
            })),
        });
    }
    out
}

/// The fault plan of one resilience scenario (`None`: the clean run).
fn scenario_plan(s: &resilience::Scenario, seed: u64) -> Option<FaultPlan> {
    match *s {
        resilience::Scenario::Clean => None,
        resilience::Scenario::Transient(ppm) => Some(FaultPlan {
            drop_per_million: ppm,
            nack_per_million: ppm / 2,
            ..FaultPlan::none(seed)
        }),
        resilience::Scenario::Outage => Some(FaultPlan {
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

fn resilience_points(seed: u64) -> Vec<PointSpec> {
    const CLUSTERS: usize = 4;
    let mut out = Vec::new();
    for w in resilience::Workload::ALL {
        for s in resilience::Scenario::all() {
            let mut cfg = cedar(CLUSTERS);
            if let Some(plan) = scenario_plan(&s, seed) {
                cfg = cfg.with_faults(plan);
            }
            let build = match w {
                resilience::Workload::Rank64NoPref => Build::Rank64(Rank64 {
                    n: RESILIENCE_N,
                    k: 64,
                    version: Rank64Version::GmNoPrefetch,
                }),
                resilience::Workload::Rank64Pref => Build::Rank64(Rank64 {
                    n: RESILIENCE_N,
                    k: 64,
                    version: Rank64Version::GmPrefetch { block_words: 32 },
                }),
                resilience::Workload::Trfd => Build::Fortran(Box::new(FortranPoint {
                    src: spec(CodeName::Trfd).to_source(),
                    level: Level::Automatable,
                    costs: XylemCosts::cedar(),
                })),
            };
            out.push(PointSpec {
                key: format!("res-{}-{}", w.label(), s.label()),
                cfg,
                clusters: CLUSTERS,
                limit: 4_000_000_000,
                build,
            });
        }
    }
    out
}
