//! Table 2: global memory performance under the hardware monitor.
//!
//! Four computational kernels — vector load (VL), tridiagonal
//! matrix–vector multiply (TM), rank-64 update (RK), conjugate gradient
//! (CG) — run on 8, 16 and 32 processors using global data and
//! prefetching. The metrics are first-word **Latency** and
//! **Interarrival** time between the remaining words of a prefetch block,
//! in instruction cycles, measured at the prefetch unit (minimums: 8 and
//! 1). RK uses 256-word prefetch blocks and overlaps aggressively, so it
//! degrades fastest; VL is memory-dominated but uses 32-word compiler
//! blocks; TM and CG contain register–register vector work that lowers
//! their demand (§4.1).
//!
//! The Table 2 numbers now come from the shared stats layer
//! ([`cedar_machine::stats`]): each run's [`RunReport::stats`] delta
//! carries the prefetch counters and the `prefetch.latency` histogram
//! alongside every other subsystem counter, and the per-point registry is
//! attached to the result via [`Table2Kernel::stats`] so latency figures
//! can be cross-checked against network and memory-bank contention.
//!
//! [`RunReport::stats`]: cedar_machine::machine::RunReport::stats

use cedar_kernels::staged::cg::StagedCg;
use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_kernels::staged::tridiag::TridiagMatvec;
use cedar_kernels::staged::vload::VectorLoad;
use cedar_machine::{MachineConfig, MachineStats};

use crate::experiments::ckpt;
use crate::report::{f1, f2, Table};

/// Monitor readings for one kernel at one CE count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorPoint {
    pub ces: usize,
    pub latency: f64,
    pub interarrival: f64,
}

/// One kernel's row set.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Kernel {
    pub name: &'static str,
    pub points: Vec<MonitorPoint>,
    /// Per-run stats delta from the machine-wide instrumentation layer,
    /// aligned with `points` (one registry per CE count).
    pub stats: Vec<MachineStats>,
}

/// The whole experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    pub kernels: Vec<Table2Kernel>,
    /// Crash-recovery provenance: one line per point resumed from a
    /// snapshot. Empty for uninterrupted runs.
    pub resumed: Vec<String>,
}

/// Problem sizes of the four kernels. [`Default`] is the paper-scale
/// experiment; the golden-snapshot tests shrink every kernel to keep a
/// debug-build run affordable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Sizes {
    /// Words each CE loads in VL.
    pub vl_words_per_ce: u32,
    /// TM system size.
    pub tm_n: u32,
    /// RK matrix dimension.
    pub rk_n: u32,
    /// CG system size.
    pub cg_n: u64,
}

impl Default for Table2Sizes {
    fn default() -> Self {
        Table2Sizes {
            vl_words_per_ce: 8192,
            tm_n: 32 * 1024,
            rk_n: 128,
            cg_n: 32 * 1024,
        }
    }
}

/// Run the Table 2 experiment at 8, 16 and 32 CEs, at paper scale.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run() -> cedar_machine::Result<Table2> {
    run_sized(Table2Sizes::default())
}

/// The four monitored kernels, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Vl,
    Tm,
    Rk,
    Cg,
}

impl Kernel {
    const ALL: [Kernel; 4] = [Kernel::Vl, Kernel::Tm, Kernel::Rk, Kernel::Cg];

    fn name(self) -> &'static str {
        match self {
            Kernel::Vl => "VL",
            Kernel::Tm => "TM",
            Kernel::Rk => "RK",
            Kernel::Cg => "CG",
        }
    }
}

/// Run one `(kernel, CE count)` point: build a fresh machine, run the
/// kernel, read the monitor.
fn run_point(
    sizes: Table2Sizes,
    kernel: Kernel,
    ces: usize,
    ck: Option<&ckpt::Checkpoint>,
) -> cedar_machine::Result<(MonitorPoint, MachineStats, Option<String>)> {
    // CG self-schedules over exactly `ces` CEs, the others decompose per
    // cluster.
    let clusters = match kernel {
        Kernel::Cg => ces.div_ceil(8),
        _ => ces / 8,
    };
    let key = format!("t2-{}-{ces}ce", kernel.name());
    let cfg = MachineConfig::cedar_with_clusters(clusters);
    let r = ckpt::run_point(ck, &key, cfg, 2_000_000_000, |m| match kernel {
        // VL: pure prefetched loads, 32-word compiler blocks.
        Kernel::Vl => VectorLoad {
            words_per_ce: sizes.vl_words_per_ce,
            block: 32,
        }
        .build(m, clusters),
        // TM: tridiagonal matvec.
        Kernel::Tm => TridiagMatvec {
            n: sizes.tm_n,
            sweeps: 2,
        }
        .build(m, clusters),
        // RK: rank-64 update with 256-word blocks, aggressive overlap.
        Kernel::Rk => Rank64 {
            n: sizes.rk_n,
            k: 64,
            version: Rank64Version::GmPrefetch { block_words: 256 },
        }
        .build(m, clusters),
        // CG: 5-diagonal conjugate gradient.
        Kernel::Cg => StagedCg {
            n: sizes.cg_n,
            iterations: 2,
        }
        .build(m, ces),
    })?;
    let provenance = ckpt::provenance_of(&key, &r);
    Ok((
        MonitorPoint {
            ces,
            latency: r.prefetch.mean_latency(),
            interarrival: r.prefetch.mean_interarrival(),
        },
        r.stats,
        provenance,
    ))
}

/// Run the Table 2 experiment with custom kernel sizes. The 12 points
/// (4 kernels × 3 CE counts) are independent simulations and run through
/// the [`sweep`](crate::experiments::sweep) runner; results are
/// assembled in table order whatever the host thread count.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_sized(sizes: Table2Sizes) -> cedar_machine::Result<Table2> {
    run_sized_with(sizes, None)
}

/// [`run_sized`] under an optional crash-recovery plan: each of the 12
/// (kernel × CE count) simulations auto-checkpoints to its own snapshot
/// file, and `--resume` continues interrupted points (recorded in
/// [`Table2::resumed`]).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_sized_with(
    sizes: Table2Sizes,
    ck: Option<&ckpt::Checkpoint>,
) -> cedar_machine::Result<Table2> {
    let ce_counts = [8usize, 16, 32];
    let tasks: Vec<(Kernel, usize)> = Kernel::ALL
        .iter()
        .flat_map(|&k| ce_counts.iter().map(move |&ces| (k, ces)))
        .collect();
    let results = crate::experiments::sweep::parallel_map(&tasks, |&(kernel, ces)| {
        run_point(sizes, kernel, ces, ck)
    });

    let mut kernels = Vec::new();
    let mut resumed = Vec::new();
    let mut results = results.into_iter();
    for kernel in Kernel::ALL {
        let mut points = Vec::new();
        let mut stats = Vec::new();
        for _ in &ce_counts {
            let (point, st, provenance) = results.next().expect("one result per task")?;
            points.push(point);
            stats.push(st);
            resumed.extend(provenance);
        }
        kernels.push(Table2Kernel {
            name: kernel.name(),
            points,
            stats,
        });
    }
    Ok(Table2 { kernels, resumed })
}

impl Table2 {
    /// Render the table (latency / interarrival per kernel per CE count).
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 2: global memory performance (first-word latency / interarrival, cycles; minima 8 / 1)",
        );
        t.header(&["kernel", "8 CEs", "16 CEs", "32 CEs"]);
        for k in &self.kernels {
            let mut cols = vec![k.name.to_string()];
            for p in &k.points {
                cols.push(format!("{} / {}", f1(p.latency), f2(p.interarrival)));
            }
            t.row(cols);
        }
        let mut out = t.render();
        for line in &self.resumed {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Degradation of a kernel's latency from 8 to 32 CEs.
    pub fn latency_growth(&self, name: &str) -> Option<f64> {
        let k = self.kernels.iter().find(|k| k.name == name)?;
        let first = k.points.first()?.latency;
        let last = k.points.last()?.latency;
        Some(last / first)
    }
}
