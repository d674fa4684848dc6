//! Table 1: MFLOPS for the rank-64 update on Cedar.
//!
//! Three memory-system versions (GM/no-pref, GM/pref, GM/cache) across
//! one to four clusters. The paper's values:
//!
//! | version    | 1 cl. | 2 cl. | 3 cl. | 4 cl. |
//! |------------|-------|-------|-------|-------|
//! | GM/no-pref | 14.5  | 29.0  | 43.0  | 55.0  |
//! | GM/pref    | 50.0  | 84.0  | 96.0  | 104.0 |
//! | GM/cache   | 52.0  | 104.0 | 152.0 | 208.0 |

use cedar_kernels::staged::rank64::{Rank64, Rank64Version};
use cedar_machine::{MachineConfig, MachineStats};
use cedar_perfect::reference::paper;

use crate::experiments::ckpt;
use crate::report::{f1, Table};

/// One version's MFLOPS across cluster counts, with the paper's row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    pub version: &'static str,
    pub measured: [f64; 4],
    pub paper: [f64; 4],
    /// Per-run stats delta from the machine-wide instrumentation layer,
    /// one registry per cluster count (index `c` holds `c + 1` clusters).
    pub stats: Vec<MachineStats>,
}

/// The whole experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    pub rows: Vec<Table1Row>,
    /// Matrix dimension used by the simulated kernel.
    pub n: u32,
    /// Crash-recovery provenance: one line per point that was resumed
    /// from a snapshot rather than run start-to-finish. Empty for
    /// uninterrupted tables, so their rendering is unchanged.
    pub resumed: Vec<String>,
}

/// Run the Table 1 experiment. `n` is the matrix dimension (the paper
/// uses 1K; 256 preserves the behaviour at a fraction of the simulation
/// cost because the working sets already exceed/fit the same levels of
/// the hierarchy).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run(n: u32) -> cedar_machine::Result<Table1> {
    run_with(n, None)
}

/// [`run`] under an optional crash-recovery plan: each of the 12
/// (version × cluster count) simulations auto-checkpoints to its own
/// snapshot file, and `--resume` continues interrupted points. Resumed
/// points are bit-identical to uninterrupted ones; the `resumed` field
/// records which points were recovered. The 12 points are independent
/// simulations and run through the [`sweep`](crate::experiments::sweep)
/// runner; results are assembled in table order whatever the host thread
/// count.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_with(n: u32, ck: Option<&ckpt::Checkpoint>) -> cedar_machine::Result<Table1> {
    let versions: [(&'static str, Rank64Version, [f64; 4]); 3] = [
        (
            "GM/no-pref",
            Rank64Version::GmNoPrefetch,
            paper::TABLE1_NOPREF,
        ),
        (
            "GM/pref",
            Rank64Version::GmPrefetch { block_words: 32 },
            paper::TABLE1_PREF,
        ),
        ("GM/cache", Rank64Version::GmCache, paper::TABLE1_CACHE),
    ];
    let tasks: Vec<(&'static str, Rank64Version, usize)> = versions
        .iter()
        .flat_map(|&(name, version, _)| (1..=4usize).map(move |c| (name, version, c)))
        .collect();
    let results = crate::experiments::sweep::parallel_map(&tasks, |&(name, version, clusters)| {
        let key = format!("t1-{name}-{clusters}cl");
        let cfg = MachineConfig::cedar_with_clusters(clusters);
        ckpt::run_point(ck, &key, cfg, 8_000_000_000, |m| {
            Rank64 { n, k: 64, version }.build(m, clusters)
        })
        .map(|r| (ckpt::provenance_of(&key, &r), r))
    });

    let mut rows = Vec::new();
    let mut resumed = Vec::new();
    let mut results = results.into_iter();
    for (name, _, paper_row) in versions {
        let mut measured = [0.0; 4];
        let mut stats = Vec::with_capacity(4);
        for m in &mut measured {
            let (provenance, r) = results.next().expect("one result per task")?;
            resumed.extend(provenance);
            *m = r.mflops;
            stats.push(r.stats);
        }
        rows.push(Table1Row {
            version: name,
            measured,
            paper: paper_row,
            stats,
        });
    }
    Ok(Table1 { rows, n, resumed })
}

impl Table1 {
    /// Render the paper-vs-measured table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&format!(
            "Table 1: MFLOPS for rank-64 update on Cedar (n = {})",
            self.n
        ));
        t.header(&[
            "version", "1 cl.", "2 cl.", "3 cl.", "4 cl.", "", "paper:", "1", "2", "3", "4",
        ]);
        for row in &self.rows {
            let mut cols = vec![row.version.to_string()];
            cols.extend(row.measured.iter().map(|&v| f1(v)));
            cols.push(String::new());
            cols.push(String::new());
            cols.extend(row.paper.iter().map(|&v| f1(v)));
            t.row(cols);
        }
        let mut out = t.render();
        for line in &self.resumed {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// The prefetch improvement factors over no-prefetch per cluster
    /// count (paper: 3.5, 2.9, 2.2, 1.9 — declining with contention).
    pub fn prefetch_factors(&self) -> [f64; 4] {
        let nopref = &self.rows[0].measured;
        let pref = &self.rows[1].measured;
        let mut out = [0.0; 4];
        for i in 0..4 {
            out[i] = pref[i] / nopref[i];
        }
        out
    }

    /// Cache-version improvement factors over no-prefetch (paper: 3.5 →
    /// 3.8, roughly flat — the cache version scales).
    pub fn cache_factors(&self) -> [f64; 4] {
        let nopref = &self.rows[0].measured;
        let cache = &self.rows[2].measured;
        let mut out = [0.0; 4];
        for i in 0..4 {
            out[i] = cache[i] / nopref[i];
        }
        out
    }
}
