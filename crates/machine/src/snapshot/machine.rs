//! Machine-level snapshot composition: the `MACH` section (run context,
//! allocation tables, monitoring state) followed by every subsystem's
//! section in a fixed order — forward omega, reverse omega, global
//! memory, per-cluster cache/bus/TLB, fault schedule, CE engines.

use std::path::Path;

use super::{frame_payload, read_payload, write_snapshot_file, SnapReader, SnapResult, SnapWriter};
use crate::error::{MachineError, Result};
use crate::ids::{CeId, ClusterId};
use crate::lower::LowerMeta;
use crate::machine::{Machine, Watchdog};
use crate::monitor::Histogrammer;
use crate::program::Program;
use crate::sched::{BarrierDef, BarrierScope, CounterDef};
use crate::stats::MachineStats;
use crate::time::Cycle;

/// Auto-checkpoint control threaded through the run loop when
/// [`crate::config::MachineConfig::checkpoint_every`] is set. A mid-run
/// image captures `start`, `limit` and `stats_start` (plus the watchdog
/// state) so `Machine::resume` can re-enter the loop exactly where the
/// killed run left it.
pub(crate) struct CkptCtl<'a> {
    pub every: u64,
    pub path: std::path::PathBuf,
    /// Earliest cycle at which the next checkpoint is due. The loop only
    /// tests this at its natural boundary (post-tick, post-skip), so a
    /// snapshot is never taken mid-tick.
    pub next: Cycle,
    /// Cycle the run started at.
    pub start: Cycle,
    /// The run's cycle budget (resume keeps it as provenance).
    pub limit: u64,
    /// The registry baseline taken at run start; a resumed run's report
    /// deltas against this, not against the restored machine's counters.
    pub stats_start: &'a MachineStats,
}

/// The run context decoded from a snapshot, handed back to
/// [`Machine::resume`] to re-enter the run loop.
pub(crate) struct ResumeCtx {
    pub start: Cycle,
    /// The interrupted run's cycle budget, kept as provenance. `resume`
    /// runs under the caller-supplied budget instead: a crashed run may
    /// have died *because* it hit its limit, and replaying that limit
    /// would kill the resumed run on its first cycle.
    pub limit: u64,
    pub watchdog: Watchdog,
    pub stats_start: MachineStats,
}

fn put_counter(w: &mut SnapWriter, c: &CounterDef) {
    match *c {
        CounterDef::Cluster { cluster, slot } => {
            w.u8(0);
            w.usize(cluster.0);
            w.usize(slot);
        }
        CounterDef::Global { base_addr } => {
            w.u8(1);
            w.u64(base_addr);
        }
        CounterDef::GlobalShared { base_addr } => {
            w.u8(2);
            w.u64(base_addr);
        }
    }
}

fn get_counter(r: &mut SnapReader) -> SnapResult<CounterDef> {
    Ok(match r.u8()? {
        0 => CounterDef::Cluster {
            cluster: ClusterId(r.usize()?),
            slot: r.usize()?,
        },
        1 => CounterDef::Global {
            base_addr: r.u64()?,
        },
        2 => CounterDef::GlobalShared {
            base_addr: r.u64()?,
        },
        b => return Err(r.err_invalid("counter definition", b)),
    })
}

fn put_barrier(w: &mut SnapWriter, b: &BarrierDef) {
    match b.scope {
        BarrierScope::Cluster(c) => {
            w.u8(0);
            w.usize(c.0);
        }
        BarrierScope::Global => w.u8(1),
    }
    w.u32(b.expected);
    w.u64(b.base_addr);
}

fn get_barrier(r: &mut SnapReader) -> SnapResult<BarrierDef> {
    let scope = match r.u8()? {
        0 => BarrierScope::Cluster(ClusterId(r.usize()?)),
        1 => BarrierScope::Global,
        b => return Err(r.err_invalid("barrier scope", b)),
    };
    Ok(BarrierDef {
        scope,
        expected: r.u32()?,
        base_addr: r.u64()?,
    })
}

impl Machine {
    /// The framed snapshot image of the complete machine. `run` adds the
    /// mid-run context (auto-checkpoint control and watchdog state) that
    /// [`Machine::resume`] needs; between runs it is `None`.
    pub(crate) fn snapshot_image(&self, run: Option<(&CkptCtl<'_>, &Watchdog)>) -> Vec<u8> {
        let cfg = &self.cfg;
        let mut w = SnapWriter::new();
        w.tag(b"MACH");
        // Structural echo: enough of the configuration to reject a snapshot
        // taken on a differently shaped machine with a named error before any
        // per-section count check trips.
        w.u32(cfg.clusters as u32);
        w.u32(cfg.ces_per_cluster as u32);
        w.u32(cfg.network_ports() as u32);
        w.u32(cfg.global_memory.modules as u32);
        w.bool(cfg.vm.enabled);
        w.bool(cfg.faults.as_ref().is_some_and(|p| p.enabled()));
        w.bool(cfg.trace.as_ref().is_some_and(|p| p.enabled()));
        w.bool(self.lowered);
        w.cycle(self.now);
        w.u64(self.fastfwd_skipped);
        w.u64(self.next_sync_slot);
        w.usize(self.next_bus_barrier_slot);
        w.seq(self.counters.iter(), put_counter);
        w.seq(self.barriers.iter(), put_barrier);
        w.opt(self.program_meta.as_ref(), |w, m| {
            w.usize(m.source_ops);
            w.usize(m.uops);
            w.usize(m.fused_ops);
            w.usize(m.max_loop_depth);
        });
        self.latency_histogram.save_state(&mut w);
        self.timeline.save_state(&mut w);
        self.tracer.save_state(&mut w);
        self.page_table.save_state(&mut w);
        self.trace_store.save_state(&mut w);
        w.opt(run.as_ref(), |w, &(ck, watchdog)| {
            w.cycle(ck.start);
            w.u64(ck.limit);
            w.cycle(watchdog.next_check());
            w.u32(watchdog.sync_stuck);
            ck.stats_start.save_state(w);
        });
        self.forward.save_state(&mut w);
        self.reverse.save_state(&mut w);
        self.gmem.save_state(&mut w);
        for cl in &self.clusters {
            cl.cache.save_state(&mut w);
            cl.ccbus.save_state(&mut w);
            cl.tlb.save_state(&mut w);
        }
        w.opt(self.fault_sched.as_ref(), |w, fs| fs.save_state(w));
        w.usize(self.engines.len());
        for e in &self.engines {
            w.opt(e.as_ref(), |w, e| e.save_state(w));
        }
        frame_payload(&w.into_payload())
    }

    /// Serialize the complete machine state to `w` as a versioned,
    /// checksummed snapshot image (see the module docs for the format).
    ///
    /// Taken between runs this archives the machine; the mid-run
    /// auto-checkpoint (see
    /// [`checkpoint_every`](crate::config::MachineConfig::checkpoint_every))
    /// additionally embeds the run context that [`Machine::resume`] needs.
    ///
    /// # Errors
    ///
    /// [`MachineError::Snapshot`] when writing to `w` fails.
    pub fn checkpoint<W: std::io::Write>(&self, w: &mut W) -> Result<()> {
        w.write_all(&self.snapshot_image(None))
            .map_err(|e| MachineError::Snapshot(format!("write: {e}")))
    }

    /// [`Machine::checkpoint`] to a file, written atomically
    /// (temporary-file-and-rename, fsynced), so a crash mid-write never
    /// leaves a torn snapshot behind.
    ///
    /// # Errors
    ///
    /// [`MachineError::Snapshot`] on any I/O failure.
    pub fn checkpoint_to(&self, path: &Path) -> Result<()> {
        write_snapshot_file(path, &self.snapshot_image(None))
    }

    /// Restore this machine's complete mutable state from a snapshot image
    /// read out of `r`. The machine must be built from the same
    /// configuration (and hold the same counter/barrier allocations and
    /// loaded programs) as the one that wrote the snapshot; any
    /// disagreement — as well as a torn, truncated, corrupted or
    /// future-versioned image — is a structured [`MachineError::Snapshot`],
    /// never a panic. To continue an interrupted *run*, use
    /// [`Machine::resume`], which also restores the run context.
    ///
    /// # Errors
    ///
    /// [`MachineError::Snapshot`] on any read, validation or decode
    /// failure. The machine may be partially overwritten when a decode
    /// fails mid-payload; restore onto a scratch machine when that
    /// matters.
    pub fn restore<R: std::io::Read>(&mut self, r: &mut R) -> Result<()> {
        let mut image = Vec::new();
        r.read_to_end(&mut image)
            .map_err(|e| MachineError::Snapshot(format!("read: {e}")))?;
        self.load_image(&image).map(|_| ())
    }

    /// Re-load `programs` exactly as the interrupted run did, restore the
    /// machine from `image` (which must hold a mid-run checkpoint written
    /// by the auto-checkpoint), and run to completion under `limit`
    /// cycles measured from the *original* run's start — exactly the
    /// budget semantics of an uninterrupted [`Machine::run`] with the
    /// same limit. The report, stats tree, memory digest and cycle count
    /// are bit-identical to the uninterrupted run's (`tests/snapshot.rs`
    /// is the proof harness).
    ///
    /// # Errors
    ///
    /// Everything [`Machine::run`] and [`Machine::restore`] can return,
    /// plus [`MachineError::Snapshot`] when the image holds no run
    /// context (it was written between runs, not by a checkpoint).
    pub fn resume(
        &mut self,
        programs: Vec<(CeId, Program)>,
        image: &[u8],
        limit: u64,
    ) -> Result<crate::machine::RunReport> {
        self.prepare_run(programs)?;
        let ctx = self.load_image(image)?.ok_or_else(|| {
            MachineError::Snapshot(
                "snapshot holds no run context to resume (written between runs?)".to_string(),
            )
        })?;
        let _interrupted_budget = ctx.limit;
        self.run_prepared(ctx.start, limit, ctx.stats_start, ctx.watchdog)
    }

    /// [`Machine::resume`] from a snapshot file.
    ///
    /// # Errors
    ///
    /// As [`Machine::resume`], plus [`MachineError::Snapshot`] when the
    /// file cannot be read.
    pub fn resume_from_file(
        &mut self,
        programs: Vec<(CeId, Program)>,
        path: &Path,
        limit: u64,
    ) -> Result<crate::machine::RunReport> {
        let image = std::fs::read(path)
            .map_err(|e| MachineError::Snapshot(format!("read {}: {e}", path.display())))?;
        let mut report = self.resume(programs, &image, limit)?;
        report.resumed_from = Some(path.to_path_buf());
        Ok(report)
    }

    /// Validate `image` and overwrite this machine's state from it,
    /// returning the embedded run context when the snapshot was taken
    /// mid-run.
    pub(crate) fn load_image(&mut self, image: &[u8]) -> Result<Option<ResumeCtx>> {
        let payload = read_payload(image)?;
        let mut r = SnapReader::new(payload);
        let ctx = self.load_payload(&mut r)?;
        Ok(ctx)
    }

    fn load_payload(&mut self, r: &mut SnapReader) -> Result<Option<ResumeCtx>> {
        r.tag(b"MACH")?;
        let cfg = &self.cfg;
        let checks: [(&str, u64, u64); 4] = [
            ("cluster count", u64::from(r.u32()?), cfg.clusters as u64),
            (
                "CEs per cluster",
                u64::from(r.u32()?),
                cfg.ces_per_cluster as u64,
            ),
            (
                "network port count",
                u64::from(r.u32()?),
                cfg.network_ports() as u64,
            ),
            (
                "memory module count",
                u64::from(r.u32()?),
                cfg.global_memory.modules as u64,
            ),
        ];
        for (what, snap, here) in checks {
            if snap != here {
                return Err(r
                    .err_mismatch(&format!("{what} {snap} (this machine has {here})"))
                    .into());
            }
        }
        let flags: [(&str, bool, bool); 4] = [
            ("VM modelling", r.bool()?, cfg.vm.enabled),
            (
                "fault injection",
                r.bool()?,
                cfg.faults.as_ref().is_some_and(|p| p.enabled()),
            ),
            (
                "journey tracing",
                r.bool()?,
                cfg.trace.as_ref().is_some_and(|p| p.enabled()),
            ),
            ("lowered execution", r.bool()?, self.lowered_enabled()),
        ];
        for (what, snap, here) in flags {
            if snap != here {
                return Err(r
                    .err_mismatch(&format!(
                        "{what} is {} in the snapshot but {} on this machine",
                        on_off(snap),
                        on_off(here),
                    ))
                    .into());
            }
        }
        self.now = r.cycle()?;
        self.fastfwd_skipped = r.u64()?;
        self.next_sync_slot = r.u64()?;
        self.next_bus_barrier_slot = r.usize()?;
        let counters = r.seq(get_counter).map_err(MachineError::from)?;
        if counters != self.counters {
            return Err(r
                .err_mismatch("allocated counters do not match the snapshot's")
                .into());
        }
        let barriers = r.seq(get_barrier).map_err(MachineError::from)?;
        if barriers != self.barriers {
            return Err(r
                .err_mismatch("allocated barriers do not match the snapshot's")
                .into());
        }
        self.program_meta = r
            .opt(|r| {
                Ok(LowerMeta {
                    source_ops: r.usize()?,
                    uops: r.usize()?,
                    fused_ops: r.usize()?,
                    max_loop_depth: r.usize()?,
                })
            })
            .map_err(MachineError::from)?;
        self.latency_histogram =
            std::sync::Arc::new(Histogrammer::decode(r).map_err(MachineError::from)?);
        self.timeline.load_state(r).map_err(MachineError::from)?;
        self.tracer.load_state(r).map_err(MachineError::from)?;
        self.page_table.load_state(r).map_err(MachineError::from)?;
        self.trace_store.load_state(r).map_err(MachineError::from)?;
        let run = r
            .opt(|r| {
                let start = r.cycle()?;
                let limit = r.u64()?;
                let wd_next = r.cycle()?;
                let wd_stuck = r.u32()?;
                let stats_start = MachineStats::decode(r)?;
                Ok(ResumeCtx {
                    start,
                    limit,
                    watchdog: Watchdog::from_state(wd_next, wd_stuck),
                    stats_start,
                })
            })
            .map_err(MachineError::from)?;
        self.forward.load_state(r).map_err(MachineError::from)?;
        self.reverse.load_state(r).map_err(MachineError::from)?;
        self.gmem.load_state(r).map_err(MachineError::from)?;
        for cl in &mut self.clusters {
            cl.cache.load_state(r).map_err(MachineError::from)?;
            cl.ccbus.load_state(r).map_err(MachineError::from)?;
            cl.tlb.load_state(r).map_err(MachineError::from)?;
        }
        let had_faults = r.bool().map_err(MachineError::from)?;
        match (had_faults, self.fault_sched.as_mut()) {
            (true, Some(fs)) => fs.load_state(r).map_err(MachineError::from)?,
            (false, None) => {}
            (snap, _) => {
                return Err(r
                    .err_mismatch(&format!(
                        "fault schedule is {} in the snapshot but {} on this machine",
                        on_off(snap),
                        on_off(!snap),
                    ))
                    .into());
            }
        }
        let n_engines = r.len().map_err(MachineError::from)?;
        if n_engines != self.engines.len() {
            return Err(r
                .err_mismatch(&format!(
                    "snapshot holds {n_engines} engine slots, this machine has {}",
                    self.engines.len()
                ))
                .into());
        }
        for i in 0..n_engines {
            let had = r.bool().map_err(MachineError::from)?;
            match (had, self.engines[i].as_mut()) {
                (true, Some(e)) => e.load_state(r).map_err(MachineError::from)?,
                (false, None) => {}
                (snap, _) => {
                    return Err(r
                        .err_mismatch(&format!(
                            "CE {i} {} a program in the snapshot but {} one here \
                             (resume must re-load the interrupted run's programs)",
                            if snap { "runs" } else { "does not run" },
                            if snap { "lacks" } else { "holds" },
                        ))
                        .into());
                }
            }
        }
        if !r.exhausted() {
            return Err(r
                .err_mismatch("trailing bytes after the last section")
                .into());
        }
        Ok(run)
    }
}

fn on_off(v: bool) -> &'static str {
    if v {
        "on"
    } else {
        "off"
    }
}
