//! Correctness checks on every point: the stats conservation identities
//! `tests/properties.rs` checks, and a fingerprint over what a driver
//! returned, compared with the one recorded for the (workload, seed).

use std::collections::BTreeMap;
use std::path::Path;

use cedar::machine::MachineStats;

use crate::workload::DriverOut;

/// Sum of `prefix[i].field` over every index `i` the registry holds.
fn indexed_sum(s: &MachineStats, prefix: &str, field: &str) -> u64 {
    let head = format!("{prefix}[");
    let tail = format!("].{field}");
    s.counters()
        .filter(|(k, _)| {
            k.strip_prefix(&head)
                .and_then(|r| r.strip_suffix(&tail))
                .is_some_and(|i| i.parse::<usize>().is_ok())
        })
        .map(|(_, v)| v)
        .sum()
}

/// Check the conservation identities of one run's stats delta against
/// the run's cycle count. Returns the first identity that fails.
///
/// # Errors
///
/// A message naming the broken identity.
pub fn conservation(s: &MachineStats, cycles: u64) -> Result<(), String> {
    let c = |k: &str| s.counter(k);
    let eq = |what: String, a: u64, b: u64| {
        if a == b {
            Ok(())
        } else {
            Err(format!("{what}: {a} != {b}"))
        }
    };
    eq(
        "machine.cycles vs run cycles".into(),
        c("machine.cycles"),
        cycles,
    )?;

    // Per-CE cycle accounting: every cycle lands in exactly one state.
    let states = ["busy", "stall_mem", "stall_sync", "idle"];
    let ces = s
        .counters()
        .filter(|(k, _)| k.starts_with("ce[") && k.ends_with("].busy"))
        .count();
    for i in 0..ces {
        let accounted: u64 = states.iter().map(|f| c(&format!("ce[{i}].{f}"))).sum();
        eq(format!("ce[{i}] cycle accounting"), accounted, cycles)?;
    }
    let total: u64 = states.iter().map(|f| c(&format!("ce.{f}"))).sum();
    eq("ce.* cycle accounting".into(), total, cycles * ces as u64)?;

    // Networks: every injected packet was delivered or dropped.
    for net in ["net.fwd", "net.rev"] {
        eq(
            format!("{net} packets injected = delivered + drops"),
            c(&format!("{net}.packets_injected")),
            c(&format!("{net}.packets_delivered")) + c(&format!("{net}.drops")),
        )?;
    }

    // Global memory and caches: totals are the sums over their parts.
    for field in ["accesses", "sync_ops", "conflict_stalls"] {
        eq(
            format!("gmem.{field} = sum over banks"),
            c(&format!("gmem.{field}")),
            indexed_sum(s, "gmem.bank", field),
        )?;
    }
    eq(
        "cache hits + misses = accesses".into(),
        c("cache.hits") + c("cache.misses"),
        c("cache.accesses"),
    )?;
    for field in ["accesses", "hits", "misses"] {
        eq(
            format!("cache.{field} = sum over clusters"),
            c(&format!("cache.{field}")),
            indexed_sum(s, "cache", field),
        )?;
    }
    Ok(())
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Fingerprint of a driver's output: every point's key, cycles, reported
/// figures (exact bits) and stats delta (counters and histogram bins),
/// plus the rendered tables.
pub fn fingerprint(out: &DriverOut) -> String {
    let mut text = String::new();
    for p in &out.points {
        text.push_str(&format!("{} {} {:?}", p.key, p.cycles, p.failure));
        for v in &p.values {
            text.push_str(&format!(" {:016x}", v.to_bits()));
        }
        if let Some(s) = &p.stats {
            for (k, v) in s.counters() {
                text.push_str(&format!(" {k}={v}"));
            }
            for (k, h) in s.histograms() {
                text.push_str(&format!(" {k}={:?}", h.bins()));
            }
        }
        text.push('\n');
    }
    text.push_str(&out.rendered);
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// How a driver output's fingerprint compares with the recorded one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Match,
    /// Holds the recorded fingerprint.
    Mismatch(String),
    /// Nothing is recorded for this (workload, seed).
    Unrecorded,
}

/// Recorded fingerprints: `workload key fingerprint` lines, where the key
/// is the seed, or `*` for workloads the seed does not reach.
#[derive(Debug, Default)]
pub struct Recorded {
    entries: BTreeMap<(String, String), String>,
}

impl Recorded {
    /// Parse the fingerprint file's text (`#` starts a comment line).
    ///
    /// # Errors
    ///
    /// The first malformed line.
    pub fn parse(text: &str) -> Result<Recorded, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [w, k, fp] = f[..] else {
                return Err(format!("fingerprint line {}: {line:?}", n + 1));
            };
            entries.insert((w.to_string(), k.to_string()), fp.to_string());
        }
        Ok(Recorded { entries })
    }

    /// # Errors
    ///
    /// An unreadable or malformed file.
    pub fn load(path: &Path) -> Result<Recorded, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Recorded::parse(&text)
    }

    /// Compare `fp` with the fingerprint recorded for (workload, key).
    pub fn verify(&self, workload: &str, key: &str, fp: &str) -> Verdict {
        match self.get(workload, key) {
            None => Verdict::Unrecorded,
            Some(want) if want == fp => Verdict::Match,
            Some(want) => Verdict::Mismatch(want.to_string()),
        }
    }

    pub fn get(&self, workload: &str, key: &str) -> Option<&str> {
        self.entries
            .get(&(workload.to_string(), key.to_string()))
            .map(String::as_str)
    }

    pub fn insert(&mut self, workload: &str, key: &str, fp: &str) {
        self.entries
            .insert((workload.to_string(), key.to_string()), fp.to_string());
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Fingerprints of the paper drivers' outputs at the recorded\n\
             # seeds: workload, seed (`*` where the seed is unused), FNV-1a.\n",
        );
        for ((w, k), fp) in &self.entries {
            out.push_str(&format!("{w} {k} {fp}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run_driver, Workload};

    fn stats(pairs: &[(&str, u64)]) -> MachineStats {
        let mut s = MachineStats::new();
        for &(k, v) in pairs {
            s.set(k, v);
        }
        s
    }

    #[test]
    fn conservation_accepts_consistent_and_rejects_broken_registries() {
        let good = stats(&[
            ("machine.cycles", 10),
            ("ce[0].busy", 6),
            ("ce[0].idle", 4),
            ("ce[1].busy", 0),
            ("ce[1].stall_mem", 7),
            ("ce[1].stall_sync", 3),
            ("ce.busy", 6),
            ("ce.idle", 4),
            ("ce.stall_mem", 7),
            ("ce.stall_sync", 3),
            ("net.fwd.packets_injected", 5),
            ("net.fwd.packets_delivered", 4),
            ("net.fwd.drops", 1),
            ("gmem.accesses", 9),
            ("gmem.bank[0].accesses", 4),
            ("gmem.bank[1].accesses", 5),
        ]);
        assert_eq!(conservation(&good, 10), Ok(()));
        assert!(conservation(&good, 11).is_err(), "cycle count checked");
        for (key, v) in [
            ("ce[0].busy", 7),
            ("net.fwd.drops", 0),
            ("gmem.bank[1].accesses", 6),
        ] {
            let mut bad = good.clone();
            bad.set(key, v);
            assert!(conservation(&bad, 10).is_err(), "doctored {key} passed");
        }
    }

    #[test]
    fn recorded_file_round_trips_and_rejects_garbage() {
        let mut r = Recorded::default();
        r.insert("resilience_faults", "7", "00ff");
        r.insert("table1_rank64", "*", "abcd");
        let back = Recorded::parse(&r.render()).unwrap();
        assert_eq!(back.get("resilience_faults", "7"), Some("00ff"));
        assert_eq!(back.get("table1_rank64", "*"), Some("abcd"));
        assert_eq!(back.get("table1_rank64", "7"), None);
        assert!(Recorded::parse("table1_rank64 *").is_err());
    }

    /// A doctored stats delta and a wrong fingerprint are both caught on
    /// a real driver's output (Table 2: it returns a stats delta per
    /// point). The recorded file must hold this output's fingerprint.
    #[test]
    fn doctored_driver_output_is_caught() {
        let w = Workload::Table2GmMonitor;
        let out = run_driver(w, 0).expect("Table 2 runs");
        for p in &out.points {
            let s = p.stats.as_ref().expect("Table 2 returns stats");
            assert_eq!(conservation(s, p.cycles), Ok(()), "{}", p.key);
        }
        let fp = fingerprint(&out);
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fingerprints.txt");
        let recorded = Recorded::load(&path).unwrap();
        assert_eq!(recorded.verify(w.name(), "*", &fp), Verdict::Match);

        let mut doctored = out.clone();
        let p = &mut doctored.points[4];
        let s = p.stats.as_mut().unwrap();
        s.set("ce[3].busy", s.counter("ce[3].busy") + 1);
        assert!(conservation(s, p.cycles).is_err());
        assert_ne!(fingerprint(&doctored), fp);

        let mut doctored = out.clone();
        doctored.points[0].values[0] += 1e-9;
        let changed = fingerprint(&doctored);
        assert!(matches!(
            recorded.verify(w.name(), "*", &changed),
            Verdict::Mismatch(want) if want == fp
        ));

        // A wrong recorded fingerprint fails the genuine output.
        let mut wrong = Recorded::default();
        wrong.insert(w.name(), "*", "0123456789abcdef");
        assert!(matches!(
            wrong.verify(w.name(), "*", &fp),
            Verdict::Mismatch(_)
        ));
        assert_eq!(wrong.verify(w.name(), "3", &fp), Verdict::Unrecorded);
    }
}
