//! What the host says about a run: CPU time, peak memory, and the
//! provenance stamped into every benchmark output.

use std::path::Path;

use crate::span::json_str;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of the whole process so far (user + system, all threads,
/// finished threads included), in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // `clock_gettime` writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without spawning git; `None` outside a git checkout.
pub fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// The compiler on `PATH` (the one `cargo` builds the benchmark with).
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Every `CEDAR_*` variable set in the environment, sorted.
pub fn cedar_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("CEDAR_"))
        .collect();
    vars.sort();
    vars
}

/// Provenance of one benchmark run.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub host_cores: usize,
    pub sweep_threads: usize,
    pub rustc: String,
    pub git_rev: Option<String>,
    pub seed: u64,
    pub cedar_env: Vec<(String, String)>,
}

impl Provenance {
    pub fn collect(seed: u64) -> Provenance {
        Provenance {
            host_cores: std::thread::available_parallelism().map_or(1, usize::from),
            sweep_threads: cedar::experiments::sweep::sweep_threads(),
            rustc: rustc_version(),
            git_rev: git_revision(Path::new(".")),
            seed,
            cedar_env: cedar_env(),
        }
    }

    /// Whether the run used the default engine: any `CEDAR_*` knob
    /// (thread counts, `CEDAR_NO_*` hatches, chunking, tracing, cycle
    /// time) makes it a non-default configuration.
    pub fn default_engine(&self) -> bool {
        self.cedar_env.is_empty()
    }

    pub fn json(&self) -> String {
        let env: Vec<String> = self
            .cedar_env
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        format!(
            "{{\"host_cores\":{},\"sweep_threads\":{},\"rustc\":{},\"git_rev\":{},\"seed\":{},\"cedar_env\":{{{}}},\"engine\":{}}}",
            self.host_cores,
            self.sweep_threads,
            json_str(&self.rustc),
            self.git_rev.as_deref().map_or("null".to_string(), json_str),
            self.seed,
            env.join(","),
            json_str(if self.default_engine() {
                "default"
            } else {
                "NON-DEFAULT: CEDAR_* knobs set"
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(x > 0);
        assert!(process_cpu_s() > t0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn provenance_flags_engine_knobs() {
        let mut p = Provenance {
            host_cores: 2,
            sweep_threads: 2,
            rustc: "rustc 1.0".into(),
            git_rev: None,
            seed: 3,
            cedar_env: Vec::new(),
        };
        let v = cedar_bench::json::parse(&p.json()).expect("provenance parses");
        assert_eq!(v.get("engine").and_then(|e| e.as_str()), Some("default"));
        p.cedar_env = vec![("CEDAR_NO_FASTFWD".into(), "1".into())];
        let v = cedar_bench::json::parse(&p.json()).expect("provenance parses");
        assert!(v
            .get("engine")
            .and_then(|e| e.as_str())
            .is_some_and(|e| e.starts_with("NON-DEFAULT")));
        assert_eq!(
            v.get("cedar_env")
                .and_then(|e| e.get("CEDAR_NO_FASTFWD"))
                .and_then(|e| e.as_str()),
            Some("1")
        );
    }
}
