//! Experiment-level parallel sweep runner.
//!
//! The experiment drivers (Tables 1 and 2, PPT4, the Perfect suite) are sweeps
//! of independent simulations: every point builds its own [`Machine`] and
//! runs it to completion, so points can execute on any number of host
//! threads without sharing state. The simulator itself is deterministic,
//! which leaves exactly one requirement for reproducible reports:
//! results must be assembled in *input order*, never completion order.
//! [`parallel_map`] guarantees that, so a sweep's rendered output is
//! byte-identical whatever `CEDAR_SWEEP_THREADS` says.
//!
//! This is the simulator's only host-parallel layer: each machine runs
//! its serial engine on one thread, and whole independent machines run
//! side by side.
//!
//! [`Machine`]: cedar_machine::machine::Machine

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Host threads used for experiment sweeps: `CEDAR_SWEEP_THREADS` when
/// set to a positive integer, otherwise the host's available parallelism.
/// A set-but-invalid value logs a warning (via the machine crate's shared
/// env parser) and falls back to the host parallelism.
pub fn sweep_threads() -> usize {
    cedar_machine::config::parse_env_threads("CEDAR_SWEEP_THREADS")
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// One sweep point failed: which point, and what its worker said while
/// panicking. Raised by [`try_parallel_map`]; [`parallel_map`] re-panics
/// with the same label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Input index of the failing point.
    pub index: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep point #{} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for SweepError {}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Apply `f` to every item, possibly in parallel, returning the results
/// in input order.
///
/// Work is distributed by an atomic claim counter, so any number of
/// worker threads yields the same result vector — each item's result
/// depends only on the item, and collection sorts by input index. `f`
/// must therefore be a pure function of its item (every sweep task here
/// builds its own simulator instance, which makes that automatic).
///
/// # Panics
///
/// Re-raises a sweep point's panic, labeled with the point's input index
/// (see [`try_parallel_map`] for the non-panicking form).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match try_parallel_map(items, f) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// [`parallel_map`] with per-point panic isolation: each point runs under
/// `catch_unwind`, and the first failing *input index* (not completion
/// order — deterministic under any thread count) is reported as a
/// [`SweepError`] naming the point and its panic message. Points after a
/// failure still run; their results are discarded.
///
/// # Errors
///
/// The lowest-indexed panicking point, as a [`SweepError`].
pub fn try_parallel_map<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, SweepError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let run_point = |i: usize, item: &T| -> Result<R, SweepError> {
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| SweepError {
            index: i,
            message: payload_message(payload.as_ref()),
        })
    };
    let threads = sweep_threads().min(items.len().max(1));
    let tagged: Vec<(usize, Result<R, SweepError>)> = if threads <= 1 {
        items
            .iter()
            .enumerate()
            .map(|(i, item)| (i, run_point(i, item)))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let mut tagged = Vec::with_capacity(items.len());
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            got.push((i, run_point(i, item)));
                        }
                        got
                    })
                })
                .collect();
            for w in workers {
                // A worker can only die to a non-unwinding abort; there is
                // nothing to recover there.
                tagged.extend(w.join().expect("sweep worker died outside a point"));
            }
        });
        tagged
    };
    let mut tagged = tagged;
    tagged.sort_unstable_by_key(|&(i, _)| i);
    let mut out = Vec::with_capacity(tagged.len());
    for (_, r) in tagged {
        out.push(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::{parallel_map, try_parallel_map};

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..64).collect();
        // Uneven work so completion order scrambles under parallelism.
        let out = parallel_map(&items, |&i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn panicking_point_is_labeled_not_poisonous() {
        let items: Vec<usize> = (0..32).collect();
        let err = try_parallel_map(&items, |&i| {
            assert!(i != 13, "point 13 exploded");
            i
        })
        .unwrap_err();
        // The *lowest* failing input index, deterministically, with the
        // panic message attached.
        assert_eq!(err.index, 13);
        assert!(err.message.contains("point 13 exploded"), "{}", err.message);
        assert!(err.to_string().contains("#13"));
    }

    #[test]
    #[should_panic(expected = "sweep point #5 panicked")]
    fn parallel_map_repanics_with_point_label() {
        let items: Vec<usize> = (0..8).collect();
        let _ = parallel_map(&items, |&i| {
            assert!(i != 5, "boom");
            i
        });
    }
}
