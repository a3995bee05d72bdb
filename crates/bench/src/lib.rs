#![warn(missing_docs)]

//! Shared helpers for the experiment binaries.
//!
//! Every binary regenerates one exhibit of the paper (see the
//! [`doram_core::experiments`] module for the experiment definitions) and
//! honors the same environment knobs:
//!
//! * `DORAM_ACCESSES` — NS-App trace length (default 2000);
//! * `DORAM_BENCH` — comma-separated benchmark subset (default: all 15).

use doram_core::experiments::Scale;
use doram_core::{Scheme, SystemConfig};
use doram_sim::fault::FaultPlan;
use doram_trace::Benchmark;
use std::time::Instant;

/// Writes `csv` to `$DORAM_CSV/<exhibit>.csv` when the variable is set.
/// The write is crash-consistent (temp file + fsync + atomic rename), so
/// a killed sweep never leaves a truncated CSV behind.
///
/// # Panics
///
/// Panics if the directory is not writable (the operator asked for CSVs).
pub fn maybe_write_csv(exhibit: &str, csv: &str) {
    if let Ok(dir) = std::env::var("DORAM_CSV") {
        let path = std::path::Path::new(&dir).join(format!("{exhibit}.csv"));
        doram_sim::snapshot::write_atomic(&path, csv.as_bytes()).expect("write CSV");
        eprintln!("[{exhibit}] wrote {}", path.display());
    }
}

/// Writes a `BENCH_*.json` baseline into `$DORAM_BENCH_OUT` (default: the
/// working directory), crash-consistently, and announces the path.
///
/// # Panics
///
/// Panics if the file cannot be written (the baseline is the output).
pub fn write_bench_json(exhibit: &str, file_name: &str, json: &str) {
    let path = std::env::var("DORAM_BENCH_OUT")
        .map(|dir| std::path::Path::new(&dir).join(file_name))
        .unwrap_or_else(|_| std::path::PathBuf::from(file_name));
    doram_sim::snapshot::write_atomic(&path, json.as_bytes()).expect("write baseline");
    eprintln!("[{exhibit}] wrote {}", path.display());
}

/// The hardened D-ORAM configuration the degraded-mode and adversary
/// baselines share: k = 0, c = 7 on a 12-level tree, with parity and a
/// scrub every 5 000 cycles, under `plan`.
///
/// # Panics
///
/// Panics if `plan` makes the configuration invalid.
pub fn hardened_doram(bench: Benchmark, scale: &Scale, plan: FaultPlan) -> SystemConfig {
    SystemConfig::builder(bench)
        .scheme(Scheme::DOram { k: 0, c: 7 })
        .ns_accesses(scale.ns_accesses)
        .seed(scale.seed)
        .tree_l_max(12)
        .parity(true)
        .scrub_every(5_000)
        .fault_plan(plan)
        .build()
        .expect("valid config")
}

/// Resolves the sweep scale from the environment and announces it.
pub fn announce(exhibit: &str) -> Scale {
    let scale = Scale::from_env();
    eprintln!(
        "[{exhibit}] {} benchmarks × {} accesses/NS-App (set DORAM_BENCH / DORAM_ACCESSES to change)",
        scale.benchmarks.len(),
        scale.ns_accesses
    );
    scale
}

/// Runs `f`, printing its rendering and the elapsed wall time.
///
/// # Errors
///
/// Propagates the experiment error.
pub fn emit<E: std::fmt::Display>(
    exhibit: &str,
    f: impl FnOnce() -> Result<String, E>,
) -> Result<(), E> {
    let start = Instant::now();
    let text = f()?;
    println!("{text}");
    eprintln!("[{exhibit}] done in {:.1}s", start.elapsed().as_secs_f64());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announce_returns_scale() {
        let s = announce("test");
        assert!(!s.benchmarks.is_empty());
    }

    #[test]
    fn csv_written_when_env_set() {
        let dir = std::env::temp_dir().join("doram-csv-test");
        // SAFETY: test-local env mutation; no other thread in this test
        // binary reads DORAM_CSV concurrently.
        unsafe { std::env::set_var("DORAM_CSV", &dir) };
        maybe_write_csv("unit", "a,b\n1,2\n");
        let got = std::fs::read_to_string(dir.join("unit.csv")).unwrap();
        assert_eq!(got, "a,b\n1,2\n");
        unsafe { std::env::remove_var("DORAM_CSV") };
    }

    #[test]
    fn emit_prints_and_propagates() {
        assert!(emit::<std::fmt::Error>("t", || Ok("x".into())).is_ok());
        assert!(emit("t", || Err(std::fmt::Error)).is_err());
    }
}
