//! First performance-trajectory baseline: healthy vs. degraded D-ORAM.
//!
//! Runs the same D-ORAM configuration twice — once clean, once with a
//! permanent MAC-forgery burst that quarantines secure sub-channel 1
//! mid-run — and emits `BENCH_degraded.json` so the cost of surviving
//! on parity rebuilds (instead of fail-stopping) is tracked PR-over-PR.
//! Simulated-cycle numbers are deterministic for a fixed seed; the wall
//! times are host-dependent context only.
use doram_core::secure_channel::SD_SUB_SITE_BASE;
use doram_core::Simulation;
use doram_sim::fault::{FaultPlan, FaultRates, FaultWindow};
use doram_sim::MemCycle;
use std::time::Instant;

struct Sample {
    label: &'static str,
    wall_seconds: f64,
    total_mem_cycles: u64,
    oram_accesses: u64,
    oram_access_latency: f64,
    ns_read_latency: f64,
    parity_rebuilds: u64,
    scrub_repairs: u64,
    quarantine_entries: u64,
    degraded_episode: bool,
    freshness_ops: u64,
    freshness_cycles: u64,
}

impl Sample {
    /// ORAM accesses completed per million simulated memory cycles.
    fn throughput(&self) -> f64 {
        if self.total_mem_cycles == 0 {
            return 0.0;
        }
        self.oram_accesses as f64 * 1e6 / self.total_mem_cycles as f64
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"wall_seconds\":{:.3},\"total_mem_cycles\":{},",
                "\"oram_accesses\":{},\"oram_access_latency\":{:.2},",
                "\"ns_read_latency\":{:.2},",
                "\"throughput_accesses_per_mcycle\":{:.3},",
                "\"parity_rebuilds\":{},\"scrub_repairs\":{},",
                "\"quarantine_entries\":{},\"degraded_episode\":{},",
                // Always present, even when zero: a downstream comparer
                // must see stable keys across healthy and attacked runs.
                "\"freshness_ops\":{},\"freshness_cycles\":{}}}"
            ),
            self.wall_seconds,
            self.total_mem_cycles,
            self.oram_accesses,
            self.oram_access_latency,
            self.ns_read_latency,
            self.throughput(),
            self.parity_rebuilds,
            self.scrub_repairs,
            self.quarantine_entries,
            self.degraded_episode,
            self.freshness_ops,
            self.freshness_cycles,
        )
    }
}

fn run_one(
    label: &'static str,
    bench: doram_trace::Benchmark,
    scale: &doram_core::experiments::Scale,
    plan: FaultPlan,
) -> Result<Sample, doram_core::system::SimError> {
    let cfg = doram_bench::hardened_doram(bench, scale, plan);
    let start = Instant::now();
    let r = Simulation::new(cfg).expect("valid sim").run()?;
    let oram = r.oram.as_ref().expect("D-ORAM has an ORAM summary");
    let faults = r.faults.as_ref().expect("D-ORAM has a fault block");
    Ok(Sample {
        label,
        wall_seconds: start.elapsed().as_secs_f64(),
        total_mem_cycles: r.total_mem_cycles,
        oram_accesses: oram.real_accesses + oram.dummy_accesses,
        oram_access_latency: oram.access_latency,
        ns_read_latency: r.ns_read_latency.mean(),
        parity_rebuilds: faults.parity_rebuilds,
        scrub_repairs: faults.scrub_repairs,
        quarantine_entries: faults.quarantine_entries.iter().map(|&e| e as u64).sum(),
        degraded_episode: faults.degraded_episode(),
        freshness_ops: faults.freshness_ops,
        freshness_cycles: faults.freshness_cycles,
    })
}

/// A permanent 100% MAC-forgery burst on sub-channel 1's fault site,
/// starting after warm-up so the quarantine trips mid-run.
fn hostile_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        ..FaultPlan::none()
    }
    .site_window(
        SD_SUB_SITE_BASE + 1,
        FaultWindow {
            start: MemCycle(10_000),
            end: MemCycle(u64::MAX),
            rates: FaultRates {
                forge_mac_ppm: 1_000_000,
                ..FaultRates::none()
            },
        },
    )
}

fn main() {
    let scale = doram_bench::announce("degraded_baseline");
    let bench = scale
        .benchmarks
        .first()
        .copied()
        .unwrap_or(doram_trace::Benchmark::Mummer);
    doram_bench::emit("degraded_baseline", || {
        let healthy = run_one("healthy", bench, &scale, FaultPlan::none())?;
        let degraded = run_one("degraded", bench, &scale, hostile_plan(scale.seed))?;
        assert!(
            degraded.degraded_episode,
            "hostile plan must quarantine a sub-channel"
        );
        assert!(
            !healthy.degraded_episode,
            "clean run must stay healthy"
        );

        let pct = |h: f64, d: f64| if h > 0.0 { (d - h) * 100.0 / h } else { 0.0 };
        let cycles_pct = pct(
            healthy.total_mem_cycles as f64,
            degraded.total_mem_cycles as f64,
        );
        let latency_pct = pct(healthy.oram_access_latency, degraded.oram_access_latency);

        let json = format!(
            concat!(
                "{{\"exhibit\":\"degraded_baseline\",\"benchmark\":\"{}\",",
                "\"seed\":{},\"ns_accesses\":{},",
                "\"healthy\":{},\"degraded\":{},",
                "\"overhead\":{{\"mem_cycles_pct\":{:.2},",
                "\"oram_latency_pct\":{:.2}}}}}\n"
            ),
            bench,
            scale.seed,
            scale.ns_accesses,
            healthy.json(),
            degraded.json(),
            cycles_pct,
            latency_pct,
        );
        doram_bench::write_bench_json("degraded_baseline", "BENCH_degraded.json", &json);

        let mut out = format!("Degraded-mode baseline, {bench} (one sub-channel quarantined)\n\n");
        for s in [&healthy, &degraded] {
            out.push_str(&format!(
                "{:<9} {:>12} mem cycles  {:>7.2} acc/Mcycle  oram latency {:>8.1}  rebuilds {:>5}  scrubs {:>4}\n",
                s.label,
                s.total_mem_cycles,
                s.throughput(),
                s.oram_access_latency,
                s.parity_rebuilds,
                s.scrub_repairs,
            ));
        }
        out.push_str(&format!(
            "\noverhead: {cycles_pct:+.2}% mem cycles, {latency_pct:+.2}% oram access latency\n"
        ));
        Ok::<String, doram_core::system::SimError>(out)
    })
    .expect("degraded baseline failed");
}
