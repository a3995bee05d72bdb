//! Active-adversary baseline: clean vs. attacked D-ORAM.
//!
//! Runs the same D-ORAM configuration twice — once with every adversary
//! knob off (the freshness tree stays unarmed and must cost nothing) and
//! once under a seeded schedule of replay, relocation, and rollback
//! bursts — and emits `BENCH_adversary.json` so the latency price of
//! integrity verification (tree walks + detection-triggered re-fetches)
//! is tracked PR-over-PR. Simulated-cycle numbers are deterministic for
//! a fixed seed; the wall times are host-dependent context only.
use doram_core::secure_channel::SD_SUB_SITE_BASE;
use doram_core::Simulation;
use doram_sim::fault::{AdversaryBurst, AdversaryPlan, FaultKind, FaultPlan};
use doram_sim::MemCycle;
use std::time::Instant;

struct Sample {
    label: &'static str,
    wall_seconds: f64,
    total_mem_cycles: u64,
    oram_accesses: u64,
    oram_access_latency: f64,
    freshness_ops: u64,
    freshness_cycles: u64,
    replay_detected: u64,
    relocation_detected: u64,
    rollback_rejected: u64,
    refetches: u64,
}

impl Sample {
    /// Mean freshness-verification cycles charged per ORAM access.
    fn verify_per_access(&self) -> f64 {
        if self.oram_accesses == 0 {
            return 0.0;
        }
        self.freshness_cycles as f64 / self.oram_accesses as f64
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"wall_seconds\":{:.3},\"total_mem_cycles\":{},",
                "\"oram_accesses\":{},\"oram_access_latency\":{:.2},",
                "\"freshness_ops\":{},\"freshness_cycles\":{},",
                "\"verify_cycles_per_access\":{:.2},",
                "\"replay_detected\":{},\"relocation_detected\":{},",
                "\"rollback_rejected\":{},\"refetches\":{}}}"
            ),
            self.wall_seconds,
            self.total_mem_cycles,
            self.oram_accesses,
            self.oram_access_latency,
            self.freshness_ops,
            self.freshness_cycles,
            self.verify_per_access(),
            self.replay_detected,
            self.relocation_detected,
            self.rollback_rejected,
            self.refetches,
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
        freshness_ops: faults.freshness_ops,
        freshness_cycles: faults.freshness_cycles,
        replay_detected: faults.replay_detected,
        relocation_detected: faults.relocation_detected,
        rollback_rejected: faults.rollback_rejected,
        refetches: faults.refetches,
    })
}

/// Staggered, repeating bursts of all three active attacks against secure
/// sub-channel 0: the kinds tile the timeline (later windows win within a
/// site, so they must not overlap).
fn adversary_plan(seed: u64) -> FaultPlan {
    let mut plan = AdversaryPlan::new(seed).jitter(400);
    for (i, kind) in [
        FaultKind::ReplayStale,
        FaultKind::RelocateBucket,
        FaultKind::RollbackBurst,
    ]
    .into_iter()
    .enumerate()
    {
        plan = plan.burst(AdversaryBurst {
            site: SD_SUB_SITE_BASE,
            kind,
            start: MemCycle(2_000 + i as u64 * 4_000),
            len: 3_000,
            period: 12_000,
            repeats: 200,
            ppm: 300_000,
        });
    }
    plan.validate().expect("valid schedule");
    plan.compile()
}

fn main() {
    let scale = doram_bench::announce("adversary_baseline");
    let bench = scale
        .benchmarks
        .first()
        .copied()
        .unwrap_or(doram_trace::Benchmark::Mummer);
    doram_bench::emit("adversary_baseline", || {
        let clean = run_one("clean", bench, &scale, FaultPlan::none())?;
        let attacked = run_one("attacked", bench, &scale, adversary_plan(scale.seed))?;
        assert_eq!(
            clean.freshness_ops, 0,
            "knobs off must leave the freshness tree unarmed"
        );
        assert!(
            attacked.replay_detected > 0
                && attacked.relocation_detected > 0
                && attacked.rollback_rejected > 0,
            "every attack class must be detected: {}",
            attacked.json()
        );

        let pct = |c: f64, a: f64| if c > 0.0 { (a - c) * 100.0 / c } else { 0.0 };
        let cycles_pct = pct(
            clean.total_mem_cycles as f64,
            attacked.total_mem_cycles as f64,
        );
        let latency_pct = pct(clean.oram_access_latency, attacked.oram_access_latency);

        let json = format!(
            concat!(
                "{{\"exhibit\":\"adversary_baseline\",\"benchmark\":\"{}\",",
                "\"seed\":{},\"ns_accesses\":{},",
                "\"clean\":{},\"attacked\":{},",
                "\"overhead\":{{\"mem_cycles_pct\":{:.2},",
                "\"oram_latency_pct\":{:.2}}}}}\n"
            ),
            bench,
            scale.seed,
            scale.ns_accesses,
            clean.json(),
            attacked.json(),
            cycles_pct,
            latency_pct,
        );
        doram_bench::write_bench_json("adversary_baseline", "BENCH_adversary.json", &json);

        let mut out = format!("Active-adversary baseline, {bench} (replay + relocate + rollback bursts)\n\n");
        for s in [&clean, &attacked] {
            out.push_str(&format!(
                "{:<9} {:>12} mem cycles  oram latency {:>8.1}  verify/access {:>6.2}  detected {:>3}/{:>3}/{:>3}  refetches {:>4}\n",
                s.label,
                s.total_mem_cycles,
                s.oram_access_latency,
                s.verify_per_access(),
                s.replay_detected,
                s.relocation_detected,
                s.rollback_rejected,
                s.refetches,
            ));
        }
        out.push_str(&format!(
            "\noverhead: {cycles_pct:+.2}% mem cycles, {latency_pct:+.2}% oram access latency\n"
        ));
        Ok::<String, doram_core::system::SimError>(out)
    })
    .expect("adversary baseline failed");
}
