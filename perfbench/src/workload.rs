//! The benchmark's workloads: each is a `SystemConfig` built from a seed.

use doram::core::secure_channel::SD_SUB_SITE_BASE;
use doram::core::{Scheme, SystemConfig};
use doram::sim::fault::{AdversaryBurst, AdversaryPlan, FaultKind, FaultPlan};
use doram::sim::ConfigError;
use doram::sim::MemCycle;
use doram::trace::Benchmark;

/// Memory accesses per NS-App trace: ~25k NS reads per run, enough for
/// well over ten samples beyond p99, and ~41k freshness-tree walks on
/// `doram_attacked`.
pub const NS_ACCESSES: u64 = 5_000;

/// Scrub period of `doram_attacked`, in memory cycles.
const SCRUB_EVERY: u64 = 5_000;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 7 NS-Apps on 4 direct channels running comm4: the CPU cores do most
    /// of the host work; there is no ORAM, BOB link or crypto.
    Ns7Comm4,
    /// D-ORAM+1 (k = 1, c = 7) running mummer: the secure link, SD ORAM
    /// FSM, SD sub-channels and split-level fetches are all busy.
    DOramK1Mummer,
    /// D-ORAM (k = 0, c = 7) running mummer under a mixed replay /
    /// relocation / rollback adversary with parity and scrubbing: the
    /// integrity, freshness-tree and recovery path.
    DOramAttacked,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Ns7Comm4,
        Workload::DOramK1Mummer,
        Workload::DOramAttacked,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ns7Comm4 => "ns7_comm4",
            Workload::DOramK1Mummer => "doram_k1_mummer",
            Workload::DOramAttacked => "doram_attacked",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark program every app runs.
    pub fn benchmark(self) -> Benchmark {
        match self {
            Workload::Ns7Comm4 => Benchmark::Comm4,
            Workload::DOramK1Mummer | Workload::DOramAttacked => Benchmark::Mummer,
        }
    }

    /// The simulated scheme.
    pub fn scheme(self) -> Scheme {
        match self {
            Workload::Ns7Comm4 => Scheme::Ns7on4,
            Workload::DOramK1Mummer => Scheme::DOram { k: 1, c: 7 },
            Workload::DOramAttacked => Scheme::DOram { k: 0, c: 7 },
        }
    }

    /// Whether the workload mounts attacks (and so must detect them).
    pub fn attacked(self) -> bool {
        self == Workload::DOramAttacked
    }

    /// Builds the simulated system for `seed`.
    pub fn config(self, seed: u64) -> Result<SystemConfig, ConfigError> {
        let b = SystemConfig::builder(self.benchmark())
            .scheme(self.scheme())
            .ns_accesses(NS_ACCESSES)
            .seed(seed);
        match self {
            Workload::Ns7Comm4 | Workload::DOramK1Mummer => b.build(),
            Workload::DOramAttacked => b
                .parity(true)
                .scrub_every(SCRUB_EVERY)
                .fault_plan(mixed_adversary(seed)?)
                .build(),
        }
    }
}

/// Repeating, staggered bursts of all three active attacks (stale replay,
/// bucket relocation, rollback) against secure sub-channel 0, at the
/// command-line tool's `--adversary mix` defaults.
fn mixed_adversary(seed: u64) -> Result<FaultPlan, ConfigError> {
    let kinds = [
        FaultKind::ReplayStale,
        FaultKind::RelocateBucket,
        FaultKind::RollbackBurst,
    ];
    let mut plan = AdversaryPlan::new(seed).jitter(400);
    for (i, kind) in (0u64..).zip(kinds) {
        plan = plan.burst(AdversaryBurst {
            site: SD_SUB_SITE_BASE,
            kind,
            start: MemCycle(10_000 + i * 4_000),
            len: 3_000,
            period: 12_000,
            repeats: 50,
            ppm: 30_000,
        });
    }
    plan.validate()
        .map_err(|e| ConfigError::new(format!("adversary plan: {e}")))?;
    Ok(plan.compile())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_configs_build() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let cfg = w.config(1).expect("every workload builds");
            assert_eq!(cfg.seed, 1);
            assert_eq!(cfg.fault_plan.has_adversary(), w.attacked());
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
