//! Property tests for the crash-safe run harness: checkpointing at an
//! arbitrary interval must not perturb the simulation, and resuming from
//! any checkpoint taken mid-run must reproduce the uninterrupted
//! [`RunReport`] bit for bit — with and without an active fault plan.
//!
//! Bit-identity is checked two ways: on the `Debug` rendering (Rust prints
//! `f64` with round-trip precision, so any drift in a derived statistic
//! shows up) and on the serialized JSON the CLI emits.

use doram_core::report::report_json;
use doram_core::system::{RunOptions, Simulation};
use doram_core::{RunReport, Scheme, SystemConfig};
use doram_sim::fault::{FaultPlan, FaultRates};
use doram_trace::Benchmark;
use proptest::prelude::*;

/// A small D-ORAM run (~10k memory cycles) that still exercises the secure
/// channel, the ORAM engine, and split traffic — the hardest state to
/// checkpoint. `faulty` layers a sub-threshold fault plan on top so the
/// recovery machinery (retries, quarantine counters, latched faults) is
/// part of the snapshot too.
fn config(faulty: bool) -> SystemConfig {
    let plan = if faulty {
        FaultPlan::with_rates(
            42,
            FaultRates {
                corrupt_ppm: 500,
                drop_ppm: 200,
                bitflip_ppm: 2_000,
                forge_mac_ppm: 500,
                ..FaultRates::none()
            },
        )
    } else {
        FaultPlan::none()
    };
    SystemConfig::builder(Benchmark::Libq)
        .scheme(Scheme::DOram { k: 0, c: 7 })
        .ns_accesses(300)
        .tree_l_max(12)
        .max_mem_cycles(50_000_000)
        .fault_plan(plan)
        .build()
        .unwrap()
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "doram-ckpt-prop-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// All checkpoint files in `dir`, sorted by cycle (the filename embeds the
/// cycle zero-padded, so lexicographic order is cycle order).
fn checkpoints(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "dorc"))
        .collect();
    files.sort();
    files
}

fn assert_reports_identical(what: &str, got: &RunReport, want: &RunReport) {
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "{what}: Debug rendering differs"
    );
    assert_eq!(
        report_json(got),
        report_json(want),
        "{what}: JSON rendering differs"
    );
}

/// Core property: run to completion with periodic checkpoints, then pick
/// one of the checkpoints and resume from it; both the checkpointed run
/// and the resumed run must match the uninterrupted baseline exactly.
fn check_resume_identity(tag: &str, faulty: bool, every: u64, pick: usize) {
    let baseline = Simulation::new(config(faulty))
        .unwrap()
        .run()
        .unwrap();

    let dir = fresh_dir(tag);
    let opts = RunOptions {
        checkpoint_every: Some(every),
        checkpoint_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let checkpointed = Simulation::new(config(faulty))
        .unwrap()
        .run_with(&opts)
        .unwrap();
    assert_reports_identical("checkpointed run", &checkpointed, &baseline);

    let files = checkpoints(&dir);
    assert!(
        !files.is_empty(),
        "interval {every} produced no checkpoints in a ~10k-cycle run"
    );
    let chosen = &files[pick % files.len()];
    let resumed = Simulation::resume(config(faulty), chosen)
        .unwrap()
        .run()
        .unwrap();
    assert_reports_identical("resumed run", &resumed, &baseline);

    // Fault accounting must survive the round trip too, not just latency.
    if faulty {
        let fr = resumed.faults.as_ref().expect("fault block present");
        let br = baseline.faults.as_ref().expect("fault block present");
        assert_eq!(fr, br, "fault counters diverged across resume");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn resume_is_bit_identical_without_faults(every in 500u64..4_000, pick in 0usize..64) {
        check_resume_identity(&format!("clean-{every}-{pick}"), false, every, pick);
    }

    #[test]
    fn resume_is_bit_identical_under_faults(every in 500u64..4_000, pick in 0usize..64) {
        check_resume_identity(&format!("faulty-{every}-{pick}"), true, every, pick);
    }
}

/// Memory cycle of the checkpoint whose payload the format pin hashes.
const PIN_CYCLE: u64 = 6_000;

/// The command-line tool's `--adversary mix` plan (seed 1, sub-channel 0,
/// onset 2 000 so the bursts land before [`PIN_CYCLE`]): replay,
/// relocation and rollback bursts, staggered 4k cycles apart.
fn mixed_adversary() -> FaultPlan {
    use doram_core::secure_channel::SD_SUB_SITE_BASE;
    use doram_sim::fault::{AdversaryBurst, AdversaryPlan, FaultKind};
    let kinds = [
        FaultKind::ReplayStale,
        FaultKind::RelocateBucket,
        FaultKind::RollbackBurst,
    ];
    let mut plan = AdversaryPlan::new(1).jitter(400);
    for (i, kind) in (0u64..).zip(kinds) {
        plan = plan.burst(AdversaryBurst {
            site: SD_SUB_SITE_BASE,
            kind,
            start: doram_sim::MemCycle(2_000 + i * 4_000),
            len: 3_000,
            period: 12_000,
            repeats: 50,
            ppm: 30_000,
        });
    }
    plan.validate().unwrap();
    plan.compile()
}

/// The pinned configurations: every backend flavor, the hardest D-ORAM
/// state (parity, scrubbing, freshness tree under attack), and whether to
/// run with the trace recorder attached.
fn pinned_configs() -> Vec<(&'static str, SystemConfig, bool)> {
    let small = |scheme| {
        SystemConfig::builder(Benchmark::Libq)
            .scheme(scheme)
            .ns_accesses(400)
            .tree_l_max(12)
            .seed(1)
    };
    let attacked = || {
        small(Scheme::DOram { k: 0, c: 7 })
            .parity(true)
            .scrub_every(1_000)
            .fault_plan(mixed_adversary())
            .build()
            .unwrap()
    };
    vec![
        ("7ns-4ch", small(Scheme::Ns7on4).build().unwrap(), false),
        ("baseline", small(Scheme::Baseline).build().unwrap(), false),
        ("secmem", small(Scheme::SecureMemory).build().unwrap(), false),
        ("doram-k1-c4", small(Scheme::DOram { k: 1, c: 4 }).build().unwrap(), false),
        ("doram-k0-c7-attacked", attacked(), false),
        ("doram-k0-c7-attacked-traced", attacked(), true),
    ]
}

/// FNV-1a 64 of the checkpoint payload at [`PIN_CYCLE`] for each pinned
/// configuration.
fn pinned_payload_hashes() -> Vec<(&'static str, u64)> {
    pinned_configs()
        .into_iter()
        .map(|(name, cfg, traced)| {
            let dir = fresh_dir(&format!("pin-{name}"));
            let mut sim = Simulation::new(cfg).unwrap();
            if traced {
                sim.enable_tracing(4_096, doram_obs::FILTER_ALL, 500);
            }
            let opts = RunOptions {
                checkpoint_every: Some(PIN_CYCLE),
                checkpoint_dir: Some(dir.clone()),
                ..RunOptions::default()
            };
            sim.run_with(&opts).unwrap();
            let first = checkpoints(&dir)
                .into_iter()
                .next()
                .unwrap_or_else(|| panic!("{name}: run ended before cycle {PIN_CYCLE}"));
            let data = doram_sim::snapshot::read_checkpoint(&first).unwrap();
            assert_eq!(data.cycle, PIN_CYCLE, "{name}: first checkpoint cycle");
            let _ = std::fs::remove_dir_all(&dir);
            (name, doram_sim::snapshot::fnv1a64(&data.payload))
        })
        .collect()
}

/// Pins the checkpoint encoding: a refactor of the snapshot code must
/// reproduce these payloads byte for byte, or else bump the version.
#[test]
fn checkpoint_payload_format_is_pinned() {
    const PINNED: [(&str, u64); 6] = [
        ("7ns-4ch", 0x17e9_807b_3c9c_0e2f),
        ("baseline", 0x07bf_0f4b_d3e2_0c04),
        ("secmem", 0x4861_12ac_3a4c_dc1c),
        ("doram-k1-c4", 0x50ef_85a6_00ba_ce36),
        ("doram-k0-c7-attacked", 0x0316_72cb_050a_9dbd),
        ("doram-k0-c7-attacked-traced", 0x088b_2d66_b152_e530),
    ];
    assert_eq!(doram_sim::snapshot::CHECKPOINT_VERSION, 5);
    let got = pinned_payload_hashes();
    let want: Vec<(&str, u64)> = PINNED.to_vec();
    let show = |v: &[(&str, u64)]| {
        v.iter()
            .map(|(n, h)| format!("(\"{n}\", {h:#018x})"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    assert!(
        got == want,
        "checkpoint payload hashes changed; bump CHECKPOINT_VERSION if the encoding changed\n \
         got:    [{}]\n pinned: [{}]",
        show(&got),
        show(&want)
    );
}
