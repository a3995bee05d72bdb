//! Host CPU-time and simulated-time benchmark of the D-ORAM simulator.
//!
//! ```text
//! perfbench --workload <ns7_comm4|doram_k1_mummer|doram_attacked>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it builds and runs the workload's simulation again and
//! again for `--seconds` of wall time and prints the end-to-end metrics,
//! summarised over the repetitions. With `--trace 1` it alternates untraced
//! and traced runs, then times the standalone layer micro-benchmarks, and
//! prints the per-layer metrics. Either way it checks the simulator's
//! outputs and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` beside this file.

mod clock;
mod metrics;
mod micro;
mod speed;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use doram::core::report::report_json;
use doram::core::{RunReport, SimError, Simulation};
use doram::obs::{InterferenceReport, DEFAULT_METRICS_EVERY, DEFAULT_RING_CAPACITY, FILTER_ALL};
use doram::sim::CPU_CYCLES_PER_MEM_CYCLE;

use clock::{cpu_timed, peak_rss_mib};
use metrics::{
    cycles_per_cpu_s, histogram_quantile, median, overhead_ratio, quantile, result_json, MetricSet,
    END_TO_END, PER_LAYER,
};
use speed::at_reference_clock;
use workload::Workload;

/// Set-ups timed per simulation run: set-up of `ns7_comm4` takes
/// microseconds, so one sample per run would be too few for a steady median.
const SETUPS_PER_RUN: usize = 5;

/// Which quantile of the per-run CPU times `cpu_s` reports. On a shared
/// host the runs of one process move between a contended state and bursts
/// up to 30% faster, in streaks of seconds, and the share of bursts changes
/// from minute to minute (see README.md). The 95th percentile stays in the
/// contended state, whose level moves least.
const CPU_S_QUANTILE: f64 = 0.95;

/// Bucket width of `RunReport::ns_read_histogram`, in memory cycles.
const NS_READ_BUCKET_CYCLES: u64 = 8;

/// Fewest simulation runs (or traced/untraced pairs) a measurement makes,
/// however short `--seconds` is.
const MIN_RUNS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <ns7_comm4|doram_k1_mummer|doram_attacked> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Outcome accounting and correctness checks across every run.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Report JSON of the first successful run; every later run, traced or
    /// not, must reproduce it byte for byte.
    reference: Option<String>,
}

impl Ledger {
    fn problem(&mut self, msg: String) {
        eprintln!("check failed: {msg}");
        self.problems.push(msg);
    }

    /// Counts one simulation run and checks its report. A run that errs, or
    /// that latched an unrecovered fail-stop fault, counts as failed.
    fn check_run(&mut self, w: Workload, result: Result<RunReport, SimError>) -> Option<RunReport> {
        self.attempted += 1;
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                self.failed += 1;
                self.problem(format!("run returned an error: {e}"));
                return None;
            }
        };
        let faults = report.faults.as_ref();
        if let Some(fault) = faults.and_then(|f| f.latched_fault.as_ref()) {
            self.failed += 1;
            self.problem(format!("run latched a fail-stop fault: {fault}"));
        }
        if w.attacked() {
            match faults {
                Some(f) => {
                    if f.replay_detected + f.relocation_detected + f.rollback_rejected == 0 {
                        self.problem("no mounted attack was detected".into());
                    }
                    if f.refetches + f.parity_rebuilds == 0 {
                        self.problem("detected attacks were never recovered from".into());
                    }
                }
                None => self.problem("an attacked D-ORAM run has no fault report".into()),
            }
        } else if faults.is_some_and(|f| f.degraded_episode()) {
            self.problem("a clean run went through a degraded episode".into());
        }
        let json = report_json(&report);
        match &self.reference {
            None => self.reference = Some(json),
            Some(first) if *first != json => {
                self.problem("a run's report differs from the first run's".into())
            }
            Some(_) => {}
        }
        Some(report)
    }
}

/// Builds the workload's configuration and simulation; returns the
/// simulation and the thread CPU seconds the set-up took.
fn setup(w: Workload, seed: u64) -> Result<(Simulation, f64), String> {
    let (sim, secs) = cpu_timed(|| w.config(seed).and_then(Simulation::new));
    sim.map(|s| (s, secs))
        .map_err(|e| format!("{}: set-up failed: {e}", w.name()))
}

/// Measures with tracing off and returns the end-to-end metrics.
fn measure_end_to_end(args: &Args, ledger: &mut Ledger) -> Result<MetricSet, String> {
    let w = args.workload;
    let start = Instant::now();
    let (mut setup_s, mut cpu_s, mut probe_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while cpu_s.len() < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        let mut sim = None;
        for _ in 0..SETUPS_PER_RUN {
            let (s, secs) = setup(w, args.seed)?;
            setup_s.push(secs);
            sim = Some(s);
        }
        let sim = sim.expect("at least one set-up per run");
        let (result, secs) = cpu_timed(|| sim.run());
        cpu_s.push(secs);
        probe_s.push(speed::probe());
        if let Some(r) = ledger.check_run(w, result) {
            last = Some(r);
        }
    }
    let r = last.ok_or("no run succeeded")?;
    let probe_median = median(&probe_s);
    let cpu = at_reference_clock(quantile(&cpu_s, CPU_S_QUANTILE), probe_median);
    let h = &r.ns_read_histogram;
    let read_latency = |q| {
        histogram_quantile(h.buckets(), NS_READ_BUCKET_CYCLES, h.total(), q)
            .ok_or(format!("no NS read latency quantile {q}"))
    };
    let (p50, p99) = (read_latency(0.50)?, read_latency(0.99)?);
    println!(
        "# {}: seed {}, {} runs in {:.2} s wall (diagnostic only)",
        w.name(),
        args.seed,
        cpu_s.len(),
        start.elapsed().as_secs_f64(),
    );
    println!(
        "# CPU s per run, as measured: min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
        quantile(&cpu_s, 0.0),
        quantile(&cpu_s, 0.25),
        median(&cpu_s),
        quantile(&cpu_s, 0.75),
        quantile(&cpu_s, 1.0),
    );
    println!(
        "# clock probe: median {probe_median:.5} s against {} s on the reference host; \
         cpu_s and setup_s are rescaled by that ratio",
        speed::REFERENCE_S
    );
    println!(
        "# NS read latency: {} samples ({} beyond p99)",
        r.ns_read_histogram.total(),
        r.ns_read_histogram.total() / 100
    );
    match &r.oram {
        Some(o) => println!(
            "# S-App ORAM: {:.3} cycles mean access latency over {} accesses ({} real, {} dummy)",
            o.access_latency,
            o.real_accesses + o.dummy_accesses,
            o.real_accesses,
            o.dummy_accesses
        ),
        None => println!("# S-App ORAM: none in this scheme"),
    }
    let failed_frac = ledger.failed as f64 / ledger.attempted as f64;
    println!(
        "# failed_frac {failed_frac} ({} of {} runs)",
        ledger.failed, ledger.attempted
    );

    let mut m = MetricSet::new(END_TO_END);
    m.put("cpu_s", cpu);
    m.put(
        "sim_cycles_per_cpu_s",
        cycles_per_cpu_s(r.total_mem_cycles, cpu),
    );
    m.put(
        "setup_s",
        at_reference_clock(median(&setup_s), probe_median),
    );
    m.put("peak_rss_mib", peak_rss_mib()?);
    m.put("sim_mem_cycles", r.total_mem_cycles as f64);
    m.put("sim_ns_exec_mean", r.ns_exec_mean());
    m.put("sim_ns_read_p50", p50);
    m.put("sim_ns_read_p99", p99);
    m.put("ok_frac", 1.0 - failed_frac);
    Ok(m)
}

/// Simulated queueing waits summed per layer, from the blame matrix rows.
/// Returns `(metric name, cycles)` in catalogue order.
fn waits_by_layer(ir: &InterferenceReport) -> [(&'static str, u64); 5] {
    let mut out = [
        ("wait.sd_sub", 0),
        ("wait.normal_ch", 0),
        ("wait.link", 0),
        ("wait.sd_queue", 0),
        ("wait.cpu_mux", 0),
    ];
    for row in &ir.blame {
        let layer = layer_of_row(&row.name);
        match out.iter_mut().find(|(n, _)| Some(*n) == layer) {
            Some((_, total)) => *total += row.queue_delay,
            None => eprintln!("note: blame row {} maps to no wait layer", row.name),
        }
    }
    out
}

/// The wait metric a blame-matrix row belongs to: serial links first (a
/// normal channel's link is a link, not the channel), then the SD's DRAM
/// sub-channels, the SD's other queues, the CPU mux and normal channels.
fn layer_of_row(name: &str) -> Option<&'static str> {
    if name.contains(".link") {
        Some("wait.link")
    } else if name.starts_with("sd.sub") {
        Some("wait.sd_sub")
    } else if name.starts_with("sd.") {
        Some("wait.sd_queue")
    } else if name.starts_with("cpu.mux") {
        Some("wait.cpu_mux")
    } else if name.starts_with("ch") {
        Some("wait.normal_ch")
    } else {
        None
    }
}

/// Measures the traced run and the standalone micro-benchmarks; returns the
/// per-layer metrics.
fn measure_per_layer(args: &Args, ledger: &mut Ledger) -> Result<MetricSet, String> {
    let w = args.workload;
    let start = Instant::now();
    let (mut untraced_s, mut traced_s, mut cpu_share) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    // Half the time goes to alternating untraced/traced pairs (alternating
    // which runs first), half to the standalone micro-benchmarks.
    while untraced_s.len() < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let order = if untraced_s.len() % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            let (mut sim, _) = setup(w, args.seed)?;
            if !traced {
                let (result, secs) = cpu_timed(|| sim.run());
                untraced_s.push(secs);
                ledger.check_run(w, result);
                continue;
            }
            let rec = sim.enable_tracing(DEFAULT_RING_CAPACITY, FILTER_ALL, DEFAULT_METRICS_EVERY);
            let (result, secs) = cpu_timed(|| sim.run());
            traced_s.push(secs);
            let report = ledger.check_run(w, result);
            let ir = InterferenceReport::from_recorder(&rec.borrow());
            if let Err((row, attributed, delay)) = ir.check_conservation() {
                ledger.problem(format!(
                    "blame row {row} attributes {attributed} cycles of {delay} queueing delay"
                ));
            }
            let host = ir
                .host
                .as_ref()
                .ok_or("the traced run has no host profile")?;
            let nanos = |name: &str| {
                host.components
                    .iter()
                    .find(|c| c.name == name)
                    .map(|c| c.nanos_per_sample)
                    .ok_or(format!("the host profile has no {name} component"))
            };
            let (step, tick) = (nanos("cpu.step")?, nanos("memory.tick")?);
            cpu_share.push(step / (step + tick));
            if let Some(r) = report {
                last = Some((r, ir));
            }
        }
    }
    let (r, ir) = last.ok_or("no traced run succeeded")?;
    let untraced = median(&untraced_s);
    let ns_per_cycle = untraced * 1e9 / r.total_mem_cycles as f64;
    let share = median(&cpu_share);
    println!(
        "# {}: seed {}, {} untraced/traced pairs; {:.1} host ns per memory cycle \
         split {:.1}% cpu.step / {:.1}% memory.tick",
        w.name(),
        args.seed,
        traced_s.len(),
        ns_per_cycle,
        share * 100.0,
        (1.0 - share) * 100.0
    );

    ledger.attempted += 1;
    let cfg = w.config(args.seed).map_err(|e| e.to_string())?;
    let micro_ns = match micro::run_all(w, &cfg, args.seconds / 2.0) {
        Ok(d) => d,
        Err(e) => {
            ledger.failed += 1;
            ledger.problem(e);
            return Err("a standalone micro-benchmark failed".into());
        }
    };

    let mut m = MetricSet::new(PER_LAYER);
    m.put("core.cpu_step_ns", share * ns_per_cycle);
    m.put("core.mem_tick_ns", (1.0 - share) * ns_per_cycle);
    m.put("obs.overhead", overhead_ratio(median(&traced_s), untraced));
    for (name, cycles) in waits_by_layer(&ir) {
        m.put(name, cycles as f64);
    }
    let cores = r.per_core_mlp.len() as u64;
    m.put(
        "cpu.steps",
        (r.total_mem_cycles * CPU_CYCLES_PER_MEM_CYCLE * cores) as f64,
    );
    let (accesses, dummies, latency) = r.oram.as_ref().map_or((0, 0, 0.0), |o| {
        (
            o.real_accesses + o.dummy_accesses,
            o.dummy_accesses,
            o.access_latency,
        )
    });
    m.put("oram.accesses", accesses as f64);
    m.put(
        "oram.dummy_frac",
        if accesses == 0 {
            0.0
        } else {
            dummies as f64 / accesses as f64
        },
    );
    m.put("sim_oram_access_cycles", latency);
    m.put(
        "link.bytes",
        r.secure_link_bytes
            .map_or(0, |(to_mem, to_cpu)| to_mem + to_cpu) as f64,
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.put("dram.row_hit", mean(&r.channel_row_hit));
    m.put("dram.util", mean(&r.channel_utilization));
    let f = r.faults.clone().unwrap_or_default();
    m.put("sd.refetches", f.refetches as f64);
    m.put("sd.freshness_ops", f.freshness_ops as f64);
    m.put("sd.recovery_cycles", f.sd_recovery_cycles as f64);
    for (name, ns) in micro_ns {
        m.put(name, ns);
    }
    Ok(m)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ledger = Ledger::default();
    let measured = if args.trace {
        measure_per_layer(&args, &mut ledger)
    } else {
        measure_end_to_end(&args, &mut ledger)
    };
    let set = match measured {
        Ok(set) => set,
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    for name in set.missing() {
        ledger.problem(format!("metric {name} was not measured"));
    }
    let metrics = set.in_order();
    for m in &metrics {
        if !m.value.is_finite() {
            ledger.problem(format!("metric {} is not a finite number", m.name));
        }
        if !metrics::valid_name(m.name) || !metrics::valid_unit(m.unit) {
            ledger.problem(format!("metric {} has an invalid name or unit", m.name));
        }
        println!("{:<24} {:>18} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(
            ledger.problems.is_empty(),
            ledger.attempted,
            ledger.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line() {
        let a = args("--workload doram_attacked --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::DOramAttacked,
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
        assert!(args("--seed 7").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload ns7_comm4 --trace 2").is_err());
        assert!(args("--workload ns7_comm4 --seconds 0").is_err());
        assert!(args("--workload ns7_comm4 --seconds").is_err());
        assert!(args("--workload ns7_comm4 --bogus 1").is_err());
    }

    #[test]
    fn blame_rows_map_to_wait_layers() {
        assert_eq!(layer_of_row("sd.sub2"), Some("wait.sd_sub"));
        assert_eq!(layer_of_row("sec.link.to_mem"), Some("wait.link"));
        assert_eq!(layer_of_row("ch1.link.to_cpu"), Some("wait.link"));
        assert_eq!(layer_of_row("sd.verify"), Some("wait.sd_queue"));
        assert_eq!(layer_of_row("cpu.mux.split"), Some("wait.cpu_mux"));
        assert_eq!(layer_of_row("ch3.mc"), Some("wait.normal_ch"));
        assert_eq!(layer_of_row("other"), None);
    }
}
