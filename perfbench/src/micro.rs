//! Standalone micro-benchmarks: each replays the workload's own generated access
//! stream into one crate's public API and reports host CPU nanoseconds per
//! call. They isolate one layer from the rest of the simulator, so a change
//! to that layer shows here even where the whole run hides it.

use std::collections::VecDeque;
use std::hint::black_box;

use doram::bob::{BobChannel, BobChannelConfig};
use doram::core::channels::ChannelFabric;
use doram::core::onchip_oram::OramJob;
use doram::core::secure_channel::{SecureChannel, SecureChannelConfig, SplitFetch};
use doram::core::{Scheme, SystemConfig};
use doram::cpu::{CoreConfig, MemoryPort, TraceCore};
use doram::crypto::{BucketIntegrity, MerkleTree};
use doram::dram::{
    Completion, MemOp, MemRequest, RequestClass, ShareArbiter, SubChannel, SubChannelConfig,
};
use doram::oram::{PlanConfig, Planner, SplitConfig, Stash, TreeGeometry};
use doram::sim::{AppId, MemCycle, RequestId, CPU_CYCLES_PER_MEM_CYCLE};
use doram::trace::{AccessOp, TraceGenerator, TraceRecord};

use crate::clock::thread_cpu_ns;
use crate::workload::{Workload, NS_ACCESSES};

/// Calls per timed batch: the CPU clock is a system call, so it is read
/// once per batch, never per call.
const BATCH: u64 = 2_048;

/// Read latency of the stub memory behind the standalone core, in CPU
/// cycles (40 memory cycles, about comm4's median NS read latency).
const STUB_READ_LATENCY_CPU: u64 = 160;

/// Reads the stub memory keeps in flight before refusing more.
const STUB_MAX_INFLIGHT: usize = 16;

/// Depth of the SD freshness tree (one leaf per bucket address).
const FRESHNESS_DEPTH: u32 = 14;

/// Buckets the stash micro-benchmark evicts per access (Z).
const STASH_EVICT: usize = 4;

/// Memory cycles the SD micro-benchmark waits for one response before it reports
/// the secure channel stalled.
const SD_STALL_CYCLES: u64 = 1_000_000;

/// Runs the nine micro-benchmarks, sharing `budget_s` CPU seconds evenly; returns
/// `(per-layer metric name, host CPU ns per call)` pairs.
pub fn run_all(
    w: Workload,
    cfg: &SystemConfig,
    budget_s: f64,
) -> Result<Vec<(&'static str, f64)>, String> {
    let budget_ns = (budget_s / 9.0 * 1e9) as u64;
    Ok(vec![
        ("trace.record_ns", trace_record(w, cfg.seed, budget_ns)),
        ("cpu.step_ns", cpu_step(w, cfg.seed, budget_ns)),
        ("dram.tick_ns", dram_tick(w, cfg, budget_ns)),
        ("bob.tick_ns", bob_tick(w, cfg, budget_ns)),
        ("oram.plan_ns", oram_plan(w, cfg, budget_ns)),
        ("oram.stash_ns", oram_stash(w, cfg.seed, budget_ns)),
        ("core.sd_tick_ns", sd_tick(w, cfg, budget_ns)?),
        ("crypto.bucket_mac_ns", bucket_mac(w, cfg.seed, budget_ns)?),
        ("crypto.merkle_ns", merkle(w, cfg.seed, budget_ns)?),
    ])
}

/// Runs `batch` (which makes some calls and returns how many) until
/// `budget_ns` of thread CPU time is spent; returns CPU ns per call.
fn per_call(budget_ns: u64, mut batch: impl FnMut() -> u64) -> f64 {
    let t0 = thread_cpu_ns();
    let mut calls = 0u64;
    loop {
        calls += batch();
        let spent = thread_cpu_ns() - t0;
        if spent >= budget_ns {
            return spent as f64 / calls as f64;
        }
    }
}

/// The access stream of the workload's first NS-App core (core 1), as the
/// simulator generates it for `restart`.
fn stream(w: Workload, seed: u64, restart: u64) -> TraceGenerator {
    TraceGenerator::new(w.benchmark().spec(), seed, 1_000 + restart)
}

/// A 64-bit mixer (splitmix64 finalizer) for deriving leaves from addresses.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn mem_op(op: AccessOp) -> MemOp {
    match op {
        AccessOp::Read => MemOp::Read,
        AccessOp::Write => MemOp::Write,
    }
}

fn integrity_key(seed: u64) -> [u8; 16] {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    key[8..].copy_from_slice(&mix(seed).to_le_bytes());
    key
}

fn bucket_payload(addr: u64, version: u64) -> [u8; 16] {
    let mut p = [0u8; 16];
    p[..8].copy_from_slice(&addr.to_le_bytes());
    p[8..].copy_from_slice(&version.to_le_bytes());
    p
}

/// `TraceGenerator::next_record`.
fn trace_record(w: Workload, seed: u64, budget_ns: u64) -> f64 {
    let mut gen = stream(w, seed, 0);
    per_call(budget_ns, || {
        for _ in 0..BATCH {
            black_box(gen.next_record());
        }
        BATCH
    })
}

/// A memory that accepts every write and answers every read after a fixed
/// latency, up to a bound on reads in flight.
struct StubMemory {
    now: u64,
    next_id: u64,
    inflight: VecDeque<(u64, RequestId)>,
}

impl MemoryPort for StubMemory {
    fn try_read(&mut self, _addr: u64) -> Option<RequestId> {
        if self.inflight.len() >= STUB_MAX_INFLIGHT {
            return None;
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.inflight
            .push_back((self.now + STUB_READ_LATENCY_CPU, id));
        Some(id)
    }

    fn try_write(&mut self, _addr: u64) -> bool {
        true
    }
}

/// `TraceCore::step` against the fixed-latency stub memory; the core
/// restarts its trace when it finishes, as the simulator's cores do.
fn cpu_step(w: Workload, seed: u64, budget_ns: u64) -> f64 {
    let new_core = |restart| {
        TraceCore::new(
            CoreConfig::default(),
            Box::new(stream(w, seed, restart).finite(NS_ACCESSES)),
        )
    };
    let mut restarts = 0;
    let mut core = new_core(restarts);
    let mut mem = StubMemory {
        now: 0,
        next_id: 0,
        inflight: VecDeque::new(),
    };
    per_call(budget_ns, || {
        for _ in 0..BATCH {
            core.step(&mut mem);
            mem.now += 1;
            while let Some(&(due, id)) = mem.inflight.front() {
                if due > mem.now {
                    break;
                }
                mem.inflight.pop_front();
                core.complete_read(id);
            }
            if core.finished() {
                restarts += 1;
                core = new_core(restarts);
            }
        }
        BATCH
    })
}

/// Paces the access stream at the core's peak fetch rate (fetch width x CPU
/// cycles per memory cycle = 16 instructions per memory cycle) and hands
/// out each record once it is due.
struct Pacer {
    gen: TraceGenerator,
    next: TraceRecord,
    due: u64,
    next_id: u64,
}

impl Pacer {
    fn new(mut gen: TraceGenerator) -> Pacer {
        let next = gen.next_record();
        Pacer {
            due: Pacer::cycles_for(next.gap),
            gen,
            next,
            next_id: 0,
        }
    }

    /// Offers the next record to `accept` once it is due at `now`; a
    /// refused record is offered again on the next cycle.
    fn offer(&mut self, now: u64, accept: impl FnOnce(MemRequest) -> bool) {
        if now < self.due {
            return;
        }
        let req = MemRequest {
            id: RequestId(self.next_id),
            app: AppId(1),
            op: mem_op(self.next.op),
            addr: self.next.addr,
            class: RequestClass::Normal,
            arrival: MemCycle(now),
        };
        if accept(req) {
            self.next_id += 1;
            self.next = self.gen.next_record();
            self.due = now + Pacer::cycles_for(self.next.gap);
        }
    }

    /// Memory cycles a core at peak fetch rate needs for `instructions`.
    fn cycles_for(instructions: u64) -> u64 {
        instructions / (CoreConfig::default().fetch_width as u64 * CPU_CYCLES_PER_MEM_CYCLE)
    }
}

fn normal_subchannel_config(cfg: &SystemConfig) -> SubChannelConfig {
    SubChannelConfig {
        page_policy: cfg.page_policy,
        ..ChannelFabric::paper_subchannel_config(cfg.timing, 1.0)
    }
}

/// `SubChannel::enqueue` + `tick`, one call per memory cycle.
fn dram_tick(w: Workload, cfg: &SystemConfig, budget_ns: u64) -> f64 {
    let mut sub = SubChannel::new(normal_subchannel_config(cfg));
    let mut pacer = Pacer::new(stream(w, cfg.seed, 0));
    let mut done: Vec<Completion> = Vec::new();
    let mut now = 0u64;
    per_call(budget_ns, || {
        for _ in 0..BATCH {
            pacer.offer(now, |req| sub.enqueue(req).is_ok());
            sub.tick(MemCycle(now), &mut done);
            black_box(done.len());
            done.clear();
            now += 1;
        }
        BATCH
    })
}

/// `BobChannel::try_send` + `tick`, one call per memory cycle.
fn bob_tick(w: Workload, cfg: &SystemConfig, budget_ns: u64) -> f64 {
    let mut ch = BobChannel::new(BobChannelConfig {
        link: cfg.link,
        sub_channels: vec![normal_subchannel_config(cfg)],
    });
    let mut pacer = Pacer::new(stream(w, cfg.seed, 0));
    let mut done: Vec<Completion> = Vec::new();
    let mut now = 0u64;
    per_call(budget_ns, || {
        for _ in 0..BATCH {
            pacer.offer(now, |req| ch.try_send(req, MemCycle(now)).is_ok());
            ch.tick(MemCycle(now), &mut done);
            black_box(done.len());
            done.clear();
            now += 1;
        }
        BATCH
    })
}

/// The SD's ORAM plan for the workload's tree: split levels for D-ORAM+k,
/// none otherwise (the layout the paper's D-ORAM uses).
fn plan_config(cfg: &SystemConfig) -> PlanConfig {
    let split = match cfg.scheme {
        Scheme::DOram { k, .. } if k > 0 => SplitConfig::new(k, cfg.channels - 1),
        _ => SplitConfig::none(),
    };
    PlanConfig {
        geometry: TreeGeometry::new(cfg.tree_l_max, cfg.tree_z),
        subtree_levels: cfg.subtree_levels,
        cached_levels: cfg.tree_top_levels,
        split,
        tree_units: cfg.secure_subchannels,
    }
}

/// `Planner::plan` for leaves drawn from the stream's addresses.
fn oram_plan(w: Workload, cfg: &SystemConfig, budget_ns: u64) -> f64 {
    let plan = plan_config(cfg);
    let leaves = plan.geometry.num_leaves();
    let planner = Planner::new(plan);
    let mut gen = stream(w, cfg.seed, 0);
    per_call(budget_ns, || {
        for _ in 0..BATCH {
            let leaf = mix(gen.next_record().addr) % leaves;
            black_box(planner.plan(leaf));
        }
        BATCH
    })
}

/// `Stash::insert` of each streamed block followed by `take_eligible` of
/// up to Z blocks sharing the access leaf's low three path bits, which
/// holds the stash near a steady occupancy.
fn oram_stash(w: Workload, seed: u64, budget_ns: u64) -> f64 {
    let mut stash: Stash<u64> = Stash::new();
    let mut gen = stream(w, seed, 0);
    per_call(budget_ns, || {
        for _ in 0..BATCH {
            let addr = gen.next_record().addr;
            let leaf = mix(addr);
            stash.insert(addr >> 6, leaf, addr);
            black_box(stash.take_eligible(STASH_EVICT, |l| (l ^ leaf) & 7 == 0));
        }
        BATCH
    })
}

/// The secure channel the simulator builds for `cfg` (as in D-ORAM).
fn secure_channel(cfg: &SystemConfig) -> SecureChannel {
    let secure_sub = SubChannelConfig {
        arbiter: ShareArbiter::oram_priority(),
        page_policy: cfg.page_policy,
        ..ChannelFabric::paper_subchannel_config(cfg.timing, 1.0)
    };
    SecureChannel::new(SecureChannelConfig {
        link: cfg.link,
        sub_channels: vec![secure_sub; cfg.secure_subchannels],
        plan: plan_config(cfg),
        s_app: AppId(0),
        seed: cfg.seed ^ 0x0A0A,
        merge_split_reads: cfg.merge_split_reads,
        sd_pipeline: cfg.sd_pipeline,
        fault_plan: cfg.fault_plan.clone(),
        recovery: cfg.recovery,
        parity: cfg.parity,
        scrub_every: cfg.scrub_every,
        probation_window: cfg.probation_window,
        probation_successes: cfg.probation_successes,
    })
}

/// `SecureChannel::send_secure` + `tick`, one call per memory cycle. The
/// stream's accesses go to the SD one at a time; split-level fetches are
/// answered on the next cycle, standing in for the normal channels.
fn sd_tick(w: Workload, cfg: &SystemConfig, budget_ns: u64) -> Result<f64, String> {
    let mut sd = secure_channel(cfg);
    let mut gen = stream(w, cfg.seed, 0);
    let (mut ns_done, mut responses, mut sreads, mut swrites) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut to_deliver: VecDeque<SplitFetch> = VecDeque::new();
    let mut waiting_since: Option<u64> = None;
    let mut now = 0u64;
    let mut next_id = 0u64;
    let mut stalled = false;
    let ns = per_call(budget_ns, || {
        for _ in 0..BATCH {
            if waiting_since.is_none() && sd.can_send_secure() {
                let rec = gen.next_record();
                let op = mem_op(rec.op);
                next_id += 1;
                sd.send_secure(OramJob::Real {
                    id: (op == MemOp::Read).then_some(RequestId(next_id)),
                    op,
                    block: rec.addr >> 6,
                });
                waiting_since = Some(now);
            }
            while let Some(&f) = to_deliver.front() {
                if sd.try_deliver_split_read(f).is_err() {
                    break;
                }
                to_deliver.pop_front();
            }
            sd.tick(
                MemCycle(now),
                &mut ns_done,
                &mut responses,
                &mut sreads,
                &mut swrites,
            );
            to_deliver.extend(sreads.drain(..));
            swrites.clear();
            if !responses.is_empty() {
                responses.clear();
                waiting_since = None;
            }
            if waiting_since.is_some_and(|t| now - t > SD_STALL_CYCLES) {
                stalled = true;
            }
            now += 1;
        }
        BATCH
    });
    if stalled {
        return Err(format!(
            "{}: the standalone secure channel stalled",
            w.name()
        ));
    }
    Ok(ns)
}

/// `BucketIntegrity::verify` over buckets the stream touched.
fn bucket_mac(w: Workload, seed: u64, budget_ns: u64) -> Result<f64, String> {
    let mut integrity = BucketIntegrity::new(integrity_key(seed));
    let mut gen = stream(w, seed, 0);
    let buckets: Vec<(u64, [u8; 16])> = (0..BATCH)
        .map(|_| {
            let addr = gen.next_record().addr;
            (addr, bucket_payload(addr, 1))
        })
        .collect();
    for (addr, payload) in &buckets {
        integrity.record(*addr, payload);
    }
    let mut all_verified = true;
    let ns = per_call(budget_ns, || {
        for (addr, payload) in &buckets {
            all_verified &= integrity.verify(black_box(*addr), black_box(payload));
        }
        BATCH
    });
    if !all_verified {
        return Err(format!(
            "{}: an untampered bucket failed its MAC check",
            w.name()
        ));
    }
    Ok(ns)
}

/// `MerkleTree::update` then `verify` of the streamed bucket's leaf, at
/// the SD freshness tree's depth; ns per call (two calls per access).
fn merkle(w: Workload, seed: u64, budget_ns: u64) -> Result<f64, String> {
    let mut tree = MerkleTree::new(FRESHNESS_DEPTH, integrity_key(seed));
    let leaves = tree.num_leaves();
    let mut gen = stream(w, seed, 0);
    let mut version = 0u64;
    let mut all_verified = true;
    let ns = per_call(budget_ns, || {
        for _ in 0..BATCH / 2 {
            let addr = gen.next_record().addr;
            let leaf = mix(addr) % leaves;
            version += 1;
            let payload = bucket_payload(addr, version);
            tree.update(leaf, &payload);
            all_verified &= tree.verify(black_box(leaf), black_box(&payload));
        }
        BATCH
    });
    if !all_verified {
        return Err(format!(
            "{}: a fresh Merkle leaf failed verification",
            w.name()
        ));
    }
    Ok(ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_micro_benchmark_runs_on_every_workload() {
        for w in Workload::ALL {
            let cfg = w.config(3).expect("valid workload");
            let times = run_all(w, &cfg, 0.02).expect("micro-benchmarks succeed");
            assert_eq!(times.len(), 9);
            for (name, ns) in times {
                assert!(ns.is_finite() && ns > 0.0, "{}: {name} = {ns}", w.name());
            }
        }
    }
}
