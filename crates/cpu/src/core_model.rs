//! The trace-driven ROB core.

use doram_sim::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use doram_sim::stats::Counter;
use doram_sim::RequestId;
use doram_trace::{AccessOp, TraceRecord};
use std::collections::VecDeque;

/// Interface the core uses to reach the memory system.
///
/// Implemented by the system driver, which maps addresses to channels and
/// enqueues into the appropriate controller. Refusals (returning `None` /
/// `false`) model queue back-pressure and stall the core.
pub trait MemoryPort {
    /// Attempts to issue a demand read; `Some(id)` when accepted.
    fn try_read(&mut self, addr: u64) -> Option<RequestId>;
    /// Attempts to issue a posted write; `true` when accepted.
    fn try_write(&mut self, addr: u64) -> bool;
}

/// Core configuration (Table II values by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder-buffer capacity.
    pub rob_size: usize,
    /// Instructions fetched per CPU cycle.
    pub fetch_width: usize,
    /// Instructions retired per CPU cycle.
    pub retire_width: usize,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            rob_size: 128,
            fetch_width: 4,
            retire_width: 4,
        }
    }
}

/// Per-core statistics.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: Counter,
    /// CPU cycles stepped.
    pub cycles: Counter,
    /// Demand reads issued to memory.
    pub reads_issued: Counter,
    /// Writes posted to memory.
    pub writes_issued: Counter,
    /// Cycles retirement was blocked by an unresolved read at the head.
    pub read_stall_cycles: Counter,
    /// Cycles retirement was blocked by write-queue back-pressure.
    pub write_stall_cycles: Counter,
    /// Cycles fetch was blocked by read-queue back-pressure.
    pub fetch_stall_cycles: Counter,
    /// Sum over cycles of outstanding reads (for mean MLP).
    pub outstanding_read_sum: Counter,
}

impl CoreStats {
    /// Instructions per cycle achieved so far.
    pub fn ipc(&self) -> f64 {
        if self.cycles.get() == 0 {
            0.0
        } else {
            self.retired.get() as f64 / self.cycles.get() as f64
        }
    }

    /// Mean memory-level parallelism: average outstanding demand reads
    /// per cycle (the ROB window is the only MLP source in this model).
    pub fn mean_mlp(&self) -> f64 {
        if self.cycles.get() == 0 {
            0.0
        } else {
            self.outstanding_read_sum.get() as f64 / self.cycles.get() as f64
        }
    }
}

doram_sim::impl_codec!(CoreStats {
    retired,
    cycles,
    reads_issued,
    writes_issued,
    read_stall_cycles,
    write_stall_cycles,
    fetch_stall_cycles,
    outstanding_read_sum,
});

#[derive(Debug, Clone, Copy)]
enum RobEntry {
    NonMem,
    Read { id: RequestId, done: bool },
    Write { addr: u64 },
}

/// A single trace-driven core.
pub struct TraceCore {
    cfg: CoreConfig,
    trace: Box<dyn Iterator<Item = TraceRecord> + Send>,
    rob: VecDeque<RobEntry>,
    /// Non-memory instructions still to fetch before `pending_access`.
    gap_left: u64,
    /// The next memory access to fetch, if already pulled from the trace.
    pending_access: Option<TraceRecord>,
    trace_done: bool,
    /// Records ever pulled from `trace` (for checkpoint restore: a fresh
    /// iterator of the same trace is fast-forwarded by this many records).
    consumed: u64,
    /// ROB entries that are reads still waiting for memory. Derived from
    /// `rob` (kept equal to a recount by `fetch`/`complete_read`, rebuilt
    /// by `load_state`), so `step` samples MLP without scanning the ROB.
    outstanding: u64,
    stats: CoreStats,
}

impl std::fmt::Debug for TraceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCore")
            .field("cfg", &self.cfg)
            .field("rob_occupancy", &self.rob.len())
            .field("finished", &self.finished())
            .finish_non_exhaustive()
    }
}

impl TraceCore {
    /// Creates a core that executes `trace` to completion.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero widths or ROB).
    pub fn new(
        cfg: CoreConfig,
        trace: Box<dyn Iterator<Item = TraceRecord> + Send>,
    ) -> TraceCore {
        assert!(
            cfg.rob_size > 0 && cfg.fetch_width > 0 && cfg.retire_width > 0,
            "core configuration must be non-degenerate"
        );
        TraceCore {
            cfg,
            trace,
            rob: VecDeque::with_capacity(cfg.rob_size),
            gap_left: 0,
            pending_access: None,
            trace_done: false,
            consumed: 0,
            outstanding: 0,
            stats: CoreStats::default(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired.get()
    }

    /// Whether the trace is fully fetched *and* the ROB has drained.
    pub fn finished(&self) -> bool {
        self.trace_done && self.rob.is_empty() && self.pending_access.is_none() && self.gap_left == 0
    }

    /// Identifiers of reads issued but not yet completed.
    pub fn outstanding_reads(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.rob.iter().filter_map(|e| match e {
            RobEntry::Read { id, done: false } => Some(*id),
            _ => None,
        })
    }

    /// Marks a previously issued read as resolved.
    ///
    /// Unknown ids are ignored (the memory system may complete dummy or
    /// ORAM-internal requests through the same path), and so are repeated
    /// completions of an already resolved read.
    pub fn complete_read(&mut self, id: RequestId) {
        for e in self.rob.iter_mut() {
            if let RobEntry::Read { id: eid, done } = e {
                if *eid == id {
                    if !*done {
                        *done = true;
                        self.outstanding -= 1;
                    }
                    return;
                }
            }
        }
    }

    /// Advances the core by one CPU cycle: retire, then fetch.
    pub fn step(&mut self, port: &mut dyn MemoryPort) {
        self.stats.cycles.inc();
        self.stats.outstanding_read_sum.add(self.outstanding);
        self.retire(port);
        self.fetch(port);
    }

    fn retire(&mut self, port: &mut dyn MemoryPort) {
        for _ in 0..self.cfg.retire_width {
            match self.rob.front() {
                None => return,
                Some(RobEntry::NonMem) => {
                    self.rob.pop_front();
                    self.stats.retired.inc();
                }
                Some(RobEntry::Read { done: true, .. }) => {
                    self.rob.pop_front();
                    self.stats.retired.inc();
                }
                Some(RobEntry::Read { done: false, .. }) => {
                    self.stats.read_stall_cycles.inc();
                    return;
                }
                Some(RobEntry::Write { addr }) => {
                    let addr = *addr;
                    if port.try_write(addr) {
                        self.rob.pop_front();
                        self.stats.retired.inc();
                        self.stats.writes_issued.inc();
                    } else {
                        self.stats.write_stall_cycles.inc();
                        return;
                    }
                }
            }
        }
    }

    fn fetch(&mut self, port: &mut dyn MemoryPort) {
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_size {
                return;
            }
            // Refill the expansion state from the trace.
            if self.gap_left == 0 && self.pending_access.is_none() {
                match self.trace.next() {
                    Some(rec) => {
                        self.consumed += 1;
                        self.gap_left = rec.gap;
                        self.pending_access = Some(rec);
                    }
                    None => {
                        self.trace_done = true;
                        return;
                    }
                }
            }
            if self.gap_left > 0 {
                self.rob.push_back(RobEntry::NonMem);
                self.gap_left -= 1;
                continue;
            }
            let rec = self.pending_access.expect("refilled above");
            match rec.op {
                AccessOp::Read => match port.try_read(rec.addr) {
                    Some(id) => {
                        self.rob.push_back(RobEntry::Read { id, done: false });
                        self.outstanding += 1;
                        self.stats.reads_issued.inc();
                        self.pending_access = None;
                    }
                    None => {
                        // Read queue full: fetch stalls this cycle.
                        self.stats.fetch_stall_cycles.inc();
                        return;
                    }
                },
                AccessOp::Write => {
                    // Writes are posted at retirement; occupy a slot now.
                    self.rob.push_back(RobEntry::Write { addr: rec.addr });
                    self.pending_access = None;
                }
            }
        }
    }

    /// Serializes the core's dynamic state for a checkpoint.
    ///
    /// The trace iterator itself is not serialized; only the number of
    /// records consumed is, so [`TraceCore::load_state`] can fast-forward a
    /// freshly rebuilt iterator of the same trace to the same position.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        let TraceCore {
            cfg: _,
            trace: _,
            rob,
            gap_left,
            pending_access,
            trace_done,
            consumed,
            outstanding: _, // derived from `rob`; rebuilt on load
            stats,
        } = self;
        w.put(consumed);
        w.put(rob);
        w.put(gap_left);
        w.put(pending_access);
        w.put(trace_done);
        w.put(stats);
    }

    /// Restores the core from a checkpoint written by
    /// [`TraceCore::save_state`].
    ///
    /// `fresh_trace` must be a brand-new iterator over the *same* trace the
    /// core was constructed with; it is fast-forwarded past the records the
    /// checkpointed core had already consumed.
    pub fn load_state(
        &mut self,
        r: &mut SnapshotReader<'_>,
        fresh_trace: Box<dyn Iterator<Item = TraceRecord> + Send>,
    ) -> Result<(), SnapshotError> {
        self.trace = fresh_trace;
        self.consumed = r.get()?;
        for _ in 0..self.consumed {
            if self.trace.next().is_none() {
                return Err(SnapshotError::new(format!(
                    "trace ended before the {} checkpointed records",
                    self.consumed
                )));
            }
        }
        self.rob = r.get()?;
        self.outstanding = self.outstanding_reads().count() as u64;
        self.gap_left = r.get()?;
        self.pending_access = r.get()?;
        self.trace_done = r.get()?;
        self.stats = r.get()?;
        Ok(())
    }
}

impl Codec for RobEntry {
    fn put(&self, w: &mut SnapshotWriter) {
        match self {
            RobEntry::NonMem => w.put_u8(0),
            RobEntry::Read { id, done } => {
                w.put_u8(1);
                w.put(id);
                w.put(done);
            }
            RobEntry::Write { addr } => {
                w.put_u8(2);
                w.put(addr);
            }
        }
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.get_u8()? {
            0 => RobEntry::NonMem,
            1 => RobEntry::Read {
                id: r.get()?,
                done: r.get()?,
            },
            2 => RobEntry::Write { addr: r.get()? },
            tag => return Err(SnapshotError::new(format!("bad rob entry tag {tag}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scriptable memory port.
    struct TestPort {
        accept_reads: bool,
        accept_writes: bool,
        next_id: u64,
        reads: Vec<(RequestId, u64)>,
        writes: Vec<u64>,
    }

    impl TestPort {
        fn new() -> TestPort {
            TestPort {
                accept_reads: true,
                accept_writes: true,
                next_id: 0,
                reads: Vec::new(),
                writes: Vec::new(),
            }
        }
    }

    impl MemoryPort for TestPort {
        fn try_read(&mut self, addr: u64) -> Option<RequestId> {
            if !self.accept_reads {
                return None;
            }
            let id = RequestId(self.next_id);
            self.next_id += 1;
            self.reads.push((id, addr));
            Some(id)
        }
        fn try_write(&mut self, addr: u64) -> bool {
            if self.accept_writes {
                self.writes.push(addr);
                true
            } else {
                false
            }
        }
    }

    fn trace(records: Vec<TraceRecord>) -> Box<dyn Iterator<Item = TraceRecord> + Send> {
        Box::new(records.into_iter())
    }

    fn rec(gap: u64, op: AccessOp, addr: u64) -> TraceRecord {
        TraceRecord { gap, op, addr }
    }

    #[test]
    fn non_mem_instructions_retire_at_full_width() {
        // 100 instructions of pure gap retire in ~100/4 + pipeline-fill
        // cycles.
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![rec(99, AccessOp::Write, 0)]),
        );
        let mut port = TestPort::new();
        let mut cycles = 0;
        while !core.finished() && cycles < 1000 {
            core.step(&mut port);
            cycles += 1;
        }
        assert!(core.finished());
        assert_eq!(core.retired(), 100);
        assert!(cycles <= 30, "took {cycles} cycles");
    }

    #[test]
    fn read_blocks_retirement_until_completed() {
        let mut core = TraceCore::new(CoreConfig::default(), trace(vec![rec(0, AccessOp::Read, 64)]));
        let mut port = TestPort::new();
        for _ in 0..10 {
            core.step(&mut port);
        }
        assert!(!core.finished());
        assert_eq!(core.retired(), 0);
        assert!(core.stats().read_stall_cycles.get() > 0);
        let id = port.reads[0].0;
        core.complete_read(id);
        core.step(&mut port);
        assert!(core.finished());
        assert_eq!(core.retired(), 1);
    }

    #[test]
    fn reads_issue_at_fetch_for_mlp() {
        // Two back-to-back reads must both be outstanding before either
        // completes (memory-level parallelism through the ROB window).
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![rec(0, AccessOp::Read, 64), rec(0, AccessOp::Read, 128)]),
        );
        let mut port = TestPort::new();
        core.step(&mut port);
        assert_eq!(port.reads.len(), 2);
        assert_eq!(core.outstanding_reads().count(), 2);
    }

    #[test]
    fn writes_post_at_retirement() {
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![rec(0, AccessOp::Write, 192)]),
        );
        let mut port = TestPort::new();
        core.step(&mut port); // fetch
        assert!(port.writes.is_empty());
        core.step(&mut port); // retire
        assert_eq!(port.writes, vec![192]);
        assert!(core.finished());
    }

    #[test]
    fn write_backpressure_stalls_retirement() {
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![rec(0, AccessOp::Write, 0), rec(3, AccessOp::Write, 64)]),
        );
        let mut port = TestPort::new();
        port.accept_writes = false;
        for _ in 0..5 {
            core.step(&mut port);
        }
        assert_eq!(core.retired(), 0);
        assert!(core.stats().write_stall_cycles.get() > 0);
        port.accept_writes = true;
        for _ in 0..5 {
            core.step(&mut port);
        }
        assert!(core.finished());
        assert_eq!(port.writes.len(), 2);
    }

    #[test]
    fn read_backpressure_stalls_fetch() {
        let mut core = TraceCore::new(CoreConfig::default(), trace(vec![rec(0, AccessOp::Read, 0)]));
        let mut port = TestPort::new();
        port.accept_reads = false;
        for _ in 0..3 {
            core.step(&mut port);
        }
        assert!(port.reads.is_empty());
        assert!(core.stats().fetch_stall_cycles.get() > 0);
        port.accept_reads = true;
        core.step(&mut port);
        assert_eq!(port.reads.len(), 1);
    }

    #[test]
    fn rob_capacity_limits_window() {
        // 200 reads, ROB of 8: never more than 8 outstanding.
        let recs: Vec<_> = (0..200).map(|i| rec(0, AccessOp::Read, 64 * i)).collect();
        let cfg = CoreConfig {
            rob_size: 8,
            ..CoreConfig::default()
        };
        let mut core = TraceCore::new(cfg, trace(recs));
        let mut port = TestPort::new();
        for _ in 0..20 {
            core.step(&mut port);
            assert!(core.outstanding_reads().count() <= 8);
        }
        assert!(port.reads.len() <= 8);
    }

    #[test]
    fn unknown_completion_is_ignored() {
        let mut core = TraceCore::new(CoreConfig::default(), trace(vec![rec(0, AccessOp::Read, 0)]));
        let mut port = TestPort::new();
        core.step(&mut port);
        core.complete_read(RequestId(999));
        core.step(&mut port);
        assert_eq!(core.retired(), 0, "bogus completion must not unblock");
    }

    #[test]
    fn ipc_accounting() {
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![rec(39, AccessOp::Write, 0)]),
        );
        let mut port = TestPort::new();
        while !core.finished() {
            core.step(&mut port);
        }
        let ipc = core.stats().ipc();
        assert!(ipc > 2.0, "gap-dominated code should run near width, got {ipc}");
    }

    #[test]
    fn mlp_counts_outstanding_reads() {
        // Two reads outstanding for ~10 cycles → mean MLP near 2.
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![rec(0, AccessOp::Read, 64), rec(0, AccessOp::Read, 128)]),
        );
        let mut port = TestPort::new();
        for _ in 0..10 {
            core.step(&mut port);
        }
        let mlp = core.stats().mean_mlp();
        assert!(mlp > 1.5, "mlp {mlp}");
        for (id, _) in port.reads.clone() {
            core.complete_read(id);
        }
        core.step(&mut port);
        assert!(core.finished());
    }

    #[test]
    fn debug_is_nonempty() {
        let core = TraceCore::new(CoreConfig::default(), trace(vec![]));
        assert!(format!("{core:?}").contains("TraceCore"));
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    fn recount(core: &TraceCore) -> u64 {
        core.outstanding_reads().count() as u64
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The outstanding-read counter equals a ROB recount after every
        /// step and across a checkpoint round trip, and each step's MLP
        /// sample is that recount, whatever the port refuses and however
        /// completions arrive: in random order, repeated, or for ids the
        /// core never issued.
        #[test]
        fn outstanding_counter_matches_rob_recount(
            recs in prop::collection::vec((0u64..6, any::<bool>(), 0u64..64), 1..120),
            seed in any::<u64>(),
            rob_size in 1usize..16,
        ) {
            let recs: Vec<TraceRecord> = recs
                .into_iter()
                .map(|(gap, w, line)| {
                    rec(gap, if w { AccessOp::Write } else { AccessOp::Read }, line * 64)
                })
                .collect();
            let instructions: u64 = recs.iter().map(|r| r.instructions()).sum();
            let cfg = CoreConfig { rob_size, ..CoreConfig::default() };
            let mut core = TraceCore::new(cfg, trace(recs.clone()));
            let mut port = TestPort::new();
            let mut rng = seed | 1;
            let mut cycles = 0u64;
            while !core.finished() {
                prop_assert!(cycles < 50_000, "liveness");
                cycles += 1;
                port.accept_reads = !xorshift(&mut rng).is_multiple_of(4);
                port.accept_writes = !xorshift(&mut rng).is_multiple_of(4);
                for _ in 0..xorshift(&mut rng) % 3 {
                    let pending: Vec<RequestId> = core.outstanding_reads().collect();
                    let id = match xorshift(&mut rng) % 4 {
                        0 => RequestId(1_000_000 + xorshift(&mut rng) % 8),
                        1 if !port.reads.is_empty() => {
                            port.reads[(xorshift(&mut rng) % port.reads.len() as u64) as usize].0
                        }
                        _ if !pending.is_empty() => {
                            pending[(xorshift(&mut rng) % pending.len() as u64) as usize]
                        }
                        _ => continue,
                    };
                    core.complete_read(id);
                    prop_assert_eq!(core.outstanding, recount(&core));
                }
                let expected = recount(&core);
                let sum_before = core.stats().outstanding_read_sum.get();
                core.step(&mut port);
                prop_assert_eq!(core.stats().outstanding_read_sum.get() - sum_before, expected);
                prop_assert_eq!(core.outstanding, recount(&core));
                if xorshift(&mut rng).is_multiple_of(32) {
                    let mut w = SnapshotWriter::new();
                    core.save_state(&mut w);
                    let bytes = w.into_bytes();
                    let mut restored = TraceCore::new(cfg, trace(vec![]));
                    restored
                        .load_state(&mut SnapshotReader::new(&bytes), trace(recs.clone()))
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    prop_assert_eq!(restored.outstanding, recount(&restored));
                    prop_assert_eq!(restored.outstanding, core.outstanding);
                    core = restored;
                }
            }
            prop_assert_eq!(core.retired(), instructions);
            prop_assert_eq!(core.outstanding, 0);
        }
    }
}
