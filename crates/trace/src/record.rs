//! Trace records, in USIMM's spirit: each record is one main-memory access
//! preceded by a number of non-memory instructions.

use doram_sim::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};

/// Direction of a traced memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOp {
    /// A demand load that missed the LLC; the core waits on it at retire.
    Read,
    /// A store / writeback; posted, never blocks retirement by itself.
    Write,
}

/// One record of a memory trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Non-memory instructions executed before this access.
    pub gap: u64,
    /// Read or write.
    pub op: AccessOp,
    /// Byte address, 64 B-line aligned.
    pub addr: u64,
}

impl TraceRecord {
    /// Instructions this record accounts for (gap + the access itself).
    pub fn instructions(&self) -> u64 {
        self.gap + 1
    }
}

impl Codec for AccessOp {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put_u8(match self {
            AccessOp::Read => 0,
            AccessOp::Write => 1,
        });
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(AccessOp::Read),
            1 => Ok(AccessOp::Write),
            tag => Err(SnapshotError::new(format!("bad access op tag {tag}"))),
        }
    }
}

doram_sim::impl_codec!(TraceRecord { gap, op, addr });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_accounting() {
        let r = TraceRecord {
            gap: 99,
            op: AccessOp::Read,
            addr: 0,
        };
        assert_eq!(r.instructions(), 100);
    }
}
