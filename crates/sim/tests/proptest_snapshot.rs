//! Property tests for snapshot/checkpoint parsing: arbitrary (hostile)
//! bytes must come back as typed [`SnapshotError`]s, never a panic; a
//! written checkpoint round-trips exactly; any single corrupted byte or
//! truncation of a valid file is detected; and every generic [`Codec`]
//! round-trips, with map and set bytes independent of insertion order.

use doram_sim::snapshot::{
    read_checkpoint, write_checkpoint, CheckpointData, Codec, SnapshotError, SnapshotErrorKind,
    SnapshotReader, SnapshotWriter,
};
use doram_sim::SimError;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch path per case (proptest shrinks re-enter the closure,
/// so a fixed name would race under `--test-threads` > 1).
fn scratch_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "doram-proptest-ckpt-{}-{n}.dorc",
        std::process::id()
    ))
}

/// The encoding of `v`.
fn encode<T: Codec>(v: &T) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put(v);
    w.into_bytes()
}

/// Decodes `bytes` as one `T`, requiring every byte to be consumed.
fn decode<T: Codec>(bytes: &[u8]) -> Result<T, SnapshotError> {
    let mut r = SnapshotReader::new(bytes);
    let v = r.get()?;
    r.finish()?;
    Ok(v)
}

/// Whether `v` survives an encode/decode round trip unchanged.
fn round_trips<T: Codec + PartialEq>(v: &T) -> bool {
    decode::<T>(&encode(v)).is_ok_and(|back| back == *v)
}

/// Runs `f` against a file holding `bytes`, cleaning up afterwards.
fn with_file<T>(bytes: &[u8], f: impl FnOnce(&std::path::Path) -> T) -> T {
    let path = scratch_path();
    std::fs::write(&path, bytes).expect("scratch write");
    let out = f(&path);
    let _ = std::fs::remove_file(&path);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic the checkpoint reader — every outcome
    /// is a typed error (random bytes cannot satisfy the checksum).
    #[test]
    fn arbitrary_bytes_never_panic_read_checkpoint(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let res: Result<CheckpointData, SnapshotError> =
            with_file(&bytes, read_checkpoint);
        prop_assert!(res.is_err(), "random bytes must not parse");
    }

    /// Arbitrary bytes never panic the low-level reader, whatever order
    /// its accessors are called in.
    #[test]
    fn arbitrary_bytes_never_panic_snapshot_reader(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        ops in prop::collection::vec(0u8..16, 0..32),
    ) {
        let mut r = SnapshotReader::new(&bytes);
        for op in ops {
            // Ignore results — the property is "no panic, ever".
            match op {
                0 => { let _ = r.get_u8(); }
                1 => { let _ = r.get_u32(); }
                2 => { let _ = r.get_u64(); }
                3 => { let _ = r.get_bool(); }
                4 => { let _ = r.get_bytes(); }
                5 => { let _ = r.get_str(); }
                6 => { let _ = r.get::<Vec<u64>>(); }
                7 => { let _ = r.get::<VecDeque<(u8, bool)>>(); }
                8 => { let _ = r.get::<Option<[u32; 3]>>(); }
                9 => { let _ = r.get::<HashMap<u64, Option<u8>>>(); }
                10 => { let _ = r.get::<BTreeSet<u32>>(); }
                11 => { let _ = r.get::<Vec<String>>(); }
                12 => { let _ = r.get::<SimError>(); }
                13 => { let _ = r.get::<BTreeMap<u8, Vec<u64>>>(); }
                14 => { let _ = r.get::<HashSet<u64>>(); }
                _ => { let _ = r.get::<(u64, bool, u8)>(); }
            }
        }
        prop_assert!(r.remaining() <= bytes.len());
    }

    /// A length prefix near `u64::MAX` in front of arbitrary bytes is a
    /// typed truncation error for every collection codec — decided before
    /// any allocation, so the test cannot run out of memory.
    #[test]
    fn huge_length_prefix_is_a_typed_error(
        below_max in 0u64..1024,
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = (u64::MAX - below_max).to_le_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        let kinds = [
            decode::<Vec<u8>>(&bytes).map(drop),
            decode::<VecDeque<u64>>(&bytes).map(drop),
            decode::<HashMap<u64, u64>>(&bytes).map(drop),
            decode::<HashSet<u32>>(&bytes).map(drop),
            decode::<BTreeMap<u64, bool>>(&bytes).map(drop),
            decode::<BTreeSet<u8>>(&bytes).map(drop),
            decode::<String>(&bytes).map(drop),
        ]
        .map(|res| res.map_err(|e| e.kind()));
        for kind in kinds {
            prop_assert_eq!(kind, Err(SnapshotErrorKind::Truncated));
        }
    }

    /// Every generic codec round-trips exactly: sequences, options,
    /// tuples, arrays, and their nestings.
    #[test]
    fn generic_codecs_round_trip(
        items in prop::collection::vec(any::<u64>(), 0..64),
        flags in prop::collection::vec(any::<bool>(), 0..64),
        maybe in prop::option::of(any::<u32>()),
        pair in (any::<u8>(), any::<u64>()),
    ) {
        prop_assert!(round_trips(&items));
        prop_assert!(round_trips(&items.iter().copied().collect::<VecDeque<u64>>()));
        prop_assert!(round_trips(&maybe));
        prop_assert!(round_trips(&pair));
        prop_assert!(round_trips(&(pair.1, maybe, pair.0)));
        let zipped: Vec<(u64, bool)> = items.iter().copied().zip(flags.iter().copied()).collect();
        prop_assert!(round_trips(&zipped));
        let nested: Vec<Option<(u64, bool)>> =
            zipped.iter().map(|&(v, f)| f.then_some((v, f))).collect();
        prop_assert!(round_trips(&nested));
        let mut array = [0u64; 4];
        for (slot, v) in array.iter_mut().zip(&items) {
            *slot = *v;
        }
        prop_assert!(round_trips(&array));
        // Sequences carry a u64 count; arrays and tuples carry none.
        prop_assert_eq!(encode(&items).len(), 8 + 8 * items.len());
        prop_assert_eq!(encode(&array).len(), 32);
        prop_assert_eq!(encode(&pair).len(), 9);
        prop_assert_eq!(encode(&maybe).len(), if maybe.is_some() { 5 } else { 1 });
    }

    /// Maps and sets encode in ascending key order, so their bytes do not
    /// depend on insertion order (or, for hashed ones, on the hasher's
    /// seed), and all four kinds agree with each other.
    #[test]
    fn map_and_set_bytes_ignore_insertion_order(
        keys in prop::collection::vec(any::<u64>(), 0..64),
        salt in any::<u64>(),
    ) {
        let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ salt)).collect();
        let forward: HashMap<u64, u64> = entries.iter().copied().collect();
        let backward: HashMap<u64, u64> = entries.iter().rev().copied().collect();
        let ordered: BTreeMap<u64, u64> = entries.iter().rev().copied().collect();
        prop_assert_eq!(encode(&forward), encode(&backward));
        prop_assert_eq!(encode(&forward), encode(&ordered));
        prop_assert!(round_trips(&forward));
        prop_assert!(round_trips(&ordered));

        let set_fwd: HashSet<u64> = keys.iter().copied().collect();
        let set_back: HashSet<u64> = keys.iter().rev().copied().collect();
        let set_ord: BTreeSet<u64> = keys.iter().rev().copied().collect();
        prop_assert_eq!(encode(&set_fwd), encode(&set_back));
        prop_assert_eq!(encode(&set_fwd), encode(&set_ord));
        prop_assert!(round_trips(&set_fwd));
        prop_assert!(round_trips(&set_ord));
        // A set is the map of its members to `()`.
        let unit_map: HashMap<u64, ()> = keys.iter().map(|&k| (k, ())).collect();
        prop_assert_eq!(encode(&unit_map), encode(&set_ord));
    }

    /// A written checkpoint reads back field-for-field identical.
    #[test]
    fn checkpoint_round_trips(
        config_hash in any::<u64>(),
        epoch in any::<u64>(),
        cycle in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let data = CheckpointData::unkeyed(config_hash, epoch, cycle, payload);
        let back = with_file(&[], |path| {
            write_checkpoint(path, &data).expect("write");
            read_checkpoint(path)
        });
        prop_assert_eq!(back.expect("round trip"), data);
    }

    /// Flipping any single byte of a valid checkpoint is detected (the
    /// trailing FNV checksum covers the whole file, itself included).
    #[test]
    fn any_corrupted_byte_is_detected(
        cycle in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..128),
        victim in any::<u64>(),
        flip in 0u8..255,
    ) {
        let flip = flip + 1; // 1..=255: always changes the victim byte
        let data = CheckpointData::unkeyed(7, 1, cycle, payload);
        let res = with_file(&[], |path| {
            write_checkpoint(path, &data).expect("write");
            let mut bytes = std::fs::read(path).expect("read back");
            let i = (victim % bytes.len() as u64) as usize;
            bytes[i] ^= flip;
            std::fs::write(path, &bytes).expect("rewrite");
            read_checkpoint(path)
        });
        prop_assert!(res.is_err(), "corruption at one byte must not parse");
    }

    /// Every strict prefix of a valid checkpoint is rejected with a typed
    /// error — truncated files never produce a (partial) parse.
    #[test]
    fn any_truncation_is_detected(
        payload in prop::collection::vec(any::<u8>(), 0..128),
        keep in any::<u64>(),
    ) {
        let data = CheckpointData::unkeyed(7, 1, 42, payload);
        let res = with_file(&[], |path| {
            write_checkpoint(path, &data).expect("write");
            let bytes = std::fs::read(path).expect("read back");
            let n = (keep % bytes.len() as u64) as usize; // always a strict prefix
            std::fs::write(path, &bytes[..n]).expect("rewrite");
            read_checkpoint(path)
        });
        let err = res.expect_err("strict prefix must not parse");
        prop_assert!(
            matches!(
                err.kind(),
                SnapshotErrorKind::Truncated | SnapshotErrorKind::BadChecksum
            ),
            "unexpected kind {:?}",
            err.kind()
        );
    }
}
