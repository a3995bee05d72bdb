//! Checkpoint/restore substrate: the [`Snapshot`] trait, a compact binary
//! encoding, and the crash-consistent checkpoint file format.
//!
//! Every stateful component of the simulation implements [`Snapshot`]:
//! `save_state` appends the component's *dynamic* state (queues, RNG
//! streams, timing horizons, accumulated metrics) to a [`SnapshotWriter`];
//! `load_state` overwrites that state in-place from a [`SnapshotReader`].
//! Configuration-derived structure (capacities, timings, wiring) is *not*
//! serialized — a restore target is always freshly built from the same
//! configuration first, so only the dynamic fields need to travel. The
//! fields themselves are plain values encoded through [`Codec`], which
//! fixes one encoding per type (length-prefixed sequences, key-ordered
//! maps, tagged enums), so a component's snapshot is its field list.
//!
//! The file format is versioned and checksummed (FNV-1a 64): a truncated,
//! corrupted, or incompatible checkpoint is rejected with a typed
//! [`SnapshotError`] instead of yielding a silently wrong resume. All
//! files are written crash-consistently (temp file + fsync + atomic
//! rename) via [`write_atomic`], which report writers share.
//!
//! # Examples
//!
//! ```
//! use doram_sim::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
//! use doram_sim::rng::Xoshiro256;
//!
//! let mut rng = Xoshiro256::seed_from(7);
//! rng.next_u64();
//! let mut w = SnapshotWriter::new();
//! rng.save_state(&mut w);
//! let bytes = w.into_bytes();
//!
//! let mut restored = Xoshiro256::seed_from(0);
//! restored.load_state(&mut SnapshotReader::new(&bytes)).unwrap();
//! assert_eq!(restored.next_u64(), rng.next_u64());
//! ```

use crate::error::{ConfigError, SimError};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::io::Write;
use std::path::Path;

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"DORAMCKP";

/// Checkpoint format version. Bumped on any incompatible layout change;
/// older files are rejected, never misread.
///
/// Version 4 added the run-epoch counter and the 16-byte authentication
/// field to the header, and extended several component payloads with
/// adversarial-fault state.
///
/// Version 5 (this build) extended the payloads with the interference
/// observatory: per-class blame tags and enqueue-time busy snapshots on
/// queued DRAM/link entries, and the recorder's blame matrix, latency
/// histograms, and in-flight access ledger — so a resumed traced run
/// continues its telemetry exactly. Older files are rejected with
/// [`SnapshotErrorKind::BadVersion`] — re-run from the start rather than
/// resuming across the format change.
pub const CHECKPOINT_VERSION: u32 = 5;

/// Width of the checkpoint authentication tag (a CMAC computed by the
/// layer that owns the key; all-zero when the run is unkeyed).
pub const CHECKPOINT_AUTH_BYTES: usize = 16;

/// What went wrong with a snapshot, machine-readably.
///
/// `--resume` surfaces these as distinct failures so an operator can tell
/// a half-written file ([`Truncated`](Self::Truncated)) from tampering
/// ([`BadChecksum`](Self::BadChecksum)/[`BadMac`](Self::BadMac)) from a
/// rollback attack ([`RolledBack`](Self::RolledBack)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotErrorKind {
    /// The data ended before the decoder was done.
    Truncated,
    /// The bytes decode but violate the layout (bad tag, trailing data…).
    Malformed,
    /// The file does not open with the checkpoint magic.
    BadMagic,
    /// The file's format version is not the one this build reads.
    BadVersion,
    /// The trailing FNV checksum does not match (accidental corruption).
    BadChecksum,
    /// The keyed authentication tag does not match (active tampering).
    BadMac,
    /// The checkpoint's run epoch is older than the newest one recorded —
    /// an attacker (or operator error) is re-supplying a stale checkpoint.
    RolledBack,
    /// The file could not be read at all.
    Io,
}

impl SnapshotErrorKind {
    /// Stable lowercase label used in error messages and logs.
    pub fn label(self) -> &'static str {
        match self {
            SnapshotErrorKind::Truncated => "truncated",
            SnapshotErrorKind::Malformed => "malformed",
            SnapshotErrorKind::BadMagic => "bad_magic",
            SnapshotErrorKind::BadVersion => "bad_version",
            SnapshotErrorKind::BadChecksum => "bad_checksum",
            SnapshotErrorKind::BadMac => "bad_mac",
            SnapshotErrorKind::RolledBack => "rolled_back",
            SnapshotErrorKind::Io => "io",
        }
    }
}

/// A malformed, truncated, tampered, or incompatible snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    kind: SnapshotErrorKind,
    message: String,
}

impl SnapshotError {
    /// Creates a generic layout error ([`SnapshotErrorKind::Malformed`]).
    pub fn new(message: impl Into<String>) -> SnapshotError {
        SnapshotError::of_kind(SnapshotErrorKind::Malformed, message)
    }

    /// Creates an error of a specific kind.
    pub fn of_kind(kind: SnapshotErrorKind, message: impl Into<String>) -> SnapshotError {
        SnapshotError {
            kind,
            message: message.into(),
        }
    }

    /// The machine-readable failure class.
    pub fn kind(&self) -> SnapshotErrorKind {
        self.kind
    }

    /// The description without the prefix `Display` adds.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid snapshot: {}", self.message)
    }
}

impl std::error::Error for SnapshotError {}

/// A component whose dynamic state can be captured and restored in-place.
///
/// Implementations must destructure the whole struct (no `..` rest
/// pattern) so that adding a field without updating the snapshot code is
/// a compile error rather than a silent resume divergence.
pub trait Snapshot {
    /// Appends this component's dynamic state to `w`.
    fn save_state(&self, w: &mut SnapshotWriter);

    /// Overwrites this component's dynamic state from `r`.
    ///
    /// `self` must have been freshly constructed from the same
    /// configuration the snapshot was taken under.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or layout mismatch.
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

/// Append-only binary encoder for snapshots (little-endian, no padding).
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter { buf: Vec::new() }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` (encoded as `u64`).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a `bool` (one byte).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends an `f64` via its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends any [`Codec`] value.
    pub fn put<T: Codec>(&mut self, v: &T) {
        v.put(self);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over snapshot bytes; every read is bounds-checked.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> SnapshotReader<'a> {
        SnapshotReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        // Checked arithmetic: a hostile length prefix near usize::MAX must
        // come back as a typed error, not an overflow panic.
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(SnapshotError::of_kind(
                SnapshotErrorKind::Truncated,
                format!(
                    "truncated: needed {n} bytes at offset {}, only {} remain",
                    self.pos,
                    self.buf.len() - self.pos
                ),
            ));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        let b: [u8; 4] = b
            .try_into()
            .map_err(|_| SnapshotError::of_kind(SnapshotErrorKind::Truncated, "short u32"))?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        let b: [u8; 8] = b
            .try_into()
            .map_err(|_| SnapshotError::of_kind(SnapshotErrorKind::Truncated, "short u64"))?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or overflow.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::new(format!("usize overflow: {v}")))
    }

    /// Reads a `bool`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or a non-0/1 byte.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::new(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.get_usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.get_bytes()?)
            .map_err(|_| SnapshotError::new("invalid UTF-8 in snapshot string"))
    }

    /// Reads any [`Codec`] value.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or a malformed encoding.
    pub fn get<T: Codec>(&mut self) -> Result<T, SnapshotError> {
        T::get(self)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the reader consumed everything.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if trailing bytes remain.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::new(format!(
                "{} trailing bytes after snapshot payload",
                self.remaining()
            )))
        }
    }
}

/// FNV-1a 64-bit hash, used as the checkpoint checksum and for hashing
/// the configuration a snapshot was taken under.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A plain value with exactly one checkpoint encoding.
///
/// Components that are rebuilt from configuration and restored in place
/// implement [`Snapshot`]; everything they carry that is a plain value —
/// counters, cycles, ids, queued messages, maps — implements `Codec`, so a
/// component's `save_state`/`load_state` is one [`put`](Codec::put) and
/// one [`get`](Codec::get) per field, and every `Codec` value is also a
/// [`Snapshot`] that is restored by replacement.
///
/// The encodings, shared by every component:
///
/// - integers little-endian at their width, `usize` as `u64`, `bool` as
///   one byte (0/1), `f64` by its bit pattern, strings as a length-prefixed
///   UTF-8 byte string; id and cycle newtypes as their inner integer;
/// - `[T; N]` and tuples as their items in order, with no length;
/// - `Option<T>` as a `bool` presence byte followed by the value;
/// - `Vec`/`VecDeque` as a `usize` length followed by the items;
/// - maps and sets as a `usize` length followed by the entries (key, then
///   value) in ascending key order, so the bytes never depend on hash or
///   insertion order;
/// - enums as a `u8` variant tag followed by the variant's fields; an
///   unknown tag decodes to a [`SnapshotErrorKind::Malformed`] error.
pub trait Codec: Sized {
    /// Appends the encoding of `self`.
    fn put(&self, w: &mut SnapshotWriter);

    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on truncation or a malformed encoding.
    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

/// Implements [`Codec`] for a struct from its field list: `put` writes the
/// fields in the listed order and `get` reads them back in the same order,
/// so the two cannot drift apart. The list must name every field (the
/// generated code destructures the struct without `..`), so a new field
/// cannot be left out of the encoding silently. Type parameters, if any,
/// must themselves be [`Codec`].
///
/// ```
/// use doram_sim::snapshot::{SnapshotReader, SnapshotWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Tally {
///     hits: u64,
///     misses: u64,
/// }
/// doram_sim::impl_codec!(Tally { hits, misses });
///
/// let mut w = SnapshotWriter::new();
/// w.put(&Tally { hits: 3, misses: 1 });
/// let bytes = w.into_bytes();
/// let back: Tally = SnapshotReader::new(&bytes).get().unwrap();
/// assert_eq!(back, Tally { hits: 3, misses: 1 });
/// ```
#[macro_export]
macro_rules! impl_codec {
    ($name:ident $(<$($param:ident),+>)? { $($field:ident),+ $(,)? }) => {
        impl$(<$($param: $crate::snapshot::Codec),+>)? $crate::snapshot::Codec
            for $name$(<$($param),+>)?
        {
            fn put(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                let $name { $($field),+ } = self;
                $(w.put($field);)+
            }

            fn get(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> ::std::result::Result<Self, $crate::snapshot::SnapshotError> {
                ::std::result::Result::Ok($name { $($field: r.get()?),+ })
            }
        }
    };
}

impl<T: Codec> Snapshot for T {
    fn save_state(&self, w: &mut SnapshotWriter) {
        self.put(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        *self = T::get(r)?;
        Ok(())
    }
}

/// Saves a sequence of in-place components, encoded like a `Vec`: the
/// count, then each element. Pair with [`load_each`].
pub fn save_each<T: Snapshot>(items: &[T], w: &mut SnapshotWriter) {
    w.put_usize(items.len());
    for item in items {
        item.save_state(w);
    }
}

/// Restores a sequence written by [`save_each`] in place. The count is
/// configuration, so a checkpoint whose count differs from the target's
/// is rejected rather than resized to fit.
pub fn load_each<T: Snapshot>(
    items: &mut [T],
    r: &mut SnapshotReader<'_>,
) -> Result<(), SnapshotError> {
    let n = r.get_usize()?;
    if n != items.len() {
        let what = std::any::type_name::<T>().rsplit("::").next().unwrap_or("");
        return Err(SnapshotError::new(format!(
            "{what} count mismatch: checkpoint has {n}, configuration builds {}",
            items.len()
        )));
    }
    items.iter_mut().try_for_each(|item| item.load_state(r))
}

macro_rules! codec_via {
    ($($t:ty => $put:ident, $get:ident;)*) => {$(
        impl Codec for $t {
            fn put(&self, w: &mut SnapshotWriter) {
                w.$put(*self);
            }

            fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                r.$get()
            }
        }
    )*};
}

codec_via! {
    u8 => put_u8, get_u8;
    u32 => put_u32, get_u32;
    u64 => put_u64, get_u64;
    usize => put_usize, get_usize;
    bool => put_bool, get_bool;
    f64 => put_f64, get_f64;
}

/// Newtypes over an integer encode as that integer.
macro_rules! codec_newtype {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn put(&self, w: &mut SnapshotWriter) {
                self.0.put(w);
            }

            fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                Codec::get(r).map(Self)
            }
        }
    )*};
}

codec_newtype!(
    crate::MemCycle,
    crate::CpuCycle,
    crate::RequestId,
    crate::CoreId,
    crate::AppId,
    crate::ChannelId,
    crate::SubChannelId
);

impl Codec for () {
    fn put(&self, _: &mut SnapshotWriter) {}

    fn get(_: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(())
    }
}

impl Codec for String {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put_str(self);
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_str()
    }
}

macro_rules! codec_tuple {
    ($($name:ident),+) => {
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            #[allow(non_snake_case)]
            fn put(&self, w: &mut SnapshotWriter) {
                let ($($name,)+) = self;
                $($name.put(w);)+
            }

            fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                Ok(($($name::get(r)?,)+))
            }
        }
    };
}

codec_tuple!(A, B);
codec_tuple!(A, B, C);

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn put(&self, w: &mut SnapshotWriter) {
        self.iter().for_each(|v| v.put(w));
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let items = (0..N).map(|_| T::get(r)).collect::<Result<Vec<T>, _>>()?;
        Ok(items
            .try_into()
            .unwrap_or_else(|_| unreachable!("exactly N items")))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get_bool()?.then(|| T::get(r)).transpose()
    }
}

/// Writes a length-prefixed sequence.
fn put_seq<'a, T: Codec + 'a>(w: &mut SnapshotWriter, items: impl ExactSizeIterator<Item = &'a T>) {
    w.put_usize(items.len());
    items.for_each(|v| v.put(w));
}

/// Reads a length-prefixed sequence into any collection.
///
/// Every item of a non-zero-sized type encodes to at least one byte, so a
/// count larger than the bytes left is rejected as truncated up front: a
/// hostile length prefix can neither allocate nor loop.
fn get_seq<T: Codec, C: FromIterator<T>>(r: &mut SnapshotReader<'_>) -> Result<C, SnapshotError> {
    let n = r.get_usize()?;
    if std::mem::size_of::<T>() > 0 && n > r.remaining() {
        return Err(SnapshotError::of_kind(
            SnapshotErrorKind::Truncated,
            format!("{n} items announced, only {} bytes remain", r.remaining()),
        ));
    }
    (0..n).map(|_| T::get(r)).collect()
}

/// Writes map entries (or set members, with `()` values) as a
/// length-prefixed sequence in ascending key order.
fn put_entries<'a, K: Codec + Ord + 'a, V: Codec + 'a>(
    w: &mut SnapshotWriter,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) {
    let mut entries: Vec<(&K, &V)> = entries.collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    w.put_usize(entries.len());
    for (k, v) in entries {
        k.put(w);
        v.put(w);
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        put_seq(w, self.iter());
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        get_seq(r)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn put(&self, w: &mut SnapshotWriter) {
        put_seq(w, self.iter());
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        get_seq(r)
    }
}

impl<K: Codec + Ord + Hash, V: Codec, S: BuildHasher + Default> Codec for HashMap<K, V, S> {
    fn put(&self, w: &mut SnapshotWriter) {
        put_entries(w, self.iter());
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        get_seq(r)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn put(&self, w: &mut SnapshotWriter) {
        put_entries(w, self.iter());
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        get_seq(r)
    }
}

impl<K: Codec + Ord + Hash, S: BuildHasher + Default> Codec for HashSet<K, S> {
    fn put(&self, w: &mut SnapshotWriter) {
        put_entries(w, self.iter().map(|k| (k, &())));
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        get_seq(r)
    }
}

impl<K: Codec + Ord> Codec for BTreeSet<K> {
    fn put(&self, w: &mut SnapshotWriter) {
        put_entries(w, self.iter().map(|k| (k, &())));
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        get_seq(r)
    }
}

impl Codec for SimError {
    fn put(&self, w: &mut SnapshotWriter) {
        match self {
            SimError::Config(c) => {
                w.put_u8(0);
                w.put_str(c.message());
            }
            SimError::Fault { site, detail } => {
                w.put_u8(1);
                w.put_str(site);
                w.put_str(detail);
            }
            SimError::IntegrityViolation { addr, detail } => {
                w.put_u8(2);
                w.put_u64(*addr);
                w.put_str(detail);
            }
            SimError::LinkTimeout { attempts, detail } => {
                w.put_u8(3);
                w.put_u32(*attempts);
                w.put_str(detail);
            }
            SimError::Protocol { detail } => {
                w.put_u8(4);
                w.put_str(detail);
            }
            SimError::StashOverflow {
                occupancy,
                capacity,
            } => {
                w.put_u8(5);
                w.put_usize(*occupancy);
                w.put_usize(*capacity);
            }
        }
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(SimError::Config(ConfigError::new(r.get_str()?))),
            1 => Ok(SimError::Fault {
                site: r.get()?,
                detail: r.get()?,
            }),
            2 => Ok(SimError::IntegrityViolation {
                addr: r.get()?,
                detail: r.get()?,
            }),
            3 => Ok(SimError::LinkTimeout {
                attempts: r.get()?,
                detail: r.get()?,
            }),
            4 => Ok(SimError::Protocol { detail: r.get()? }),
            5 => Ok(SimError::StashOverflow {
                occupancy: r.get()?,
                capacity: r.get()?,
            }),
            tag => Err(SnapshotError::new(format!("unknown SimError tag {tag}"))),
        }
    }
}

/// Writes `bytes` to `path` crash-consistently: the data lands in a temp
/// file in the same directory, is fsynced, and is atomically renamed over
/// `path`. A crash at any point leaves either the old file or the new one
/// — never a truncated hybrid.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    write_atomic_inner(path, bytes, false)
}

/// Test hook behind [`write_atomic`]: with `abort_before_rename` the
/// function stops after writing the temp file, simulating a crash in the
/// window where a naive writer would have left `path` truncated.
#[doc(hidden)]
pub fn write_atomic_inner(
    path: &Path,
    bytes: &[u8],
    abort_before_rename: bool,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if abort_before_rename {
        return Ok(());
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable (best-effort: some filesystems
    // reject opening a directory for sync).
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

/// The parsed header + payload of a checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointData {
    /// FNV-1a hash of the configuration the snapshot was taken under.
    pub config_hash: u64,
    /// Monotonic run-epoch counter: bumped every time a checkpointing run
    /// starts, so a resume can detect being handed a checkpoint from an
    /// *earlier* run (a rollback attack) even when the file itself is
    /// authentic.
    pub epoch: u64,
    /// Memory cycle the simulation had completed up to.
    pub cycle: u64,
    /// Keyed authentication tag over [`checkpoint_auth_message`]. The key
    /// lives above this crate (the simulation layer owns `--ckpt-key`);
    /// all-zero marks an unkeyed checkpoint protected only by the FNV
    /// checksum.
    pub auth: [u8; CHECKPOINT_AUTH_BYTES],
    /// Component state, to feed through [`Snapshot::load_state`].
    pub payload: Vec<u8>,
}

impl CheckpointData {
    /// An unkeyed checkpoint (auth field zeroed).
    pub fn unkeyed(config_hash: u64, epoch: u64, cycle: u64, payload: Vec<u8>) -> CheckpointData {
        CheckpointData {
            config_hash,
            epoch,
            cycle,
            auth: [0; CHECKPOINT_AUTH_BYTES],
            payload,
        }
    }

    /// Whether the auth field carries a (nonzero) tag.
    pub fn is_authenticated(&self) -> bool {
        self.auth != [0; CHECKPOINT_AUTH_BYTES]
    }
}

/// The exact byte string a keyed checkpoint MAC must cover: every header
/// field *except* the tag itself, then the payload. Both the writer (to
/// tag) and the reader (to verify) derive it from the same
/// [`CheckpointData`], so the tag binds the version, configuration, epoch,
/// cycle and state together — truncating, splicing, or rolling any of them
/// back breaks it.
pub fn checkpoint_auth_message(data: &CheckpointData) -> Vec<u8> {
    let mut msg = Vec::with_capacity(44 + data.payload.len());
    msg.extend_from_slice(&CHECKPOINT_MAGIC);
    msg.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    msg.extend_from_slice(&data.config_hash.to_le_bytes());
    msg.extend_from_slice(&data.epoch.to_le_bytes());
    msg.extend_from_slice(&data.cycle.to_le_bytes());
    msg.extend_from_slice(&(data.payload.len() as u64).to_le_bytes());
    msg.extend_from_slice(&data.payload);
    msg
}

/// Minimum size of a well-formed checkpoint file: header + auth + checksum.
const CHECKPOINT_MIN_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8 + CHECKPOINT_AUTH_BYTES + 8;

/// Writes a checkpoint file: magic, version, config hash, run epoch,
/// cycle, payload, the authentication tag and a trailing FNV-1a checksum
/// over everything before it — via [`write_atomic`].
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_checkpoint(path: &Path, data: &CheckpointData) -> std::io::Result<()> {
    let mut out = checkpoint_auth_message(data);
    out.extend_from_slice(&data.auth);
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    write_atomic(path, &out)
}

/// Reads and validates a checkpoint file written by [`write_checkpoint`].
///
/// Validates framing, version and the FNV checksum; verifying the keyed
/// `auth` tag (and the epoch against the recorded maximum) is the caller's
/// job, since only the simulation layer holds the key.
///
/// # Errors
///
/// Returns [`SnapshotError`] — with a discriminating
/// [`kind`](SnapshotError::kind) — on I/O failure, bad magic, unsupported
/// version, length mismatch, or checksum mismatch.
pub fn read_checkpoint(path: &Path) -> Result<CheckpointData, SnapshotError> {
    let bytes = std::fs::read(path).map_err(|e| {
        SnapshotError::of_kind(
            SnapshotErrorKind::Io,
            format!("cannot read {}: {e}", path.display()),
        )
    })?;
    if bytes.len() < CHECKPOINT_MIN_LEN {
        return Err(SnapshotError::of_kind(
            SnapshotErrorKind::Truncated,
            "file shorter than checkpoint header",
        ));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut stored = [0u8; 8];
    stored.copy_from_slice(tail);
    if fnv1a64(body) != u64::from_le_bytes(stored) {
        return Err(SnapshotError::of_kind(
            SnapshotErrorKind::BadChecksum,
            "checksum mismatch (corrupt checkpoint)",
        ));
    }
    let mut r = SnapshotReader::new(body);
    let magic = r.take(8)?;
    if magic != CHECKPOINT_MAGIC {
        return Err(SnapshotError::of_kind(
            SnapshotErrorKind::BadMagic,
            "bad magic (not a checkpoint file)",
        ));
    }
    let version = r.get_u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(SnapshotError::of_kind(
            SnapshotErrorKind::BadVersion,
            format!(
                "unsupported checkpoint version {version} (this build reads {CHECKPOINT_VERSION})"
            ),
        ));
    }
    let config_hash = r.get_u64()?;
    let epoch = r.get_u64()?;
    let cycle = r.get_u64()?;
    let payload_len = r.get_usize()?;
    let payload = r.take(payload_len)?.to_vec();
    let mut auth = [0u8; CHECKPOINT_AUTH_BYTES];
    auth.copy_from_slice(r.take(CHECKPOINT_AUTH_BYTES)?);
    r.finish()?;
    Ok(CheckpointData {
        config_hash,
        epoch,
        cycle,
        auth,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "doram-snap-{}-{name}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_usize(12);
        w.put_bool(true);
        w.put_f64(-1.5e300);
        w.put_bytes(b"abc");
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_usize().unwrap(), 12);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap(), -1.5e300);
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes[..4]);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        r.get_u64().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn bad_bool_byte_is_rejected() {
        let mut r = SnapshotReader::new(&[9]);
        assert!(r.get_bool().is_err());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn sim_error_codec_round_trips_every_variant() {
        let cases = vec![
            SimError::config("bad k"),
            SimError::fault("link", "gave up"),
            SimError::integrity(0xabc, "tag mismatch"),
            SimError::link_timeout(4, "72B frame"),
            SimError::protocol("invariant"),
            SimError::stash_overflow(130, 128),
        ];
        for e in cases {
            let mut w = SnapshotWriter::new();
            w.put(&e);
            let bytes = w.into_bytes();
            let mut r = SnapshotReader::new(&bytes);
            assert_eq!(r.get::<SimError>().unwrap(), e);
            r.finish().unwrap();
        }
        // Optional form.
        for opt in [None, Some(SimError::protocol("x"))] {
            let mut w = SnapshotWriter::new();
            w.put(&opt);
            let bytes = w.into_bytes();
            let back: Option<SimError> = SnapshotReader::new(&bytes).get().unwrap();
            assert_eq!(back, opt);
        }
        let err = SnapshotReader::new(&[6]).get::<SimError>().unwrap_err();
        assert_eq!(err.kind(), SnapshotErrorKind::Malformed);
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let path = tmp_path("ok.ckpt");
        let data = CheckpointData::unkeyed(0x1234, 7, 999, b"payload bytes".to_vec());
        write_checkpoint(&path, &data).unwrap();
        let read = read_checkpoint(&path).unwrap();
        assert_eq!(read, data);
        assert_eq!(read.config_hash, 0x1234);
        assert_eq!(read.epoch, 7);
        assert_eq!(read.cycle, 999);
        assert!(!read.is_authenticated());
        assert_eq!(read.payload, b"payload bytes");
    }

    #[test]
    fn authenticated_checkpoint_round_trips_its_tag() {
        let path = tmp_path("auth.ckpt");
        let mut data = CheckpointData::unkeyed(9, 2, 50, vec![1, 2, 3]);
        data.auth = [0xA5; CHECKPOINT_AUTH_BYTES];
        write_checkpoint(&path, &data).unwrap();
        let read = read_checkpoint(&path).unwrap();
        assert!(read.is_authenticated());
        assert_eq!(read.auth, [0xA5; CHECKPOINT_AUTH_BYTES]);
        // The auth message covers everything but the tag itself.
        assert_eq!(
            checkpoint_auth_message(&read),
            checkpoint_auth_message(&data)
        );
        let mut rolled = read.clone();
        rolled.epoch = 1;
        assert_ne!(
            checkpoint_auth_message(&rolled),
            checkpoint_auth_message(&data),
            "the tag binds the epoch"
        );
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let path = tmp_path("corrupt.ckpt");
        write_checkpoint(&path, &CheckpointData::unkeyed(1, 1, 2, b"data".to_vec())).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert_eq!(err.kind(), SnapshotErrorKind::BadChecksum);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let path = tmp_path("trunc.ckpt");
        write_checkpoint(&path, &CheckpointData::unkeyed(1, 1, 2, b"data".to_vec())).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        assert!(read_checkpoint(&path).is_err());
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let path = tmp_path("magic.ckpt");
        std::fs::write(&path, b"NOTACKPTNOTACKPTNOTACKPTNOTACKPTNOTACKPTNOTACKPTNOTACKPTNOTACKPT")
            .unwrap();
        assert!(read_checkpoint(&path).is_err());

        // Valid checksum but wrong version.
        let mut out = Vec::new();
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&99u32.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // config hash
        out.extend_from_slice(&0u64.to_le_bytes()); // epoch
        out.extend_from_slice(&0u64.to_le_bytes()); // cycle
        out.extend_from_slice(&0u64.to_le_bytes()); // payload len
        out.extend_from_slice(&[0u8; CHECKPOINT_AUTH_BYTES]);
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &out).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert_eq!(err.kind(), SnapshotErrorKind::BadVersion);
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn error_kinds_discriminate() {
        assert_eq!(SnapshotError::new("x").kind(), SnapshotErrorKind::Malformed);
        let e = SnapshotError::of_kind(SnapshotErrorKind::RolledBack, "epoch 1 < 3");
        assert_eq!(e.kind(), SnapshotErrorKind::RolledBack);
        assert_eq!(e.kind().label(), "rolled_back");
        assert_eq!(e.to_string(), "invalid snapshot: epoch 1 < 3");
        let missing = read_checkpoint(Path::new("/nonexistent/doram.ckpt")).unwrap_err();
        assert_eq!(missing.kind(), SnapshotErrorKind::Io);
    }

    #[test]
    fn hostile_length_prefix_is_an_error_not_a_panic() {
        // A length prefix of u64::MAX must not overflow the cursor math.
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let err = r.get_bytes().unwrap_err();
        assert_eq!(err.kind(), SnapshotErrorKind::Truncated);
    }

    #[test]
    fn aborted_atomic_write_leaves_no_partial_file() {
        let path = tmp_path("atomic.json");
        // A previous complete write...
        write_atomic(&path, b"{\"old\":true}").unwrap();
        // ...then a crash mid-write of the replacement: the abort hook
        // stops after the temp file is written but before the rename.
        write_atomic_inner(&path, b"{\"new\":tru", true).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "{\"old\":true}", "old file must be intact");
        // Completing the write replaces it atomically.
        write_atomic(&path, b"{\"new\":true}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"new\":true}");
    }

    #[test]
    fn atomic_write_to_fresh_path_works() {
        let path = tmp_path("fresh/sub/file.bin");
        write_atomic(&path, &[1, 2, 3]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec![1, 2, 3]);
    }
}
