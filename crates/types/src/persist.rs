//! Binary state persistence for checkpoint/restore.
//!
//! Every component that participates in simulator snapshots implements one
//! of two traits over the little-endian byte codec defined here:
//!
//! * [`Persist`] — *value* types that are reconstructed from bytes
//!   ([`Persist::load`] returns a fresh value). Used for plain data:
//!   counters, table entries, ROB entries, RNG state.
//! * [`PersistState`] — *components* that carry configuration-derived
//!   fields which must **not** travel in a snapshot (table geometries,
//!   latencies, policy kinds). [`PersistState::restore_state`] loads the
//!   dynamic fields *into* an already-constructed component, leaving the
//!   configuration fields untouched. Snapshots are only ever restored
//!   into a simulator built from the same configuration; the snapshot
//!   container enforces that with a configuration fingerprint.
//!
//! Decoding never panics: every malformed input surfaces as a
//! [`DecodeError`], which the snapshot layer maps to a typed
//! `SimError::SnapshotCorrupt`. The [`Reader`] is bounds-checked and
//! charges every decoded sequence against a fixed [`DECODE_BUDGET`], so
//! truncated or bit-flipped payloads fail cleanly before they allocate.
//!
//! The [`impl_persist!`](crate::impl_persist) and
//! [`impl_persist_state!`](crate::impl_persist_state) macros generate the
//! field-by-field implementations; they are invoked inside the module
//! that owns each type so private fields remain private.

use std::collections::VecDeque;
use std::fmt;

/// A decoding failure: the byte stream does not describe a valid value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong, with enough context to identify the bad field.
    pub reason: String,
}

impl DecodeError {
    /// Creates an error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        DecodeError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.reason)
    }
}

impl std::error::Error for DecodeError {}

/// An append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// The most memory, in bytes, one [`Reader`] may decode sequences into.
/// A run of repeated elements is a few bytes on the wire whatever its
/// length, so the input size no longer bounds what a decode allocates;
/// this fixed budget does. It covers the largest state a section holds
/// (an RV32IM image is capped at 64 MiB).
pub const DECODE_BUDGET: usize = 256 << 20;

/// A bounds-checked little-endian byte source. All reads are fallible;
/// running off the end of the buffer is a [`DecodeError`], never a panic.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Bytes of sequence storage decoded so far, against [`DECODE_BUDGET`].
    spent: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            spent: 0,
        }
    }

    /// Charges `count` elements of `size` bytes against the decode
    /// budget, before anything is allocated for them.
    fn charge(&mut self, count: usize, size: usize) -> Result<(), DecodeError> {
        match count
            .checked_mul(size)
            .and_then(|b| b.checked_add(self.spent))
        {
            Some(total) if total <= DECODE_BUDGET => {
                self.spent = total;
                Ok(())
            }
            _ => Err(self.err(format_args!(
                "{count} elements of {size} bytes exceed the {DECODE_BUDGET}-byte decode budget"
            ))),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed (a well-formed section must
    /// end exactly at its boundary).
    pub fn is_finished(&self) -> bool {
        self.remaining() == 0
    }

    /// A [`DecodeError`] annotated with the current offset.
    pub fn err(&self, what: impl fmt::Display) -> DecodeError {
        DecodeError::new(format!("{what} (at byte {})", self.pos))
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(self.err(format_args!(
                "truncated: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

/// Value persistence: serialize to bytes, reconstruct from bytes.
pub trait Persist: Sized {
    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut Writer);
    /// Reconstructs a value from `r`.
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Component persistence: serialize the dynamic fields, restore them
/// *into* an existing component whose configuration-derived fields are
/// already correct (because it was built from the same configuration the
/// snapshot was captured under).
pub trait PersistState {
    /// Appends this component's dynamic state to `w`.
    fn save_state(&self, w: &mut Writer);
    /// Overwrites this component's dynamic state from `r`.
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError>;
}

// Boxed (including trait-object) components persist through the box, so
// a `Box<dyn TraceSource + PersistState>`-style source can sit where a
// concrete one does (the `RunRequest` runner relies on this).
impl<T: PersistState + ?Sized> PersistState for Box<T> {
    fn save_state(&self, w: &mut Writer) {
        (**self).save_state(w);
    }
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        (**self).restore_state(r)
    }
}

macro_rules! persist_le_int {
    ($($ty:ty),*) => {$(
        impl Persist for $ty {
            fn save(&self, w: &mut Writer) {
                w.put_bytes(&self.to_le_bytes());
            }
            fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let n = std::mem::size_of::<$ty>();
                let bytes = r.take(n)?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

persist_le_int!(u8, u16, u32, u64, i8, i64);

impl Persist for bool {
    fn save(&self, w: &mut Writer) {
        w.put_bytes(&[u8::from(*self)]);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(r.err(format_args!("invalid bool byte {b:#x}"))),
        }
    }
}

impl Persist for usize {
    fn save(&self, w: &mut Writer) {
        (*self as u64).save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = u64::load(r)?;
        usize::try_from(v).map_err(|_| r.err(format_args!("usize {v} out of range")))
    }
}

impl Persist for String {
    fn save(&self, w: &mut Writer) {
        self.len().save(w);
        w.put_bytes(self.as_bytes());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = usize::load(r)?;
        if len > r.remaining() {
            return Err(r.err(format_args!(
                "string length {len} exceeds {} remaining bytes",
                r.remaining()
            )));
        }
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::new("string is not UTF-8"))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut Writer) {
        match self {
            None => false.save(w),
            Some(v) => {
                true.save(w);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(if bool::load(r)? {
            Some(T::load(r)?)
        } else {
            None
        })
    }
}

// ---- Sequences ----------------------------------------------------------
//
// A sequence is its length, then chunks until that many elements are
// covered. A chunk is a `u32` header, `count << 1 | repeat`, followed by
// `count` elements (a literal stretch) or by one element standing for
// `count` equal ones (a run). Untouched table entries are runs, so a
// table costs what the simulation touched. `PartialEq` on an element
// type must imply equal encodings (derived equality does).

/// Runs shorter than this stay inside the surrounding literal stretch,
/// where a run would cost more header than it saves.
const MIN_RUN: usize = 8;

/// The largest count one chunk header can carry.
const MAX_CHUNK: usize = (u32::MAX >> 1) as usize;

fn put_chunk_header(w: &mut Writer, count: usize, repeat: bool) {
    ((count as u32) << 1 | u32::from(repeat)).save(w);
}

fn put_literal<'a, T: Persist + 'a>(
    w: &mut Writer,
    from: usize,
    to: usize,
    at: &impl Fn(usize) -> &'a T,
) {
    let mut start = from;
    while start < to {
        let end = to.min(start + MAX_CHUNK);
        put_chunk_header(w, end - start, false);
        for i in start..end {
            at(i).save(w);
        }
        start = end;
    }
}

fn save_seq<'a, T: Persist + PartialEq + 'a>(
    w: &mut Writer,
    len: usize,
    at: impl Fn(usize) -> &'a T,
) {
    len.save(w);
    let mut literal_from = 0;
    let mut i = 0;
    while i < len {
        let mut j = i + 1;
        while j < len && j - i < MAX_CHUNK && at(j) == at(i) {
            j += 1;
        }
        if j - i >= MIN_RUN {
            put_literal(w, literal_from, i, &at);
            put_chunk_header(w, j - i, true);
            at(i).save(w);
            literal_from = j;
        }
        i = j;
    }
    put_literal(w, literal_from, len, &at);
}

fn load_seq<T: Persist + Clone>(r: &mut Reader<'_>) -> Result<Vec<T>, DecodeError> {
    let len = usize::load(r)?;
    r.charge(len, std::mem::size_of::<T>().max(1))?;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let head = u32::load(r)?;
        let count = (head >> 1) as usize;
        let left = len - out.len();
        if count == 0 || count > left {
            return Err(r.err(format_args!(
                "chunk of {count} elements where {left} remain of {len}"
            )));
        }
        if head & 1 == 1 {
            // The repeated element's own heap storage is cloned
            // `count - 1` more times; charge for it before `resize`.
            let spent = r.spent;
            let v = T::load(r)?;
            let inner = r.spent - spent;
            r.charge(count - 1, inner)?;
            out.resize(out.len() + count, v);
        } else {
            // Every element costs at least one byte.
            if count > r.remaining() {
                return Err(r.err(format_args!(
                    "literal stretch of {count} exceeds {} remaining bytes",
                    r.remaining()
                )));
            }
            for _ in 0..count {
                out.push(T::load(r)?);
            }
        }
    }
    Ok(out)
}

impl<T: Persist + PartialEq + Clone> Persist for Vec<T> {
    fn save(&self, w: &mut Writer) {
        save_seq(w, self.len(), |i| &self[i]);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        load_seq(r)
    }
}

impl<T: Persist + PartialEq + Clone> Persist for VecDeque<T> {
    fn save(&self, w: &mut Writer) {
        save_seq(w, self.len(), |i| &self[i]);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(load_seq(r)?.into())
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn save(&self, w: &mut Writer) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into()
            .map_err(|_| DecodeError::new("array length mismatch"))
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

/// Implements [`Persist`] for a struct by listing **all** of its fields.
/// Must be invoked in a module with visibility of every field (normally
/// the defining module). Loading reconstructs the struct literal, so a
/// missing field is a compile error — the list cannot silently drift.
#[macro_export]
macro_rules! impl_persist {
    ($ty:ty { $($f:ident),* $(,)? }) => {
        impl $crate::persist::Persist for $ty {
            fn save(&self, w: &mut $crate::persist::Writer) {
                $( $crate::persist::Persist::save(&self.$f, w); )*
            }
            fn load(
                r: &mut $crate::persist::Reader<'_>,
            ) -> Result<Self, $crate::persist::DecodeError> {
                Ok(Self { $( $f: $crate::persist::Persist::load(r)?, )* })
            }
        }
    };
}

/// Implements [`PersistState`] for a component by listing its *dynamic*
/// fields; configuration-derived fields are simply omitted and keep the
/// values of the restore target. An optional second section (after `;`)
/// names fields that are themselves [`PersistState`] components and are
/// recursed into instead of reconstructed.
#[macro_export]
macro_rules! impl_persist_state {
    ($ty:ty { $($f:ident),* $(,)? }) => {
        $crate::impl_persist_state!($ty { $($f),* ; });
    };
    ($ty:ty { $($f:ident),* ; $($n:ident),* $(,)? }) => {
        impl $crate::persist::PersistState for $ty {
            fn save_state(&self, w: &mut $crate::persist::Writer) {
                $( $crate::persist::Persist::save(&self.$f, w); )*
                $( $crate::persist::PersistState::save_state(&self.$n, w); )*
            }
            fn restore_state(
                &mut self,
                r: &mut $crate::persist::Reader<'_>,
            ) -> Result<(), $crate::persist::DecodeError> {
                $( self.$f = $crate::persist::Persist::load(r)?; )*
                $( $crate::persist::PersistState::restore_state(&mut self.$n, r)?; )*
                Ok(())
            }
        }
    };
}

// ---- Identifier newtypes ------------------------------------------------

impl Persist for crate::Cycle {
    fn save(&self, w: &mut Writer) {
        self.get().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(crate::Cycle::new(u64::load(r)?))
    }
}

impl Persist for crate::Addr {
    fn save(&self, w: &mut Writer) {
        self.get().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(crate::Addr::new(u64::load(r)?))
    }
}

impl Persist for crate::Pc {
    fn save(&self, w: &mut Writer) {
        self.get().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(crate::Pc::new(u64::load(r)?))
    }
}

impl Persist for crate::SeqNum {
    fn save(&self, w: &mut Writer) {
        self.get().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(crate::SeqNum::new(u64::load(r)?))
    }
}

impl Persist for crate::PhysReg {
    fn save(&self, w: &mut Writer) {
        self.get().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(crate::PhysReg::new(u16::load(r)?))
    }
}

impl Persist for crate::ArchReg {
    fn save(&self, w: &mut Writer) {
        self.get().save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let raw = u8::load(r)?;
        // ArchReg::new panics out of range; decode must not.
        if (raw as usize) >= crate::ArchReg::COUNT {
            return Err(r.err(format_args!("arch reg {raw} out of range")));
        }
        Ok(crate::ArchReg::new(raw))
    }
}

// ---- Small enums --------------------------------------------------------

impl Persist for crate::BranchKind {
    fn save(&self, w: &mut Writer) {
        use crate::BranchKind::*;
        let tag: u8 = match self {
            Conditional => 0,
            Direct => 1,
            Indirect => 2,
            Call => 3,
            Return => 4,
        };
        tag.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        use crate::BranchKind::*;
        Ok(match u8::load(r)? {
            0 => Conditional,
            1 => Direct,
            2 => Indirect,
            3 => Call,
            4 => Return,
            t => return Err(r.err(format_args!("invalid BranchKind tag {t}"))),
        })
    }
}

impl Persist for crate::OpClass {
    fn save(&self, w: &mut Writer) {
        use crate::OpClass::*;
        match self {
            IntAlu => 0u8.save(w),
            IntMul => 1u8.save(w),
            IntDiv => 2u8.save(w),
            FpAlu => 3u8.save(w),
            FpMul => 4u8.save(w),
            FpDiv => 5u8.save(w),
            Load => 6u8.save(w),
            Store => 7u8.save(w),
            Branch(k) => {
                8u8.save(w);
                k.save(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        use crate::OpClass::*;
        Ok(match u8::load(r)? {
            0 => IntAlu,
            1 => IntMul,
            2 => IntDiv,
            3 => FpAlu,
            4 => FpMul,
            5 => FpDiv,
            6 => Load,
            7 => Store,
            8 => Branch(crate::BranchKind::load(r)?),
            t => return Err(r.err(format_args!("invalid OpClass tag {t}"))),
        })
    }
}

impl Persist for crate::RegClass {
    fn save(&self, w: &mut Writer) {
        let tag: u8 = match self {
            crate::RegClass::Int => 0,
            crate::RegClass::Float => 1,
        };
        tag.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::load(r)? {
            0 => crate::RegClass::Int,
            1 => crate::RegClass::Float,
            t => return Err(r.err(format_args!("invalid RegClass tag {t}"))),
        })
    }
}

impl Persist for crate::ReplayCause {
    fn save(&self, w: &mut Writer) {
        use crate::ReplayCause::*;
        let tag: u8 = match self {
            L1Miss => 0,
            BankConflict => 1,
            PrfConflict => 2,
        };
        tag.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        use crate::ReplayCause::*;
        Ok(match u8::load(r)? {
            0 => L1Miss,
            1 => BankConflict,
            2 => PrfConflict,
            t => return Err(r.err(format_args!("invalid ReplayCause tag {t}"))),
        })
    }
}

crate::impl_persist!(crate::CommitRecord { seq, pc, kind, dst });

crate::impl_persist!(crate::CacheStats {
    accesses,
    hits,
    misses,
    mshr_merges,
    prefetches,
    prefetch_hits,
});

/// Every counter of [`SimStats::counters`](crate::SimStats::counters),
/// in that order: the one field list the wire line and the golden file
/// use, so a new counter is persisted as soon as it is listed there.
impl Persist for crate::SimStats {
    fn save(&self, w: &mut Writer) {
        for (_, v) in self.counters() {
            v.save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut s = crate::SimStats::default();
        for (_, v) in s.counters_mut() {
            *v = u64::load(r)?;
        }
        Ok(s)
    }
}

/// FNV-1a 64-bit hash — the workspace's integrity checksum (same algorithm
/// as the harness stats cache).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Writer::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = T::load(&mut r).expect("decodes");
        assert!(r.is_finished(), "trailing bytes after {back:?}");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0xABu8);
        roundtrip(0xAB_CDu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(-5i8);
        roundtrip(-123_456i64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(usize::MAX);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(VecDeque::from(vec![9u8, 8]));
        roundtrip([1u16, 2, 3, 4]);
        roundtrip((crate::Cycle::new(3), crate::SeqNum::new(4), 5u32));
    }

    #[test]
    fn ids_roundtrip() {
        roundtrip(crate::Cycle::new(42));
        roundtrip(crate::Addr::new(0x1234));
        roundtrip(crate::Pc::new(0x4000));
        roundtrip(crate::SeqNum::new(9));
        roundtrip(crate::PhysReg::new(130));
        roundtrip(crate::ArchReg::new(31));
    }

    #[test]
    fn enums_roundtrip() {
        for k in [
            crate::BranchKind::Conditional,
            crate::BranchKind::Return,
            crate::BranchKind::Call,
        ] {
            roundtrip(k);
            roundtrip(crate::OpClass::Branch(k));
        }
        roundtrip(crate::OpClass::Load);
        roundtrip(crate::RegClass::Float);
        for c in crate::ReplayCause::ALL {
            roundtrip(c);
        }
    }

    #[test]
    fn stats_roundtrip() {
        let mut s = crate::SimStats {
            cycles: 11,
            committed_uops: 22,
            faults_injected: 3,
            ..Default::default()
        };
        s.l1d.misses = 5;
        s.l2.prefetch_hits = 7;
        roundtrip(s);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(Vec::<u64>::load(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn absurd_length_rejected_before_allocation() {
        let mut w = Writer::new();
        (u64::MAX - 3).save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(Vec::<u8>::load(&mut r).is_err());
    }

    fn encoded<T: Persist>(v: &T) -> Vec<u8> {
        let mut w = Writer::new();
        v.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn runs_roundtrip_and_shrink_untouched_tables() {
        let mut table = vec![0u32; 4096];
        table[7] = 9;
        table[8] = 3;
        table[4000] = 1;
        roundtrip(table.clone());
        // Length, then runs and literal stretches of a few elements each.
        assert!(
            encoded(&table).len() < 96,
            "{} bytes",
            encoded(&table).len()
        );
        roundtrip(vec![5u8; MIN_RUN - 1]);
        roundtrip(vec![5u8; MIN_RUN]);
        roundtrip((0..100u16).map(|i| i / 10).collect::<Vec<_>>());
        roundtrip(vec![vec![1u8, 2], vec![1, 2], vec![], vec![3; 40]]);
        roundtrip(vec![vec![0u64; 50]; 30]);
        roundtrip(VecDeque::from(vec![7u64; 100]));
        roundtrip(Vec::<u8>::new());
    }

    /// Length `len`, then one chunk header, then `tail`.
    fn seq_bytes(len: u64, count: u32, repeat: bool, tail: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        len.save(&mut w);
        (count << 1 | u32::from(repeat)).save(&mut w);
        w.put_bytes(tail);
        w.into_bytes()
    }

    #[test]
    fn repeat_run_past_the_declared_length_is_an_error() {
        // Four elements declared, a run of 2^30 claimed: `resize` would
        // ask for 8 GiB if the count were trusted.
        let bytes = seq_bytes(4, 1 << 30, true, &7u64.to_le_bytes());
        let err = Vec::<u64>::load(&mut Reader::new(&bytes)).unwrap_err();
        assert!(err.reason.contains("chunk of 1073741824"), "{err}");
        // An empty chunk would never advance.
        let bytes = seq_bytes(4, 0, false, &[]);
        assert!(Vec::<u64>::load(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn literal_stretch_longer_than_the_input_is_an_error() {
        let bytes = seq_bytes(100, 100, false, &[1, 2, 3]);
        let err = Vec::<u8>::load(&mut Reader::new(&bytes)).unwrap_err();
        assert!(err.reason.contains("literal stretch of 100"), "{err}");
    }

    #[test]
    fn length_past_the_decode_budget_is_an_error() {
        let over = (DECODE_BUDGET / 8 + 1) as u64;
        let bytes = seq_bytes(over, over as u32, true, &7u64.to_le_bytes());
        let err = Vec::<u64>::load(&mut Reader::new(&bytes)).unwrap_err();
        assert!(err.reason.contains("decode budget"), "{err}");
        // Nested runs: 2^20 copies of a 1 KiB-element table are 8 GiB
        // that no single length declares; the clones are charged too.
        let mut w = Writer::new();
        (1u64 << 20).save(&mut w);
        ((1u32 << 20) << 1 | 1).save(&mut w);
        vec![0u64; 1024].save(&mut w);
        let bytes = w.into_bytes();
        let err = Vec::<Vec<u64>>::load(&mut Reader::new(&bytes)).unwrap_err();
        assert!(err.reason.contains("decode budget"), "{err}");
    }

    #[test]
    fn invalid_tags_rejected() {
        let mut r = Reader::new(&[200]);
        assert!(crate::OpClass::load(&mut r).is_err());
        let mut r = Reader::new(&[2]);
        assert!(bool::load(&mut r).is_err());
        let mut r = Reader::new(&[63]);
        assert!(crate::ArchReg::load(&mut r).is_err());
        let mut r = Reader::new(&[32]);
        assert!(crate::ArchReg::load(&mut r).is_err());
    }

    #[test]
    fn fnv_matches_reference() {
        // FNV-1a 64 of empty input is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
