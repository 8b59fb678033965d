//! The per-record trace codec: compact, streaming, deterministic.
//!
//! Encodes a [`TraceRecord`] stream into the byte payload of one trace
//! chunk (see [`crate::file`] for the chunked container). The design
//! goals, in order:
//!
//! 1. **Density.** Instruction PCs advance by a word and memory
//!    accesses cluster, so both are stored as zigzag varint *deltas*
//!    against a running [`Ctx`]; operand presence, the pointer-result
//!    hint and the memory-operand size share one flags byte. Typical
//!    generated traces land around 4–6 bytes/record, better than 4×
//!    smaller than the in-memory [`TraceRecord`].
//! 2. **Robustness.** Decoding never panics: every read is
//!    bounds-checked and every operand validated, with byte-offset
//!    [`CodecError`]s for the container to wrap.
//! 3. **Speed.** Instruction records away from the payload tail decode
//!    through a fast path that reads one fixed 24-byte window. It
//!    commits — advances the cursor and the [`Ctx`] — only after the
//!    whole record has validated; anything else (another record kind,
//!    a malformed varint, a register out of range, the last 24 bytes
//!    of a payload) is decoded by the checked path from the unchanged
//!    state. So every [`CodecError`] comes from the checked path, and
//!    both paths yield the same results, offsets included.
//! 4. **Chunk independence.** The context resets at chunk boundaries,
//!    so a corrupt chunk never poisons its neighbours and readers can
//!    skip or resynchronize at chunk granularity.
//!
//! The encoding is bit-stable: the same record sequence always produces
//! the same bytes (golden `.fadet` fixtures rely on this).

use fade_isa::{
    AppInstr, HighLevelEvent, InstrClass, MemRef, Reg, StackUpdateEvent, StackUpdateKind,
    VirtAddr, NUM_REGS,
};

use crate::program::TraceRecord;

/// A decode failure inside one chunk payload. Offsets are relative to
/// the payload start; [`crate::file`] adds the chunk's file offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended inside a record.
    Truncated {
        /// Payload offset at which more bytes were needed.
        offset: usize,
    },
    /// An unknown record tag.
    BadTag {
        /// Payload offset of the offending tag byte.
        offset: usize,
    },
    /// A structurally valid record carried an invalid operand (register
    /// index out of range, over-long varint).
    BadOperand {
        /// Payload offset of the offending operand.
        offset: usize,
    },
}

impl CodecError {
    /// The payload offset the error points at.
    pub fn offset(&self) -> usize {
        match *self {
            CodecError::Truncated { offset }
            | CodecError::BadTag { offset }
            | CodecError::BadOperand { offset } => offset,
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { offset } => {
                write!(f, "payload ends inside a record (offset {offset})")
            }
            CodecError::BadTag { offset } => {
                write!(f, "unknown record tag at payload offset {offset}")
            }
            CodecError::BadOperand { offset } => {
                write!(f, "invalid operand at payload offset {offset}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// Record tags. 0..=10 are instructions, indexed by instruction class.
const TAG_STACK_CALL: u8 = 11;
const TAG_STACK_RETURN: u8 = 12;
const TAG_MALLOC: u8 = 13;
const TAG_FREE: u8 = 14;
const TAG_TAINT_SOURCE: u8 = 15;
const TAG_THREAD_SWITCH: u8 = 16;

// Instruction flags byte.
const F_SRC1: u8 = 1 << 0;
const F_SRC2: u8 = 1 << 1;
const F_DEST: u8 = 1 << 2;
const F_MEM: u8 = 1 << 3;
const F_RESULT_PTR: u8 = 1 << 4;
/// The instruction's tid differs from the context tid and follows
/// explicitly (in generated traces the context tid, maintained by
/// thread-switch records, almost always matches).
const F_TID: u8 = 1 << 5;
const SIZE_SHIFT: u8 = 6;

fn class_tag(c: InstrClass) -> u8 {
    match c {
        InstrClass::Load => 0,
        InstrClass::Store => 1,
        InstrClass::IntAlu => 2,
        InstrClass::IntMove => 3,
        InstrClass::IntMul => 4,
        InstrClass::FpAlu => 5,
        InstrClass::Branch => 6,
        InstrClass::Jump => 7,
        InstrClass::Call => 8,
        InstrClass::Return => 9,
        InstrClass::Nop => 10,
    }
}

fn class_from_tag(t: u8) -> Option<InstrClass> {
    Some(match t {
        0 => InstrClass::Load,
        1 => InstrClass::Store,
        2 => InstrClass::IntAlu,
        3 => InstrClass::IntMove,
        4 => InstrClass::IntMul,
        5 => InstrClass::FpAlu,
        6 => InstrClass::Branch,
        7 => InstrClass::Jump,
        8 => InstrClass::Call,
        9 => InstrClass::Return,
        10 => InstrClass::Nop,
        _ => return None,
    })
}

/// Memory-operand size codes (2 bits of the flags byte). Word accesses
/// dominate generated traces, so they cost nothing; the escape code
/// keeps every `u8` size representable.
const SIZE_WORD: u8 = 0; // 4 bytes, the common case
const SIZE_BYTE: u8 = 1;
const SIZE_HALF: u8 = 2;
const SIZE_EXPLICIT: u8 = 3; // size byte follows the address delta

/// The running prediction context. One per chunk: encoder and decoder
/// start from [`Ctx::default`] at every chunk boundary and must stay in
/// lockstep record-for-record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ctx {
    prev_pc: u32,
    prev_mem: u32,
    prev_stack: u32,
    prev_heap: u32,
    cur_tid: u8,
}

#[inline]
fn zigzag(v: u32, prev: u32) -> u32 {
    let d = v.wrapping_sub(prev) as i32;
    ((d << 1) ^ (d >> 31)) as u32
}

#[inline]
fn unzigzag(z: u32, prev: u32) -> u32 {
    let d = ((z >> 1) as i32) ^ -((z & 1) as i32);
    prev.wrapping_add(d as u32)
}

/// Appends a LEB128 varint.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(CodecError::Truncated { offset: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a LEB128 varint that must fit in 32 bits.
    fn varint32(&mut self) -> Result<u32, CodecError> {
        let start = self.pos;
        let mut v: u64 = 0;
        for shift in (0..).step_by(7) {
            let b = self.u8()?;
            // A 32-bit value spans at most 5 varint bytes.
            if shift >= 35 {
                return Err(CodecError::BadOperand { offset: start });
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                break;
            }
        }
        u32::try_from(v).map_err(|_| CodecError::BadOperand { offset: start })
    }

    fn reg(&mut self) -> Result<Reg, CodecError> {
        let at = self.pos;
        let idx = self.u8()?;
        if (idx as usize) < NUM_REGS {
            Ok(Reg::new(idx))
        } else {
            Err(CodecError::BadOperand { offset: at })
        }
    }
}

/// Bytes the fast decode path reads at once: enough for the longest
/// instruction record (17 bytes: tag, flags, two 5-byte varints, three
/// registers, tid, explicit size) and for an 8-byte load at the last
/// varint it can start at (offset 11).
const WINDOW: usize = 24;

/// The LEB128 varint at `w[at]`, with the offset just past it, when it
/// fits in 32 bits. Reads one 8-byte word and finds the length from
/// its continuation bits, without a branch per byte. Anything longer
/// than 5 bytes or above `u32::MAX` is left to [`Cursor::varint32`] to
/// report.
#[inline(always)]
fn window_varint(w: &[u8; WINDOW], at: usize) -> Option<(u32, usize)> {
    let x = u64::from_le_bytes(w[at..at + 8].try_into().ok()?);
    // High bit of each of the first 5 bytes that ends the varint.
    let ends = !x & 0x0000_0080_8080_8080;
    if ends == 0 {
        return None;
    }
    let len = ends.trailing_zeros() as usize / 8 + 1;
    let x = x & (u64::MAX >> (64 - 8 * len));
    let v = (x & 0x7f)
        | (x >> 1) & (0x7f << 7)
        | (x >> 2) & (0x7f << 14)
        | (x >> 3) & (0x7f << 21)
        | (x >> 4) & (0x7f << 28);
    Some((u32::try_from(v).ok()?, at + len))
}

/// Encodes one record, updating the context.
pub fn encode_record(ctx: &mut Ctx, r: &TraceRecord, out: &mut Vec<u8>) {
    match r {
        TraceRecord::Instr(i) => {
            out.push(class_tag(i.class));
            let mut flags = 0u8;
            if i.src1.is_some() {
                flags |= F_SRC1;
            }
            if i.src2.is_some() {
                flags |= F_SRC2;
            }
            if i.dest.is_some() {
                flags |= F_DEST;
            }
            if i.result_ptr {
                flags |= F_RESULT_PTR;
            }
            if i.tid != ctx.cur_tid {
                flags |= F_TID;
            }
            let size_code = match i.mem {
                None => 0,
                Some(m) => {
                    flags |= F_MEM;
                    match m.size {
                        4 => SIZE_WORD,
                        1 => SIZE_BYTE,
                        2 => SIZE_HALF,
                        _ => SIZE_EXPLICIT,
                    }
                }
            };
            flags |= size_code << SIZE_SHIFT;
            out.push(flags);
            write_varint(out, zigzag(i.pc.raw(), ctx.prev_pc) as u64);
            ctx.prev_pc = i.pc.raw();
            if let Some(r) = i.src1 {
                out.push(r.index());
            }
            if let Some(r) = i.src2 {
                out.push(r.index());
            }
            if let Some(r) = i.dest {
                out.push(r.index());
            }
            if flags & F_TID != 0 {
                out.push(i.tid);
            }
            if let Some(m) = i.mem {
                write_varint(out, zigzag(m.addr.raw(), ctx.prev_mem) as u64);
                ctx.prev_mem = m.addr.raw();
                if size_code == SIZE_EXPLICIT {
                    out.push(m.size);
                }
            }
        }
        TraceRecord::Stack(s) => {
            out.push(match s.kind {
                StackUpdateKind::Call => TAG_STACK_CALL,
                StackUpdateKind::Return => TAG_STACK_RETURN,
            });
            write_varint(out, zigzag(s.base.raw(), ctx.prev_stack) as u64);
            ctx.prev_stack = s.base.raw();
            write_varint(out, s.len as u64);
            out.push(s.tid);
        }
        TraceRecord::High(h) => match *h {
            HighLevelEvent::Malloc { base, len, ctx: actx } => {
                out.push(TAG_MALLOC);
                write_varint(out, zigzag(base.raw(), ctx.prev_heap) as u64);
                ctx.prev_heap = base.raw();
                write_varint(out, len as u64);
                write_varint(out, actx as u64);
            }
            HighLevelEvent::Free { base, len } => {
                out.push(TAG_FREE);
                write_varint(out, zigzag(base.raw(), ctx.prev_heap) as u64);
                ctx.prev_heap = base.raw();
                write_varint(out, len as u64);
            }
            HighLevelEvent::TaintSource { base, len } => {
                out.push(TAG_TAINT_SOURCE);
                write_varint(out, zigzag(base.raw(), ctx.prev_heap) as u64);
                ctx.prev_heap = base.raw();
                write_varint(out, len as u64);
            }
            HighLevelEvent::ThreadSwitch { tid } => {
                out.push(TAG_THREAD_SWITCH);
                out.push(tid);
                ctx.cur_tid = tid;
            }
        },
    }
}

/// Encodes a record slice into a fresh-context payload (one chunk).
pub fn encode_chunk(records: &[TraceRecord], out: &mut Vec<u8>) {
    let mut ctx = Ctx::default();
    for r in records {
        encode_record(&mut ctx, r, out);
    }
}

/// Decoder over one chunk payload.
pub struct ChunkDecoder<'a> {
    cursor: Cursor<'a>,
    ctx: Ctx,
}

impl<'a> ChunkDecoder<'a> {
    /// Starts decoding a payload with a fresh context.
    pub fn new(payload: &'a [u8]) -> Self {
        ChunkDecoder {
            cursor: Cursor {
                buf: payload,
                pos: 0,
            },
            ctx: Ctx::default(),
        }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.cursor.pos
    }

    /// `true` once the whole payload has been consumed.
    pub fn is_done(&self) -> bool {
        self.cursor.pos >= self.cursor.buf.len()
    }

    /// Decodes the next record, or `None` at the payload end.
    #[inline]
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, CodecError> {
        match self.next_instr_fast() {
            Some(i) => Ok(Some(TraceRecord::Instr(i))),
            None => self.next_record_checked(),
        }
    }

    /// The fast path: an instruction record read from one fixed
    /// [`WINDOW`]-byte view of the payload, so a single bounds check
    /// covers every operand. It commits (cursor and context) only once
    /// the whole record has validated; `None` leaves the decoder
    /// untouched for [`Self::next_record_checked`] to decode, or to
    /// report the error, from the same state.
    #[inline(always)]
    fn next_instr_fast(&mut self) -> Option<AppInstr> {
        let pos = self.cursor.pos;
        let w: &[u8; WINDOW] = self.cursor.buf.get(pos..pos + WINDOW)?.try_into().ok()?;
        let class = class_from_tag(w[0])?;
        let flags = w[1];
        let has = |bit: u8| flags & bit != 0;
        let (pc, mut at) = window_varint(w, 2)?;
        // Register and tid bytes follow at offsets the flags fix: read
        // and validate them together rather than branch on each flag.
        let mut slot = |bit: u8| {
            let here = at;
            at += has(bit) as usize;
            here
        };
        let (src1, src2, dest, tid) = (slot(F_SRC1), slot(F_SRC2), slot(F_DEST), slot(F_TID));
        let valid = |bit: u8, at: usize| !has(bit) | ((w[at] as usize) < NUM_REGS);
        if !(valid(F_SRC1, src1) & valid(F_SRC2, src2) & valid(F_DEST, dest)) {
            return None;
        }
        // In range whenever present; the mask only spares absent ones
        // the range assertion.
        let reg = |bit: u8, at: usize| has(bit).then_some(Reg::new(w[at] % NUM_REGS as u8));
        let mut i = AppInstr {
            src1: reg(F_SRC1, src1),
            src2: reg(F_SRC2, src2),
            dest: reg(F_DEST, dest),
            tid: if has(F_TID) { w[tid] } else { self.ctx.cur_tid },
            ..AppInstr::new(VirtAddr::new(unzigzag(pc, self.ctx.prev_pc)), class)
                .with_result_ptr(has(F_RESULT_PTR))
        };
        if has(F_MEM) {
            let (delta, end) = window_varint(w, at)?;
            at = end;
            let addr = unzigzag(delta, self.ctx.prev_mem);
            let size = match flags >> SIZE_SHIFT {
                SIZE_WORD => 4,
                SIZE_BYTE => 1,
                SIZE_HALF => 2,
                _ => {
                    at += 1;
                    w[at - 1]
                }
            };
            i.mem = Some(MemRef {
                addr: VirtAddr::new(addr),
                size,
            });
            self.ctx.prev_mem = addr;
        }
        self.ctx.prev_pc = i.pc.raw();
        self.cursor.pos = pos + at;
        Some(i)
    }

    /// The checked decoder: every read bounds-checked, every operand
    /// validated, and the only source of [`CodecError`]s. Kept out of
    /// line so that the decode loop around the fast path stays small.
    #[inline(never)]
    fn next_record_checked(&mut self) -> Result<Option<TraceRecord>, CodecError> {
        if self.is_done() {
            return Ok(None);
        }
        let tag_offset = self.cursor.pos;
        let tag = self.cursor.u8()?;
        let rec = match tag {
            t if t <= 10 => {
                let class = class_from_tag(t).expect("tags 0..=10 are classes");
                let flags = self.cursor.u8()?;
                let pc = unzigzag(self.cursor.varint32()?, self.ctx.prev_pc);
                self.ctx.prev_pc = pc;
                let mut i = AppInstr::new(VirtAddr::new(pc), class)
                    .with_result_ptr(flags & F_RESULT_PTR != 0)
                    .with_tid(self.ctx.cur_tid);
                if flags & F_SRC1 != 0 {
                    i = i.with_src1(self.cursor.reg()?);
                }
                if flags & F_SRC2 != 0 {
                    i = i.with_src2(self.cursor.reg()?);
                }
                if flags & F_DEST != 0 {
                    i = i.with_dest(self.cursor.reg()?);
                }
                if flags & F_TID != 0 {
                    i = i.with_tid(self.cursor.u8()?);
                }
                if flags & F_MEM != 0 {
                    let addr = unzigzag(self.cursor.varint32()?, self.ctx.prev_mem);
                    self.ctx.prev_mem = addr;
                    let size = match flags >> SIZE_SHIFT {
                        SIZE_WORD => 4,
                        SIZE_BYTE => 1,
                        SIZE_HALF => 2,
                        _ => self.cursor.u8()?,
                    };
                    i = i.with_mem(MemRef {
                        addr: VirtAddr::new(addr),
                        size,
                    });
                }
                TraceRecord::Instr(i)
            }
            TAG_STACK_CALL | TAG_STACK_RETURN => {
                let base = unzigzag(self.cursor.varint32()?, self.ctx.prev_stack);
                self.ctx.prev_stack = base;
                let len = self.cursor.varint32()?;
                let tid = self.cursor.u8()?;
                TraceRecord::Stack(StackUpdateEvent {
                    base: VirtAddr::new(base),
                    len,
                    kind: if tag == TAG_STACK_CALL {
                        StackUpdateKind::Call
                    } else {
                        StackUpdateKind::Return
                    },
                    tid,
                })
            }
            TAG_MALLOC => {
                let base = unzigzag(self.cursor.varint32()?, self.ctx.prev_heap);
                self.ctx.prev_heap = base;
                TraceRecord::High(HighLevelEvent::Malloc {
                    base: VirtAddr::new(base),
                    len: self.cursor.varint32()?,
                    ctx: self.cursor.varint32()?,
                })
            }
            TAG_FREE => {
                let base = unzigzag(self.cursor.varint32()?, self.ctx.prev_heap);
                self.ctx.prev_heap = base;
                TraceRecord::High(HighLevelEvent::Free {
                    base: VirtAddr::new(base),
                    len: self.cursor.varint32()?,
                })
            }
            TAG_TAINT_SOURCE => {
                let base = unzigzag(self.cursor.varint32()?, self.ctx.prev_heap);
                self.ctx.prev_heap = base;
                TraceRecord::High(HighLevelEvent::TaintSource {
                    base: VirtAddr::new(base),
                    len: self.cursor.varint32()?,
                })
            }
            TAG_THREAD_SWITCH => {
                let tid = self.cursor.u8()?;
                self.ctx.cur_tid = tid;
                TraceRecord::High(HighLevelEvent::ThreadSwitch { tid })
            }
            _ => return Err(CodecError::BadTag { offset: tag_offset }),
        };
        Ok(Some(rec))
    }

    /// Decodes exactly `expected` records, requiring the payload to end
    /// with the last one.
    pub fn decode_all(mut self, expected: usize, out: &mut Vec<TraceRecord>) -> Result<(), CodecError> {
        // `expected` comes from an untrusted length field: cap the
        // upfront reservation so a crafted count cannot drive a
        // payload-size-amplified allocation before the first record
        // validates — beyond the cap the vector grows only as records
        // actually decode.
        out.reserve(expected.min(64 * 1024));
        for _ in 0..expected {
            match self.next_record()? {
                Some(r) => out.push(r),
                // Fewer records than the chunk header promised.
                None => {
                    return Err(CodecError::Truncated {
                        offset: self.cursor.pos,
                    })
                }
            }
        }
        if !self.is_done() {
            // Trailing garbage after the promised record count.
            return Err(CodecError::BadTag {
                offset: self.cursor.pos,
            });
        }
        Ok(())
    }
}

/// CRC-32 (IEEE 802.3, reflected) — the per-chunk integrity check.
///
/// Slicing-by-8: each step folds eight input bytes through eight
/// derived tables instead of one byte through one, the same polynomial
/// and therefore bit-identical checksums to the bytewise loop, which
/// still finishes the last `len % 8` bytes.
pub fn crc32(bytes: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc: u32 = 0xffff_ffff;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = T[7][lo as u8 as usize]
            ^ T[6][(lo >> 8) as u8 as usize]
            ^ T[5][(lo >> 16) as u8 as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][hi as u8 as usize]
            ^ T[2][(hi >> 8) as u8 as usize]
            ^ T[1][(hi >> 16) as u8 as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ T[0][(crc as u8 ^ b) as usize];
    }
    !crc
}

/// `T[0]` is the bytewise table; `T[k][b]` is the CRC contribution of
/// byte `b` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use crate::program::SyntheticProgram;

    fn sample(name: &str, n: usize) -> Vec<TraceRecord> {
        let p = bench::by_name(name).unwrap();
        let mut prog = SyntheticProgram::new(&p, 42);
        (0..n).map(|_| prog.next_record()).collect()
    }

    fn round_trip(records: &[TraceRecord]) -> Vec<TraceRecord> {
        let mut payload = Vec::new();
        encode_chunk(records, &mut payload);
        let mut out = Vec::new();
        ChunkDecoder::new(&payload)
            .decode_all(records.len(), &mut out)
            .expect("valid payload");
        out
    }

    #[test]
    fn round_trips_generated_traces() {
        for name in ["gcc", "water", "mcf", "astar-taint"] {
            let records = sample(name, 20_000);
            assert_eq!(round_trip(&records), records, "{name}");
        }
    }

    #[test]
    fn delta_encoding_is_compact() {
        let records = sample("gcc", 20_000);
        let mut payload = Vec::new();
        encode_chunk(&records, &mut payload);
        let per_record = payload.len() as f64 / records.len() as f64;
        assert!(per_record < 8.0, "got {per_record:.2} bytes/record");
        let raw = std::mem::size_of::<TraceRecord>() as f64;
        assert!(
            raw >= 3.0 * per_record,
            "encoded {per_record:.2} B/record vs {raw:.0} B in memory"
        );
    }

    #[test]
    fn truncation_never_panics() {
        let records = sample("mcf", 200);
        let mut payload = Vec::new();
        encode_chunk(&records, &mut payload);
        for cut in 0..payload.len() {
            let mut dec = ChunkDecoder::new(&payload[..cut]);
            // Walk until error or clean end; must never panic.
            while let Ok(Some(_)) = dec.next_record() {}
        }
    }

    #[test]
    fn bad_tag_reports_offset() {
        let payload = [200u8, 0, 0];
        let mut dec = ChunkDecoder::new(&payload);
        assert_eq!(dec.next_record(), Err(CodecError::BadTag { offset: 0 }));
    }

    #[test]
    fn bad_register_is_a_typed_error() {
        // Load with src1 present but register index 0xff.
        let payload = [0u8, F_SRC1, 0, 0xff];
        let mut dec = ChunkDecoder::new(&payload);
        assert_eq!(dec.next_record(), Err(CodecError::BadOperand { offset: 3 }));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Instr with a 6-byte pc varint.
        let payload = [0u8, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        let mut dec = ChunkDecoder::new(&payload);
        assert!(matches!(
            dec.next_record(),
            Err(CodecError::BadOperand { .. })
        ));
    }

    /// SplitMix64, for seeded random streams and mutations.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn coin(&mut self) -> bool {
            self.next() & 1 != 0
        }
    }

    const CLASSES: [InstrClass; 11] = [
        InstrClass::Load,
        InstrClass::Store,
        InstrClass::IntAlu,
        InstrClass::IntMove,
        InstrClass::IntMul,
        InstrClass::FpAlu,
        InstrClass::Branch,
        InstrClass::Jump,
        InstrClass::Call,
        InstrClass::Return,
        InstrClass::Nop,
    ];

    /// A record of any kind. Addresses are mostly near their
    /// predecessor (1–4-byte varints) and sometimes anywhere (5-byte
    /// varints); sizes and tids sometimes take their escape encodings.
    fn random_record(rng: &mut Rng, near: &mut u32) -> TraceRecord {
        let mut addr = |rng: &mut Rng| {
            *near = if rng.below(4) == 0 {
                rng.next() as u32
            } else {
                let bits = 7 * (1 + rng.below(4));
                near.wrapping_add(rng.below(1 << bits) as u32)
            };
            VirtAddr::new(*near)
        };
        let len = |rng: &mut Rng| rng.next() as u32 >> rng.below(32);
        match rng.below(12) {
            0 => TraceRecord::Stack(StackUpdateEvent {
                base: addr(rng),
                len: len(rng),
                kind: if rng.coin() {
                    StackUpdateKind::Call
                } else {
                    StackUpdateKind::Return
                },
                tid: rng.next() as u8,
            }),
            1 => TraceRecord::High(HighLevelEvent::Malloc {
                base: addr(rng),
                len: len(rng),
                ctx: len(rng),
            }),
            2 => TraceRecord::High(HighLevelEvent::Free {
                base: addr(rng),
                len: len(rng),
            }),
            3 => TraceRecord::High(HighLevelEvent::TaintSource {
                base: addr(rng),
                len: len(rng),
            }),
            4 => TraceRecord::High(HighLevelEvent::ThreadSwitch {
                tid: rng.below(3) as u8,
            }),
            _ => {
                let reg = |rng: &mut Rng| rng.coin().then(|| Reg::new(rng.below(NUM_REGS) as u8));
                let mut i = AppInstr::new(addr(rng), CLASSES[rng.below(CLASSES.len())])
                    .with_result_ptr(rng.coin())
                    .with_tid(rng.below(3) as u8);
                i.src1 = reg(rng);
                i.src2 = reg(rng);
                i.dest = reg(rng);
                if rng.coin() {
                    let size = [1, 2, 4, 4, 8, rng.next() as u8][rng.below(6)];
                    i = i.with_mem(MemRef {
                        addr: addr(rng),
                        size,
                    });
                }
                TraceRecord::Instr(i)
            }
        }
    }

    /// Encodes a random stream, returning the payload and the offset at
    /// which each record starts.
    fn random_payload(rng: &mut Rng, n: usize) -> (Vec<u8>, Vec<usize>) {
        let mut ctx = Ctx::default();
        let mut near = 0;
        let mut payload = Vec::new();
        let mut starts = Vec::with_capacity(n);
        for _ in 0..n {
            starts.push(payload.len());
            encode_record(&mut ctx, &random_record(rng, &mut near), &mut payload);
        }
        (payload, starts)
    }

    /// Decodes `payload` through [`ChunkDecoder::next_record`] and the
    /// checked path alone, asserting the same results, errors, offsets
    /// and state after every step — also past an error, where decoding
    /// continues from wherever the error left the cursor.
    fn assert_paths_agree(payload: &[u8]) {
        let mut fast = ChunkDecoder::new(payload);
        let mut checked = ChunkDecoder::new(payload);
        for step in 0..=payload.len() {
            let got = fast.next_record();
            let want = checked.next_record_checked();
            assert_eq!(got, want, "step {step} of {payload:02x?}");
            assert_eq!(
                (fast.pos(), &fast.ctx),
                (checked.pos(), &checked.ctx),
                "step {step} of {payload:02x?}"
            );
            if got == Ok(None) {
                return;
            }
        }
        panic!("every step consumes a byte, so {payload:02x?} must end");
    }

    /// How many records of a valid payload the fast path decodes, and
    /// how many there are.
    fn fast_path_share(payload: &[u8]) -> (usize, usize) {
        let mut dec = ChunkDecoder::new(payload);
        let (mut fast, mut total) = (0, 0);
        loop {
            if dec.next_instr_fast().is_some() {
                fast += 1;
            } else if dec.next_record_checked().unwrap().is_none() {
                return (fast, total);
            }
            total += 1;
        }
    }

    /// Where the first operand after an instruction record's pc varint
    /// sits.
    fn after_pc(payload: &[u8], start: usize) -> usize {
        let mut at = start + 2;
        while payload[at] & 0x80 != 0 {
            at += 1;
        }
        at + 1
    }

    #[test]
    fn fast_path_agrees_with_the_checked_decoder() {
        let mut rng = Rng(0xfade);
        let mut fast_records = 0;
        let mut total_records = 0;
        for case in 0..400 {
            let n = 1 + rng.below(64);
            let (payload, starts) = random_payload(&mut rng, n);
            assert_paths_agree(&payload);

            let (fast, total) = fast_path_share(&payload);
            fast_records += fast;
            total_records += total;

            // Byte flips.
            for _ in 0..8 {
                let mut m = payload.clone();
                for _ in 0..1 + rng.below(3) {
                    let at = rng.below(m.len());
                    m[at] ^= 1 + rng.below(255) as u8;
                }
                assert_paths_agree(&m);
            }
            // Truncation at every offset, on a share of the cases.
            if case % 8 == 0 {
                for cut in 0..payload.len() {
                    assert_paths_agree(&payload[..cut]);
                }
            }
            for &start in &starts {
                if payload[start] > 10 {
                    continue;
                }
                let flags = payload[start + 1];
                let operand = after_pc(&payload, start);
                // A register byte >= NUM_REGS.
                if flags & (F_SRC1 | F_SRC2 | F_DEST) != 0 {
                    let mut m = payload.clone();
                    m[operand] = (NUM_REGS + rng.below(256 - NUM_REGS)) as u8;
                    assert_paths_agree(&m);
                }
                // The flags byte with a tid or an explicit size forced.
                for force in [F_TID, F_MEM | (SIZE_EXPLICIT << SIZE_SHIFT)] {
                    let mut m = payload.clone();
                    m[start + 1] |= force;
                    assert_paths_agree(&m);
                }
                // The pc varint replaced by a non-canonical 4-byte one,
                // a valid 5-byte one, one too large for 32 bits and one
                // longer than 5 bytes.
                for pc in [
                    &[0x81, 0x80, 0x80, 0x00][..],
                    &[0x80, 0x80, 0x80, 0x80, 0x01],
                    &[0xff, 0xff, 0xff, 0xff, 0x7f],
                    &[0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
                ] {
                    let mut m = payload.clone();
                    m.splice(start + 2..operand, pc.iter().copied());
                    assert_paths_agree(&m);
                }
            }
        }
        // Short streams and far jumps keep most of these on the checked
        // path, but the fast path must still be exercised.
        assert!(
            fast_records * 10 > total_records,
            "the fast path decoded only {fast_records} of {total_records} records"
        );
    }

    #[test]
    fn fast_path_agrees_on_generated_traces() {
        for name in ["gcc", "water", "mcf", "astar-taint", "hmmer"] {
            let records = sample(name, 5_000);
            let mut payload = Vec::new();
            encode_chunk(&records, &mut payload);
            assert_paths_agree(&payload);
            // All but the instructions in the last window.
            let instrs = records
                .iter()
                .filter(|r| matches!(r, TraceRecord::Instr(_)))
                .count();
            let (fast, _) = fast_path_share(&payload);
            assert!(
                fast * 100 >= instrs * 99,
                "{name}: the fast path decoded only {fast} of {instrs} instructions"
            );
        }
    }

    /// CRC-32 one bit at a time: the definition the sliced tables
    /// must reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffff_u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xedb8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn sliced_crc32_matches_the_bitwise_definition() {
        let mut rng = Rng(0xc0c);
        let buf: Vec<u8> = (0..8192).map(|_| rng.next() as u8).collect();
        // Every length up to nine words, at every alignment.
        for len in 0..=72 {
            for start in 0..8 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "len {len} at {start}");
            }
        }
        for _ in 0..200 {
            let start = rng.below(64);
            let s = &buf[start..start + rng.below(buf.len() - start)];
            assert_eq!(crc32(s), crc32_bitwise(s), "len {}", s.len());
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
