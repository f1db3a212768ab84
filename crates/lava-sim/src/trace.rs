//! Trace containers: time-ordered VM create/exit events plus helpers used
//! for model training and simulator warm-up, [`TraceSource`] — the replay
//! [`EventSource`] over a materialised trace — and the compact binary trace
//! codec ([`Trace::to_binary`] / [`Trace::from_binary`], the streaming
//! [`BinaryTraceWriter`] / [`BinaryTraceSource`] pair).
//!
//! # Binary trace format (version 1)
//!
//! A fixed 25-byte header followed by varint-delta-encoded event records:
//!
//! ```text
//! header   := magic "LVTR" (4) | version u8 (=1) | pool u32 LE (4)
//!           | event_count u64 LE (8) | last_arrival u64 LE (8)
//! event    := tag u8 (0=Exit, 1=Create) | dt varint | dvm zigzag-varint
//!           | create_payload?           -- only when tag == 1
//! payload  := flags u8 | cpu_milli varint | memory_mib varint
//!           | ssd_gib varint | zone varint | category varint
//!           | metadata_id varint | lifetime varint
//! flags    := bit0 has_ssd | bit1 Spot | bits2-3 priority
//!           | bit4 admission_bypass | bit5 family==E2
//! ```
//!
//! `dt` is the time delta from the previous event (events are stored in
//! canonical order, so deltas are non-negative); `dvm` is the zigzag-coded
//! signed delta from the previous event's VM id. Varints are LEB128
//! (7 bits per byte, high bit = continuation). JSON remains the debug and
//! interchange format, read and written whole through the serde derive
//! ([`Trace::to_json`] / [`Trace::from_json`]); the binary format is the
//! at-scale one and the only codec written by hand — a 10M-event trace is
//! a few hundred MB of JSON but tens of MB of binary, and
//! [`BinaryTraceSource`] replays it in O(read-buffer) memory.

use lava_core::events::{TraceEvent, TraceEventKind};
use lava_core::pool::PoolId;
use lava_core::resources::Resources;
use lava_core::source::EventSource;
use lava_core::time::{Duration, SimTime};
use lava_core::vm::{ProvisioningModel, VmFamily, VmId, VmPriority, VmSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom, Write};

/// A time-ordered VM event trace for one pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    pool: PoolId,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Create a trace from events (they are sorted into canonical order).
    pub fn new(pool: PoolId, mut events: Vec<TraceEvent>) -> Trace {
        events.sort();
        Trace { pool, events }
    }

    /// The pool this trace belongs to.
    pub fn pool(&self) -> PoolId {
        self.pool
    }

    /// The events, in canonical order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of distinct VMs created in the trace.
    pub fn vm_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Create { .. }))
            .count()
    }

    /// The time of the last *creation* event (zero if there are none); used
    /// as the effective end of the arrival window.
    pub fn last_arrival_time(&self) -> SimTime {
        self.events
            .iter()
            .rev()
            .find(|e| matches!(e.kind, TraceEventKind::Create { .. }))
            .map(|e| e.time)
            .unwrap_or(SimTime::ZERO)
    }

    /// Completed `(spec, lifetime)` observations — the raw material for
    /// model training. Every create event yields one observation.
    pub fn observations(&self) -> Vec<(VmSpec, Duration)> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::Create { spec, lifetime, .. } => Some((spec.clone(), *lifetime)),
                _ => None,
            })
            .collect()
    }

    /// The creation records (id, spec, lifetime, created_at) of all VMs in
    /// the trace, keyed by id.
    pub fn creations(&self) -> BTreeMap<VmId, (VmSpec, Duration, SimTime)> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::Create { vm, spec, lifetime } => {
                    Some((*vm, (spec.clone(), *lifetime, e.time)))
                }
                _ => None,
            })
            .collect()
    }

    /// Restrict the trace to VMs created in `[start, end)`, keeping their
    /// exit events (wherever they fall). Used to carve A/B windows and the
    /// two one-month LARS intervals out of a longer trace.
    pub fn window(&self, start: SimTime, end: SimTime) -> Trace {
        let keep: std::collections::BTreeSet<VmId> = self
            .events
            .iter()
            .filter(|e| e.time >= start && e.time < end)
            .filter_map(|e| match &e.kind {
                TraceEventKind::Create { vm, .. } => Some(*vm),
                _ => None,
            })
            .collect();
        let events = self
            .events
            .iter()
            .filter(|e| keep.contains(&e.kind.vm()))
            .cloned()
            .collect();
        Trace::new(self.pool, events)
    }

    /// Serialise to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on failure.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserialise from a JSON string; the events are sorted into
    /// canonical order, so a hand-edited document replays like any other.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on failure.
    pub fn from_json(json: &str) -> Result<Trace, serde_json::Error> {
        let parsed: Trace = serde_json::from_str(json)?;
        Ok(Trace::new(parsed.pool, parsed.events))
    }

    /// A pull-based [`EventSource`] replaying this trace.
    pub fn source(&self) -> TraceSource<'_> {
        TraceSource::new(self)
    }

    /// Serialise to the compact binary format (see the module docs for the
    /// byte-level spec).
    pub fn to_binary(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.events.len() * 4);
        self.write_binary(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Parse a binary trace produced by [`Trace::to_binary`] /
    /// [`BinaryTraceWriter`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceCodecError`] on a bad magic, unsupported version,
    /// or truncated/corrupt payload — never panics on malformed input.
    pub fn from_binary(bytes: &[u8]) -> Result<Trace, TraceCodecError> {
        Trace::read_binary(bytes)
    }

    /// Stream the binary encoding to a writer in O(chunk) memory.
    ///
    /// # Errors
    ///
    /// Returns [`TraceCodecError::Io`] if the writer fails.
    pub fn write_binary<W: Write>(&self, writer: &mut W) -> Result<(), TraceCodecError> {
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4] = FORMAT_VERSION;
        header[5..9].copy_from_slice(&self.pool.0.to_le_bytes());
        header[9..17].copy_from_slice(&(self.events.len() as u64).to_le_bytes());
        header[17..25].copy_from_slice(&self.last_arrival_time().0.to_le_bytes());
        writer.write_all(&header)?;
        let mut buf = Vec::with_capacity(2 * CHUNK_LEN);
        let mut prev_time = SimTime::ZERO;
        let mut prev_vm = 0u64;
        for event in &self.events {
            encode_event(&mut buf, event, &mut prev_time, &mut prev_vm);
            if buf.len() >= CHUNK_LEN {
                writer.write_all(&buf)?;
                buf.clear();
            }
        }
        writer.write_all(&buf)?;
        Ok(())
    }

    /// Parse a binary trace from a reader (materialises the events; use
    /// [`BinaryTraceSource`] to replay without materialising).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceCodecError`] on I/O failure or malformed input.
    pub fn read_binary<R: Read>(reader: R) -> Result<Trace, TraceCodecError> {
        let mut source = BinaryTraceSource::new(reader)?;
        // The header's count is untrusted: reserve at most 4096 events
        // (288 KiB) up front and let the rest grow as events decode.
        let mut events = Vec::with_capacity(source.event_count().min(1 << 12) as usize);
        while let Some(event) = source.next_event() {
            events.push(event);
        }
        if let Some(err) = source.take_error() {
            return Err(err);
        }
        Ok(Trace::new(source.pool(), events))
    }
}

/// Replays a materialised [`Trace`] as a pull-based
/// [`EventSource`] — the streaming engine's view of recorded traffic.
///
/// Events are served in the trace's canonical order; the last arrival
/// time is known up front, so [`EventSource::last_arrival_time`] always
/// answers. `pending_len` reports the remaining (not yet replayed)
/// events: a replay source necessarily holds the whole trace in memory —
/// the O(pending VMs) footprint is what
/// [`StreamingWorkload`](crate::workload::StreamingWorkload) buys.
#[derive(Debug, Clone)]
pub struct TraceSource<'a> {
    events: &'a [TraceEvent],
    next: usize,
    last_arrival: SimTime,
}

impl<'a> TraceSource<'a> {
    /// Create a source replaying `trace` from the beginning.
    pub fn new(trace: &'a Trace) -> TraceSource<'a> {
        TraceSource {
            events: trace.events(),
            next: 0,
            last_arrival: trace.last_arrival_time(),
        }
    }
}

impl EventSource for TraceSource<'_> {
    fn next_event(&mut self) -> Option<TraceEvent> {
        let event = self.events.get(self.next).cloned();
        if event.is_some() {
            self.next += 1;
        }
        event
    }

    fn peek(&mut self) -> Option<&TraceEvent> {
        self.events.get(self.next)
    }

    fn last_arrival_time(&mut self) -> Option<SimTime> {
        Some(self.last_arrival)
    }

    fn pending_len(&self) -> usize {
        self.events.len() - self.next
    }
}

/// Magic bytes opening every binary trace.
pub const MAGIC: [u8; 4] = *b"LVTR";
/// Current binary trace format version.
pub const FORMAT_VERSION: u8 = 1;
const HEADER_LEN: usize = 25;
/// Byte offset of the `event_count` header field (patched by
/// [`BinaryTraceWriter::finish`]).
const COUNT_OFFSET: u64 = 9;
const CHUNK_LEN: usize = 64 * 1024;
const MAX_VARINT_LEN: u32 = 10;

const FLAG_HAS_SSD: u8 = 1 << 0;
const FLAG_SPOT: u8 = 1 << 1;
const PRIORITY_SHIFT: u8 = 2;
const PRIORITY_MASK: u8 = 0b11;
const FLAG_BYPASS: u8 = 1 << 4;
const FLAG_E2: u8 = 1 << 5;

/// Error raised by the binary trace codec.
#[derive(Debug)]
pub enum TraceCodecError {
    /// Underlying reader/writer failure.
    Io(std::io::Error),
    /// The input does not start with the `LVTR` magic.
    BadMagic,
    /// The version byte is not one this build understands.
    UnsupportedVersion(u8),
    /// Structurally invalid payload (truncated, out-of-range field, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for TraceCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceCodecError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceCodecError::BadMagic => write!(f, "not a binary trace (bad magic)"),
            TraceCodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported binary trace version {v}")
            }
            TraceCodecError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceCodecError {}

impl From<std::io::Error> for TraceCodecError {
    fn from(e: std::io::Error) -> TraceCodecError {
        TraceCodecError::Io(e)
    }
}

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn encode_event(buf: &mut Vec<u8>, event: &TraceEvent, prev_time: &mut SimTime, prev_vm: &mut u64) {
    let vm = event.kind.vm().0;
    match &event.kind {
        TraceEventKind::Exit { .. } => buf.push(0),
        TraceEventKind::Create { .. } => buf.push(1),
    }
    push_varint(buf, event.time.0 - prev_time.0);
    push_varint(buf, zigzag(vm.wrapping_sub(*prev_vm) as i64));
    if let TraceEventKind::Create { spec, lifetime, .. } = &event.kind {
        let mut flags = 0u8;
        if spec.has_ssd() {
            flags |= FLAG_HAS_SSD;
        }
        if spec.provisioning() == ProvisioningModel::Spot {
            flags |= FLAG_SPOT;
        }
        let priority = match spec.priority() {
            VmPriority::Preemptible => 0u8,
            VmPriority::Production => 1,
            VmPriority::System => 2,
        };
        flags |= priority << PRIORITY_SHIFT;
        if spec.admission_bypass() {
            flags |= FLAG_BYPASS;
        }
        if spec.family() == VmFamily::E2 {
            flags |= FLAG_E2;
        }
        buf.push(flags);
        let r = spec.resources();
        push_varint(buf, r.get(lava_core::resources::ResourceKind::Cpu));
        push_varint(buf, r.get(lava_core::resources::ResourceKind::Memory));
        push_varint(buf, r.get(lava_core::resources::ResourceKind::Ssd));
        push_varint(buf, spec.zone() as u64);
        push_varint(buf, spec.category() as u64);
        push_varint(buf, spec.metadata_id() as u64);
        push_varint(buf, lifetime.0);
    }
    *prev_time = event.time;
    *prev_vm = vm;
}

/// Buffered byte reader with codec-flavoured EOF errors.
struct ByteReader<R> {
    inner: R,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
}

impl<R: Read> ByteReader<R> {
    fn new(inner: R) -> ByteReader<R> {
        ByteReader {
            inner,
            buf: vec![0u8; CHUNK_LEN],
            pos: 0,
            len: 0,
        }
    }

    fn refill(&mut self) -> Result<bool, TraceCodecError> {
        self.pos = 0;
        self.len = self.inner.read(&mut self.buf)?;
        Ok(self.len > 0)
    }

    fn next(&mut self) -> Result<u8, TraceCodecError> {
        if self.pos == self.len && !self.refill()? {
            return Err(TraceCodecError::Corrupt("unexpected end of trace"));
        }
        let byte = self.buf[self.pos];
        self.pos += 1;
        Ok(byte)
    }

    fn read_exact(&mut self, out: &mut [u8]) -> Result<(), TraceCodecError> {
        for slot in out {
            *slot = self.next()?;
        }
        Ok(())
    }

    fn read_varint(&mut self) -> Result<u64, TraceCodecError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.next()?;
            if shift >= MAX_VARINT_LEN * 7 {
                return Err(TraceCodecError::Corrupt("varint overflow"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }
}

fn decode_event<R: Read>(
    reader: &mut ByteReader<R>,
    prev_time: &mut SimTime,
    prev_vm: &mut u64,
) -> Result<TraceEvent, TraceCodecError> {
    let tag = reader.next()?;
    let dt = reader.read_varint()?;
    let time = SimTime(
        prev_time
            .0
            .checked_add(dt)
            .ok_or(TraceCodecError::Corrupt("event time overflows"))?,
    );
    let vm = VmId(prev_vm.wrapping_add(unzigzag(reader.read_varint()?) as u64));
    let event = match tag {
        0 => TraceEvent::exit(time, vm),
        1 => {
            let flags = reader.next()?;
            let cpu = reader.read_varint()?;
            let memory = reader.read_varint()?;
            let ssd = reader.read_varint()?;
            let zone = field_u32(reader.read_varint()?, "zone")?;
            let category = field_u32(reader.read_varint()?, "category")?;
            let metadata_id = field_u32(reader.read_varint()?, "metadata_id")?;
            let lifetime = Duration(reader.read_varint()?);
            let priority = match (flags >> PRIORITY_SHIFT) & PRIORITY_MASK {
                0 => VmPriority::Preemptible,
                1 => VmPriority::Production,
                2 => VmPriority::System,
                _ => return Err(TraceCodecError::Corrupt("unknown priority bits")),
            };
            let spec = VmSpec::builder(Resources::new(cpu, memory, ssd))
                .family(if flags & FLAG_E2 != 0 {
                    VmFamily::E2
                } else {
                    VmFamily::C2
                })
                .zone(zone)
                .category(category)
                .metadata_id(metadata_id)
                .provisioning(if flags & FLAG_SPOT != 0 {
                    ProvisioningModel::Spot
                } else {
                    ProvisioningModel::OnDemand
                })
                .priority(priority)
                .admission_bypass(flags & FLAG_BYPASS != 0)
                .has_ssd(flags & FLAG_HAS_SSD != 0)
                .build();
            TraceEvent::create(time, vm, spec, lifetime)
        }
        _ => return Err(TraceCodecError::Corrupt("unknown event tag")),
    };
    *prev_time = time;
    *prev_vm = vm.0;
    Ok(event)
}

fn field_u32(v: u64, what: &'static str) -> Result<u32, TraceCodecError> {
    u32::try_from(v).map_err(|_| TraceCodecError::Corrupt(what))
}

/// Streaming [`EventSource`] over a binary trace — decodes events on
/// demand in O(read-buffer) memory, never materialising the trace.
///
/// The header carries the event count and last arrival time, so
/// [`EventSource::pending_len`] and [`EventSource::last_arrival_time`]
/// answer exactly without scanning ahead. A mid-stream decode error ends
/// the stream (`next_event` returns `None`); inspect it with
/// [`BinaryTraceSource::error`] / [`BinaryTraceSource::take_error`].
pub struct BinaryTraceSource<R> {
    reader: ByteReader<R>,
    pool: PoolId,
    total: u64,
    decoded: u64,
    prev_time: SimTime,
    prev_vm: u64,
    last_arrival: SimTime,
    lookahead: Option<TraceEvent>,
    error: Option<TraceCodecError>,
}

impl<R: Read> BinaryTraceSource<R> {
    /// Open a binary trace stream, validating the header.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceCodecError`] on a short/bad header or unsupported
    /// version.
    pub fn new(reader: R) -> Result<BinaryTraceSource<R>, TraceCodecError> {
        let mut reader = ByteReader::new(reader);
        let mut header = [0u8; HEADER_LEN];
        reader.read_exact(&mut header).map_err(|e| match e {
            TraceCodecError::Corrupt(_) => TraceCodecError::Corrupt("truncated header"),
            other => other,
        })?;
        if header[..4] != MAGIC {
            return Err(TraceCodecError::BadMagic);
        }
        if header[4] != FORMAT_VERSION {
            return Err(TraceCodecError::UnsupportedVersion(header[4]));
        }
        let pool = PoolId(u32::from_le_bytes(header[5..9].try_into().unwrap()));
        let total = u64::from_le_bytes(header[9..17].try_into().unwrap());
        let last_arrival = SimTime(u64::from_le_bytes(header[17..25].try_into().unwrap()));
        let mut source = BinaryTraceSource {
            reader,
            pool,
            total,
            decoded: 0,
            prev_time: SimTime::ZERO,
            prev_vm: 0,
            last_arrival,
            lookahead: None,
            error: None,
        };
        source.advance();
        Ok(source)
    }

    /// The pool id recorded in the header.
    pub fn pool(&self) -> PoolId {
        self.pool
    }

    /// The total event count recorded in the header.
    pub fn event_count(&self) -> u64 {
        self.total
    }

    /// The decode error that ended the stream early, if any.
    pub fn error(&self) -> Option<&TraceCodecError> {
        self.error.as_ref()
    }

    /// Take the decode error that ended the stream early, if any.
    pub fn take_error(&mut self) -> Option<TraceCodecError> {
        self.error.take()
    }

    fn advance(&mut self) {
        if self.error.is_some() || self.decoded == self.total {
            self.lookahead = None;
            return;
        }
        match decode_event(&mut self.reader, &mut self.prev_time, &mut self.prev_vm) {
            Ok(event) => {
                self.decoded += 1;
                self.lookahead = Some(event);
            }
            Err(err) => {
                self.error = Some(err);
                self.lookahead = None;
            }
        }
    }
}

impl<R: Read> EventSource for BinaryTraceSource<R> {
    fn next_event(&mut self) -> Option<TraceEvent> {
        let event = self.lookahead.take();
        if event.is_some() {
            self.advance();
        }
        event
    }

    fn peek(&mut self) -> Option<&TraceEvent> {
        self.lookahead.as_ref()
    }

    fn last_arrival_time(&mut self) -> Option<SimTime> {
        Some(self.last_arrival)
    }

    fn pending_len(&self) -> usize {
        (self.total - self.decoded) as usize + usize::from(self.lookahead.is_some())
    }
}

/// Incremental binary trace writer — push events in canonical order, then
/// [`finish`](BinaryTraceWriter::finish) patches the header counts. Needs
/// `Seek` for the patch; memory stays O(chunk) regardless of trace length.
pub struct BinaryTraceWriter<W> {
    writer: W,
    buf: Vec<u8>,
    count: u64,
    last_arrival: SimTime,
    prev_time: SimTime,
    prev_vm: u64,
    prev_key: Option<(SimTime, u8, VmId)>,
}

impl<W: Write + Seek> BinaryTraceWriter<W> {
    /// Start a binary trace for `pool`, writing a placeholder header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceCodecError::Io`] if the writer fails.
    pub fn new(mut writer: W, pool: PoolId) -> Result<BinaryTraceWriter<W>, TraceCodecError> {
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4] = FORMAT_VERSION;
        header[5..9].copy_from_slice(&pool.0.to_le_bytes());
        writer.write_all(&header)?;
        Ok(BinaryTraceWriter {
            writer,
            buf: Vec::with_capacity(2 * CHUNK_LEN),
            count: 0,
            last_arrival: SimTime::ZERO,
            prev_time: SimTime::ZERO,
            prev_vm: 0,
            prev_key: None,
        })
    }

    /// Append one event; events must arrive in canonical trace order.
    ///
    /// # Errors
    ///
    /// Returns [`TraceCodecError::Corrupt`] on an out-of-order event and
    /// [`TraceCodecError::Io`] if the writer fails.
    pub fn push(&mut self, event: &TraceEvent) -> Result<(), TraceCodecError> {
        let key = event.sort_key();
        if let Some(prev) = self.prev_key {
            if key < prev {
                return Err(TraceCodecError::Corrupt("events pushed out of order"));
            }
        }
        self.prev_key = Some(key);
        encode_event(&mut self.buf, event, &mut self.prev_time, &mut self.prev_vm);
        self.count += 1;
        if matches!(event.kind, TraceEventKind::Create { .. }) {
            self.last_arrival = event.time;
        }
        if self.buf.len() >= CHUNK_LEN {
            self.writer.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Number of events pushed so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True if no events have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Flush, patch the header's event count and last arrival time, and
    /// return the underlying writer (positioned at the end of the trace).
    ///
    /// # Errors
    ///
    /// Returns [`TraceCodecError::Io`] if the writer fails.
    pub fn finish(mut self) -> Result<W, TraceCodecError> {
        self.writer.write_all(&self.buf)?;
        self.buf.clear();
        self.writer.seek(SeekFrom::Start(COUNT_OFFSET))?;
        self.writer.write_all(&self.count.to_le_bytes())?;
        self.writer.write_all(&self.last_arrival.0.to_le_bytes())?;
        self.writer.seek(SeekFrom::End(0))?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lava_core::resources::Resources;

    fn spec(category: u32) -> VmSpec {
        VmSpec::builder(Resources::cores_gib(2, 8))
            .category(category)
            .build()
    }

    fn sample_trace() -> Trace {
        let events = vec![
            TraceEvent::create(SimTime(100), VmId(1), spec(1), Duration::from_hours(1)),
            TraceEvent::exit(SimTime(100 + 3600), VmId(1)),
            TraceEvent::create(SimTime(200), VmId(2), spec(2), Duration::from_hours(10)),
            TraceEvent::exit(SimTime(200 + 36_000), VmId(2)),
            TraceEvent::create(SimTime(5000), VmId(3), spec(1), Duration::from_hours(2)),
            TraceEvent::exit(SimTime(5000 + 7200), VmId(3)),
        ];
        Trace::new(PoolId(3), events)
    }

    #[test]
    fn counts_and_times() {
        let t = sample_trace();
        assert_eq!(t.pool(), PoolId(3));
        assert_eq!(t.vm_count(), 3);
        assert_eq!(t.events().last().unwrap().time, SimTime(200 + 36_000));
        assert_eq!(t.last_arrival_time(), SimTime(5000));
        assert_eq!(t.events().len(), 6);
    }

    #[test]
    fn observations_and_creations() {
        let t = sample_trace();
        let obs = t.observations();
        assert_eq!(obs.len(), 3);
        assert_eq!(obs[0].1, Duration::from_hours(1));
        let creations = t.creations();
        assert_eq!(creations.len(), 3);
        assert_eq!(creations[&VmId(2)].2, SimTime(200));
    }

    #[test]
    fn window_keeps_exits_of_selected_vms() {
        let t = sample_trace();
        let w = t.window(SimTime(150), SimTime(4000));
        // Only VM 2 was created in the window; its exit is retained.
        assert_eq!(w.vm_count(), 1);
        assert_eq!(w.events().len(), 2);
        assert_eq!(w.events()[0].kind.vm(), VmId(2));
    }

    #[test]
    fn json_roundtrip() {
        let t = sample_trace();
        let json = t.to_json().unwrap();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn trace_source_replays_in_canonical_order() {
        let t = sample_trace();
        let mut source = t.source();
        assert_eq!(source.pending_len(), 6);
        assert_eq!(source.last_arrival_time(), Some(SimTime(5000)));
        assert_eq!(source.peek(), Some(&t.events()[0]));
        let replayed: Vec<_> = std::iter::from_fn(|| source.next_event()).collect();
        assert_eq!(replayed, t.events());
        assert_eq!(source.pending_len(), 0);
        assert_eq!(source.peek(), None);
        assert_eq!(source.next_event(), None);
    }

    #[test]
    fn empty_trace_defaults() {
        let t = Trace::new(PoolId(0), vec![]);
        assert_eq!(t.vm_count(), 0);
        assert_eq!(t.last_arrival_time(), SimTime::ZERO);
        assert!(t.observations().is_empty());
    }

    fn fancy_trace() -> Trace {
        // Exercise every encoded field: spot/priority/bypass/family/ssd,
        // large sparse ids (spill range) and equal-time orderings.
        let spec_a = VmSpec::builder(Resources::new(8_000, 32 * 1024, 375))
            .family(VmFamily::E2)
            .zone(7)
            .category(42)
            .metadata_id(999)
            .provisioning(ProvisioningModel::Spot)
            .priority(VmPriority::System)
            .admission_bypass(true)
            .build();
        let spec_b = VmSpec::builder(Resources::cores_gib(2, 8))
            .priority(VmPriority::Preemptible)
            .build();
        let events = vec![
            TraceEvent::create(SimTime(0), VmId(5), spec_a, Duration::from_hours(3)),
            TraceEvent::create(SimTime(0), VmId(1 << 50), spec_b.clone(), Duration(17)),
            TraceEvent::exit(SimTime(17), VmId(1 << 50)),
            TraceEvent::create(SimTime(17), VmId(2), spec_b, Duration(1)),
            TraceEvent::exit(SimTime(18), VmId(2)),
            TraceEvent::exit(SimTime(10_800), VmId(5)),
        ];
        Trace::new(PoolId(9), events)
    }

    #[test]
    fn binary_roundtrip_preserves_every_field() {
        for t in [sample_trace(), fancy_trace(), Trace::new(PoolId(0), vec![])] {
            let bytes = t.to_binary();
            assert_eq!(&bytes[..4], b"LVTR");
            assert_eq!(bytes[4], FORMAT_VERSION);
            let back = Trace::from_binary(&bytes).unwrap();
            assert_eq!(t, back);
            // JSON and binary agree with each other.
            assert_eq!(Trace::from_json(&t.to_json().unwrap()).unwrap(), back);
        }
    }

    #[test]
    fn binary_source_streams_with_exact_metadata() {
        let t = fancy_trace();
        let bytes = t.to_binary();
        let mut source = BinaryTraceSource::new(&bytes[..]).unwrap();
        assert_eq!(source.pool(), PoolId(9));
        assert_eq!(source.event_count(), 6);
        assert_eq!(source.pending_len(), 6);
        assert_eq!(source.last_arrival_time(), Some(t.last_arrival_time()));
        assert_eq!(source.peek(), Some(&t.events()[0]));
        let replayed: Vec<_> = std::iter::from_fn(|| source.next_event()).collect();
        assert_eq!(replayed, t.events());
        assert_eq!(source.pending_len(), 0);
        assert!(source.error().is_none());
    }

    #[test]
    fn binary_writer_matches_one_shot_encoding() {
        let t = fancy_trace();
        let mut writer =
            BinaryTraceWriter::new(std::io::Cursor::new(Vec::new()), t.pool()).unwrap();
        assert!(writer.is_empty());
        for e in t.events() {
            writer.push(e).unwrap();
        }
        assert_eq!(writer.len(), 6);
        let bytes = writer.finish().unwrap().into_inner();
        assert_eq!(bytes, t.to_binary());
    }

    #[test]
    fn binary_writer_rejects_out_of_order_events() {
        let mut writer =
            BinaryTraceWriter::new(std::io::Cursor::new(Vec::new()), PoolId(0)).unwrap();
        writer
            .push(&TraceEvent::exit(SimTime(10), VmId(1)))
            .unwrap();
        let err = writer
            .push(&TraceEvent::exit(SimTime(5), VmId(1)))
            .unwrap_err();
        assert!(matches!(err, TraceCodecError::Corrupt(_)));
    }

    #[test]
    fn corrupt_binary_inputs_error_cleanly() {
        let good = sample_trace().to_binary();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Trace::from_binary(&bad_magic),
            Err(TraceCodecError::BadMagic)
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(matches!(
            Trace::from_binary(&bad_version),
            Err(TraceCodecError::UnsupportedVersion(99))
        ));

        assert!(matches!(
            Trace::from_binary(&good[..10]),
            Err(TraceCodecError::Corrupt("truncated header"))
        ));

        // Truncated body: header promises more events than the bytes hold.
        let truncated = &good[..good.len() - 3];
        assert!(matches!(
            Trace::from_binary(truncated),
            Err(TraceCodecError::Corrupt(_))
        ));

        assert!(Trace::from_binary(&[]).is_err());
    }
}
