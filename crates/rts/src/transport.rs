//! Pluggable message transport between locations.
//!
//! A [`Transport`] is one location's endpoint of the message fabric: it
//! owns the per-destination staging buffers (the aggregation layer), the
//! channel sends that flush them, and the inbound queue that [`poll`]
//! drains. Everything *around* the transport stays in the `Location`
//! shell — the `sent`/`handled` quiescence counters the fence runs on,
//! the stats/trace instrumentation, and per-(src, dest) FIFO ordering by
//! construction (one staging buffer per destination, one channel per
//! receiver) — so every backend inherits the paper's ordering and
//! completion semantics unchanged.
//!
//! [`poll`]: crate::Location::poll
//!
//! Two backends implement the trait:
//!
//! * [`ClosureTransport`] (the default) stages requests as the boxed
//!   closures higher layers hand in and ships `Vec<Request>` batches —
//!   bit-identical to the pre-trait runtime, with zero marshalling.
//! * [`SerializedTransport`] encodes every request/response into a byte
//!   **wire frame** and ships concatenated frame buffers. Container-level
//!   code never sees the encoding: the `Location` RMI primitives stage a
//!   frame instead of a box, and delivery decodes and invokes through a
//!   handler registry. This backend also implements the **reliable
//!   delivery protocol** below, so it keeps its exactly-once / FIFO
//!   contract even over a lossy fabric (see [`crate::fault`]).
//!
//! ## Wire format (version 2)
//!
//! A frame is `kind:u8 | handler:u32 | len:u32 | crc:u32 | payload[len]`
//! (all little-endian, via the vendored `wirecodec`). `crc` is the
//! CRC-32/IEEE checksum of the rest of the frame (header fields and
//! payload, skipping the checksum field itself); a frame whose checksum
//! does not verify is **rejected before any byte of it is decoded**.
//! `kind` is a [`WireKind`] — async / sync-request / response /
//! bulk-range / segment / control. `handler` indexes a process-wide
//! registry mapping each concrete closure type to a deserialization thunk
//! (`fn(&[u8], &Location)`), the stand-in for the linker-section handler
//! registration a real ARMI performs; ids are assigned on first use and
//! are only meaningful within one process.
//!
//! A flushed batch is one [`WireKind::Control`] frame followed by `nreqs`
//! request/response frames. The control payload is
//! `version:u8 | src:u32 | nreqs:u32 | seq:u64 | ack:u64 | flags:u8`:
//! `seq` is the batch's per-(src, dest) sequence number (data batches
//! count from 1; `seq == 0` marks a standalone pure-ack batch), `ack`
//! piggybacks the highest sequence number the sender has contiguously
//! received *from* the destination, and `flags` marks retransmissions.
//!
//! ## Reliable delivery
//!
//! The serialized backend assumes the fabric may drop, duplicate,
//! reorder, or corrupt batches (the socket backend of ROADMAP item 1
//! will; [`crate::fault::FaultyTransport`] injects exactly those faults
//! deterministically for testing). Recovery is a classic cumulative-ack
//! sliding protocol, per (src, dest) pair:
//!
//! * every flushed data batch is **retained** by the sender until acked;
//!   a retransmit timer ([`crate::RtsConfig::retransmit_rto_us`]) resends
//!   it with exponential backoff and deterministic jitter;
//! * the receiver verifies **every frame checksum before executing
//!   anything**; a corrupt batch is discarded un-acked (the retransmit
//!   recovers it), a duplicate is discarded re-acked, and an early batch
//!   waits in a reorder stash until the sequence gap fills — restoring
//!   the FIFO contract;
//! * acks are cumulative, piggybacked on reverse-direction data batches
//!   and sent standalone on delivery. Acks and retransmissions are never
//!   fault-injected, which keeps recovery live and deterministic.
//!
//! The payload of a request frame is the closure's in-memory
//! representation: encoding **relocates** the value byte-for-byte into the
//! frame (a Rust move is a byte copy; the original is `mem::forget`-ten),
//! and the thunk reconstructs it at the destination. Exactly one
//! execution completes the move; every other byte image of the frame (a
//! retained retransmit copy, a discarded duplicate, an injected-corrupt
//! copy) is dropped as raw bytes and never runs destructors. This is the
//! shared-memory-transport semantics — captured heap payloads (a `Vec`'s
//! buffer, an `Rc`'d slab) travel by pointer, valid across threads of one
//! process because every staged closure is `Send`. A socket backend will
//! additionally need a deep encode of captures and deterministic handler
//! ids; both are deliberately out of scope here (see DESIGN.md
//! "Pluggable transport").
//!
//! ## Accounting contract
//!
//! `bytes_sent` / `messages_serialized` / `serialize_ns` are bumped by the
//! `Location` shell at encode time, so they are attributed per-location
//! like every other counter and stay **deterministic** for a deterministic
//! scenario (control frames, acks, and retransmissions are excluded from
//! `bytes_sent` precisely because flush and retry counts are
//! timing-dependent). The endpoint never touches counters directly: it
//! accumulates reliability events ([`TransportEvents`]) that the shell
//! reaps into stats, traces, and the fence's acked-frame accounting. A
//! staged-but-never-flushed frame is the sole owner of its relocated
//! capture, so [`SerializedTransport`]'s `Drop` reconstructs and drops
//! such frames through the handler registry instead of leaking them when
//! an execution aborts by panic.

use std::any::TypeId;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::mem::{self, MaybeUninit};
use std::sync::{OnceLock, RwLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};
use wirecodec::{Crc32, Reader, UnexpectedEof, Writer};

use crate::config::RtsConfig;
use crate::fault::{mix64, FaultyTransport};
use crate::location::{LocId, Location, Request};

/// Which transport backend an execution uses ([`crate::RtsConfig::transport`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Boxed closures through in-process channels (default; no marshalling).
    Closure,
    /// Byte-encoded wire frames through per-location byte queues.
    Serialized,
}

/// Wire-level classification of a frame, the first byte of its header.
/// Advisory for in-process delivery (every request frame dispatches through
/// its handler id); load-bearing for the future socket backend's dispatch
/// and for per-kind traffic accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum WireKind {
    /// A fire-and-forget `async_rmi` request.
    Async = 0,
    /// A sync / split-phase request that will send a response.
    Sync = 1,
    /// A response completing a reply slot.
    Response = 2,
    /// A bulk-range payload (tagged via `note_bulk_request`).
    Bulk = 3,
    /// A dynamic-container segment payload (tagged via
    /// `note_segment_request`).
    Segment = 4,
    /// A control frame: the batch header carrying source, count, and the
    /// sequence/ack fields of the reliable-delivery protocol. Collective
    /// and fence *signaling* stays on the shared-memory control plane
    /// in-process; this variant carries the wire-level bookkeeping.
    Control = 5,
}

impl WireKind {
    fn from_u8(v: u8) -> Option<WireKind> {
        Some(match v {
            0 => WireKind::Async,
            1 => WireKind::Sync,
            2 => WireKind::Response,
            3 => WireKind::Bulk,
            4 => WireKind::Segment,
            5 => WireKind::Control,
            _ => return None,
        })
    }
}

/// One decoded frame of the serialized wire format. Produced by
/// [`read_frame`] for delivery and by tests inspecting the encoding.
pub(crate) struct WireMessage<'a> {
    pub kind: WireKind,
    pub handler: u32,
    pub payload: &'a [u8],
}

/// Bytes of a frame header: kind (1) + handler id (4) + payload len (4) +
/// CRC-32 checksum (4).
pub(crate) const FRAME_HEADER_BYTES: usize = 13;

/// Offset of the checksum field within a frame header.
const FRAME_CRC_OFFSET: usize = 9;

/// Bytes of a control frame's payload: version (1) + src (4) + nreqs (4)
/// + seq (8) + ack (8) + flags (1).
pub(crate) const CONTROL_PAYLOAD_BYTES: usize = 26;

/// Wire-format version carried in every control frame. Version 2 added
/// the per-frame checksum and the seq/ack reliability fields.
pub(crate) const WIRE_VERSION: u8 = 2;

/// Control-frame flag: this batch is a retransmission of an earlier
/// sequence number (fault injectors pass retransmissions through).
pub(crate) const FLAG_RETRANSMIT: u8 = 1;

/// Why a wire frame or batch was rejected instead of decoded. Every
/// variant feeds the `checksum_failures` recovery path: the batch is
/// discarded un-acked and the sender's retransmit timer re-delivers it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum WireError {
    /// The buffer ended before a header field or payload.
    Truncated(UnexpectedEof),
    /// The kind byte is not a [`WireKind`].
    UnknownKind(u8),
    /// The frame's CRC-32 does not match its contents.
    Checksum { stored: u32, computed: u32 },
    /// The control frame carries an unsupported wire-format version.
    Version(u8),
    /// The batch structure is inconsistent (bad control frame, trailing
    /// bytes, or an envelope/header mismatch).
    Header(&'static str),
}

impl From<UnexpectedEof> for WireError {
    fn from(e: UnexpectedEof) -> Self {
        WireError::Truncated(e)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated(e) => write!(f, "truncated wire frame: {e}"),
            WireError::UnknownKind(v) => write!(f, "unknown wire kind {v}"),
            WireError::Checksum { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WireError::Version(v) => {
                write!(f, "unsupported wire version {v} (this runtime speaks {WIRE_VERSION})")
            }
            WireError::Header(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The decoded payload of a batch's control frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BatchControl {
    pub src: usize,
    pub nreqs: usize,
    /// Per-(src, dest) batch sequence number; data batches count from 1,
    /// `0` marks a standalone pure-ack batch.
    pub seq: u64,
    /// Cumulative ack: the highest seq contiguously received from the
    /// destination of this batch.
    pub ack: u64,
    pub flags: u8,
}

// ---------------------------------------------------------------------
// Handler registry: concrete closure type -> deserialization thunk
// ---------------------------------------------------------------------

type Thunk = fn(&[u8], &Location);
type DropThunk = fn(&[u8]);

#[derive(Default)]
struct HandlerTable {
    ids: HashMap<TypeId, u32>,
    thunks: Vec<Thunk>,
    /// Parallel to `thunks`: reconstructs the closure from its relocated
    /// bytes and drops it without invoking, for undelivered-frame cleanup.
    drops: Vec<DropThunk>,
}

fn handlers() -> &'static RwLock<HandlerTable> {
    static TABLE: OnceLock<RwLock<HandlerTable>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(HandlerTable::default()))
}

/// Returns (registering on first use) the handler id of closure type `F`.
fn handler_id_of<F: FnOnce(&Location) + Send + 'static>() -> u32 {
    let key = TypeId::of::<F>();
    if let Some(&id) = handlers().read().expect("handler table poisoned").ids.get(&key) {
        return id;
    }
    let mut table = handlers().write().expect("handler table poisoned");
    if let Some(&id) = table.ids.get(&key) {
        return id; // lost the registration race; another thread won
    }
    let id = u32::try_from(table.thunks.len()).expect("handler table overflow");
    table.thunks.push(invoke_thunk::<F>);
    table.drops.push(drop_thunk::<F>);
    table.ids.insert(key, id);
    id
}

fn thunk_of(id: u32) -> Thunk {
    let table = handlers().read().expect("handler table poisoned");
    table.thunks.get(id as usize).copied().unwrap_or_else(|| {
        panic!(
            "stapl-rts: wire frame references unregistered handler id {id} \
             (only {} handlers registered in this process — frames are not \
             portable across processes)",
            table.thunks.len()
        )
    })
}

fn drop_of(id: u32) -> DropThunk {
    let table = handlers().read().expect("handler table poisoned");
    table.drops.get(id as usize).copied().unwrap_or_else(|| {
        panic!(
            "stapl-rts: undelivered wire frame references unregistered handler id {id} \
             (only {} handlers registered in this process)",
            table.drops.len()
        )
    })
}

/// Reconstructs an `F` from its relocated bytes and invokes it.
fn invoke_thunk<F: FnOnce(&Location) + Send + 'static>(payload: &[u8], loc: &Location) {
    assert_eq!(
        payload.len(),
        mem::size_of::<F>(),
        "stapl-rts: wire payload size does not match handler `{}`",
        std::any::type_name::<F>()
    );
    // SAFETY: the payload is the byte image of an `F` that was moved into
    // a frame by `encode_frame` (which forgot the original), in this same
    // address space; copying it into an aligned slot and assuming init is
    // the completion of that move. `F: Send` licenses the thread crossing.
    let f = unsafe {
        let mut slot = MaybeUninit::<F>::uninit();
        std::ptr::copy_nonoverlapping(
            payload.as_ptr(),
            slot.as_mut_ptr() as *mut u8,
            payload.len(),
        );
        slot.assume_init()
    };
    f(loc);
}

/// Reconstructs an `F` from its relocated bytes and drops it unexecuted.
fn drop_thunk<F: FnOnce(&Location) + Send + 'static>(payload: &[u8]) {
    debug_assert_eq!(payload.len(), mem::size_of::<F>());
    // SAFETY: same relocation-completion argument as `invoke_thunk`; the
    // reconstructed value is dropped instead of called, running the
    // capture's destructors exactly once.
    unsafe {
        let mut slot = MaybeUninit::<F>::uninit();
        std::ptr::copy_nonoverlapping(
            payload.as_ptr(),
            slot.as_mut_ptr() as *mut u8,
            payload.len(),
        );
        drop(slot.assume_init());
    }
}

/// Encodes `f` as one wire frame appended to `buf`; returns the frame's
/// size in bytes (header included). Ownership of `f` moves into the frame.
pub(crate) fn encode_frame<F: FnOnce(&Location) + Send + 'static>(
    buf: &mut Vec<u8>,
    kind: WireKind,
    f: F,
) -> usize {
    let start = buf.len();
    let size = mem::size_of::<F>();
    let mut w = Writer::new(buf);
    w.u8(kind as u8);
    w.u32(handler_id_of::<F>());
    w.u32(u32::try_from(size).expect("closure capture exceeds u32 frame length"));
    w.u32(0); // checksum, patched once the payload is in place
    // SAFETY: reading `size_of::<F>()` bytes from a live `F` is reading its
    // object representation; the subsequent `forget` makes this the move.
    unsafe {
        w.raw(std::slice::from_raw_parts(&f as *const F as *const u8, size));
    }
    mem::forget(f);
    let end = buf.len();
    patch_frame_crc(buf, start, end);
    end - start
}

/// Appends a control frame carrying the batch header and reliability
/// fields to `buf`.
pub(crate) fn encode_control(
    buf: &mut Vec<u8>,
    src: LocId,
    nreqs: usize,
    seq: u64,
    ack: u64,
    flags: u8,
) {
    let start = buf.len();
    let mut w = Writer::new(buf);
    w.u8(WireKind::Control as u8);
    w.u32(0); // control frames carry no handler
    w.u32(CONTROL_PAYLOAD_BYTES as u32);
    w.u32(0); // checksum, patched below
    w.u8(WIRE_VERSION);
    w.u32(u32::try_from(src).expect("location id fits u32"));
    w.u32(u32::try_from(nreqs).expect("batch request count fits u32"));
    w.u64(seq);
    w.u64(ack);
    w.u8(flags);
    let end = buf.len();
    patch_frame_crc(buf, start, end);
}

/// Computes and stores the checksum of the frame at `buf[start..end]`:
/// CRC-32 over the header-before-crc and the payload.
fn patch_frame_crc(buf: &mut [u8], start: usize, end: usize) {
    let crc = Crc32::new()
        .update(&buf[start..start + FRAME_CRC_OFFSET])
        .update(&buf[start + FRAME_HEADER_BYTES..end])
        .finish();
    buf[start + FRAME_CRC_OFFSET..start + FRAME_HEADER_BYTES]
        .copy_from_slice(&crc.to_le_bytes());
}

/// Sets the retransmit flag on a fully-encoded batch (whose first frame
/// is its control frame) and re-seals the control frame's checksum.
pub(crate) fn mark_retransmit(bytes: &mut [u8]) {
    let control_end = FRAME_HEADER_BYTES + CONTROL_PAYLOAD_BYTES;
    bytes[control_end - 1] |= FLAG_RETRANSMIT;
    patch_frame_crc(bytes, 0, control_end);
}

/// Reads and checksum-verifies one frame at the reader's position. The
/// frame's bytes are untouched on error (beyond the reader's position).
pub(crate) fn read_frame<'a>(r: &mut Reader<'a>) -> Result<WireMessage<'a>, WireError> {
    let kind_byte = r.u8()?;
    let kind = WireKind::from_u8(kind_byte).ok_or(WireError::UnknownKind(kind_byte))?;
    let handler = r.u32()?;
    let len = r.u32()?;
    let stored = r.u32()?;
    let payload = r.raw(len as usize)?;
    let computed = Crc32::new()
        .update(&[kind_byte])
        .update(&handler.to_le_bytes())
        .update(&len.to_le_bytes())
        .update(payload)
        .finish();
    if computed != stored {
        return Err(WireError::Checksum { stored, computed });
    }
    Ok(WireMessage { kind, handler, payload })
}

/// Decodes a control frame's payload.
pub(crate) fn read_control(msg: &WireMessage<'_>) -> Result<BatchControl, WireError> {
    if msg.kind != WireKind::Control {
        return Err(WireError::Header("batch must start with a control frame"));
    }
    let mut r = Reader::new(msg.payload);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::Version(version));
    }
    let src = r.u32()? as usize;
    let nreqs = r.u32()? as usize;
    let seq = r.u64()?;
    let ack = r.u64()?;
    let flags = r.u8()?;
    if !r.is_empty() {
        return Err(WireError::Header("control frame payload has trailing bytes"));
    }
    Ok(BatchControl { src, nreqs, seq, ack, flags })
}

/// Verifies a whole byte batch — control frame plus every request frame's
/// checksum and framing — **without decoding or executing anything**.
/// Delivery runs this before the first thunk so a corrupt batch is
/// rejected atomically (no partial execution).
pub(crate) fn verify_batch(bytes: &[u8]) -> Result<BatchControl, WireError> {
    let mut r = Reader::new(bytes);
    let ctrl = read_control(&read_frame(&mut r)?)?;
    for _ in 0..ctrl.nreqs {
        read_frame(&mut r)?;
    }
    if !r.is_empty() {
        return Err(WireError::Header("trailing bytes after the last frame of a batch"));
    }
    Ok(ctrl)
}

/// Walks a byte batch's frames and invokes `each` for every
/// request/response frame, in order. `expect_src`/`expect_n` come from the
/// channel-level [`Batch`] envelope and must agree with the wire header.
pub(crate) fn decode_batch(
    bytes: &[u8],
    expect_src: LocId,
    expect_n: usize,
    mut each: impl FnMut(WireMessage<'_>, Thunk),
) -> Result<(), WireError> {
    let mut r = Reader::new(bytes);
    let ctrl = read_control(&read_frame(&mut r)?)?;
    if ctrl.src != expect_src {
        return Err(WireError::Header("control frame source mismatch"));
    }
    if ctrl.nreqs != expect_n {
        return Err(WireError::Header("control frame request-count mismatch"));
    }
    for _ in 0..ctrl.nreqs {
        let msg = read_frame(&mut r)?;
        let thunk = thunk_of(msg.handler);
        each(msg, thunk);
    }
    if !r.is_empty() {
        return Err(WireError::Header("trailing bytes after the last frame of a batch"));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Channel payloads
// ---------------------------------------------------------------------

/// What one flush ships through a channel.
pub(crate) enum Payload {
    /// Boxed closures, executed directly at the destination.
    Closures(Vec<Request>),
    /// A control frame followed by concatenated wire frames.
    Frames { bytes: Vec<u8>, nreqs: usize },
}

/// One message batch between a (source, destination) pair.
pub(crate) struct Batch {
    pub src: LocId,
    pub dest: LocId,
    pub payload: Payload,
}

impl Batch {
    /// Number of requests carried (the unit of the node model's per-message
    /// delay and of the `handled` counter).
    pub(crate) fn len(&self) -> usize {
        match &self.payload {
            Payload::Closures(reqs) => reqs.len(),
            Payload::Frames { nreqs, .. } => *nreqs,
        }
    }
}

/// A request staged toward a destination: the backend-specific
/// representation chosen by the `Location` shell after consulting
/// [`Transport::serializes`].
pub(crate) enum Staged<'a> {
    Closure(Request),
    /// One already-encoded wire frame (scratch-buffer bytes; the endpoint
    /// copies them into its per-destination buffer).
    Frame(&'a [u8]),
}

/// What [`Transport::stage`] tells the shell about the staging buffer.
pub(crate) struct StageOutcome {
    /// The staged request is the first in its destination's buffer (drives
    /// the adaptive-flush age bookkeeping).
    pub first_in_buffer: bool,
    /// The buffer reached the aggregation threshold; the caller flushes.
    pub flush_now: bool,
}

/// What one flush shipped; `None` when the buffer was empty.
pub(crate) struct FlushInfo {
    pub nreqs: usize,
    /// Bytes pushed into the channel (0 on the closure backend).
    pub bytes: usize,
}

/// Reliability events accumulated inside an endpoint since the last reap.
/// The `Location` shell drains these (see `reap_transport_events`) into
/// stats counters, trace events, and the fence's acked-frame accounting,
/// preserving the rule that the endpoint itself never touches counters.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TransportEvents {
    /// Frames lost to injected damage: fault-injected drops and
    /// corrupt-batch rejections (counted in frames, not batches).
    pub frames_dropped: u64,
    /// Frames of duplicate batches discarded by the dedup window.
    pub duplicates_discarded: u64,
    /// Batches re-sent by the retransmit timer.
    pub retransmits: u64,
    /// Batches rejected by wire validation (checksum/framing) before any
    /// frame was decoded.
    pub checksum_failures: u64,
    /// Standalone pure-ack batches sent.
    pub acks_sent: u64,
    /// Frames newly covered by a cumulative ack (the fence's quiescence
    /// check requires `acked == sent` on acked-tracking backends).
    pub frames_acked: u64,
}

#[derive(Default)]
struct EventCells {
    frames_dropped: Cell<u64>,
    duplicates_discarded: Cell<u64>,
    retransmits: Cell<u64>,
    checksum_failures: Cell<u64>,
    acks_sent: Cell<u64>,
    frames_acked: Cell<u64>,
}

impl EventCells {
    fn take(&self) -> TransportEvents {
        TransportEvents {
            frames_dropped: self.frames_dropped.take(),
            duplicates_discarded: self.duplicates_discarded.take(),
            retransmits: self.retransmits.take(),
            checksum_failures: self.checksum_failures.take(),
            acks_sent: self.acks_sent.take(),
            frames_acked: self.frames_acked.take(),
        }
    }
}

fn cell_add(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

/// One location's endpoint of the message fabric: owns staging buffers,
/// flush, and the inbound queue.
///
/// Contract (what `Location` relies on, and what a future backend must
/// keep): `stage` buffers without reordering; `flush` pushes the whole
/// buffer for one destination as one [`Batch`] into a FIFO channel;
/// `try_recv` yields inbound batches in (recovered) FIFO order, each
/// deliverable exactly once. The endpoint never touches counters or the
/// `sent`/`handled` fence accounting — the shell bumps `sent` at stage
/// time and `handled` at delivery, and reaps [`TransportEvents`] for the
/// reliability counters — so quiescence detection is
/// transport-independent (a batch buffered or retained inside the
/// endpoint is already counted as sent and not yet as handled/acked).
pub(crate) trait Transport {
    /// True when the shell must stage [`Staged::Frame`]s (encoding each
    /// request) rather than [`Staged::Closure`]s.
    fn serializes(&self) -> bool;

    /// Buffers one staged request toward `dest`.
    fn stage(&self, dest: LocId, msg: Staged<'_>) -> StageOutcome;

    /// Ships `dest`'s buffer into the fabric as one batch from `src`.
    fn flush(&self, src: LocId, dest: LocId) -> Option<FlushInfo>;

    /// Pulls the next queued inbound batch, if any.
    fn try_recv(&self) -> Option<Batch>;

    /// Drives time-based protocol work (retransmit timers). Called from
    /// the shell's poll loop; a no-op for fabrics that cannot lose data.
    fn tick(&self) {}

    /// True when this backend runs the ack protocol, i.e. the fence must
    /// additionally wait for `acked == sent`.
    fn tracks_acks(&self) -> bool {
        false
    }

    /// Drains reliability events accumulated since the last call.
    fn take_events(&self) -> TransportEvents {
        TransportEvents::default()
    }
}

/// Builds the endpoint for `cfg.transport` over the execution's shared
/// channel set. When a fault schedule is active, the serialized endpoint
/// is wrapped in a [`FaultyTransport`] that taps its outbound sends; the
/// closure backend deliberately skips fault injection (it models the
/// in-process fabric, which cannot lose data — see DESIGN.md).
pub(crate) fn make_endpoint(
    cfg: &RtsConfig,
    me: LocId,
    senders: Vec<Sender<Batch>>,
    rx: Receiver<Batch>,
    nlocs: usize,
) -> Box<dyn Transport> {
    match cfg.transport {
        TransportKind::Closure => {
            Box::new(ClosureTransport::new(senders, rx, nlocs, cfg.aggregation))
        }
        TransportKind::Serialized => {
            let rto = Duration::from_micros(cfg.retransmit_rto_us.max(1));
            if cfg.faults.active() {
                // Interpose the injector between the reliable endpoint and
                // the real channels: the endpoint sends into a tap the
                // injector drains, faults, and forwards.
                let (tap_tx, tap_rx) = crossbeam::channel::unbounded();
                let inner = SerializedTransport::new(
                    vec![tap_tx; nlocs],
                    rx,
                    nlocs,
                    cfg.aggregation,
                    me,
                    rto,
                );
                Box::new(FaultyTransport::new(
                    Box::new(inner),
                    senders,
                    tap_rx,
                    cfg.faults,
                    cfg.fault_seed,
                    me,
                ))
            } else {
                Box::new(SerializedTransport::new(senders, rx, nlocs, cfg.aggregation, me, rto))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Closure backend
// ---------------------------------------------------------------------

/// The in-process closure backend: stages `Box<dyn FnOnce>` requests and
/// ships them untouched — the pre-trait runtime, extracted verbatim.
pub(crate) struct ClosureTransport {
    senders: Vec<Sender<Batch>>,
    rx: Receiver<Batch>,
    aggregation: usize,
    outbuf: RefCell<Vec<Vec<Request>>>,
}

impl ClosureTransport {
    fn new(
        senders: Vec<Sender<Batch>>,
        rx: Receiver<Batch>,
        nlocs: usize,
        aggregation: usize,
    ) -> Self {
        ClosureTransport {
            senders,
            rx,
            aggregation,
            outbuf: RefCell::new((0..nlocs).map(|_| Vec::new()).collect()),
        }
    }
}

impl Transport for ClosureTransport {
    fn serializes(&self) -> bool {
        false
    }

    fn stage(&self, dest: LocId, msg: Staged<'_>) -> StageOutcome {
        let Staged::Closure(req) = msg else {
            unreachable!("closure transport staged a wire frame")
        };
        let mut buf = self.outbuf.borrow_mut();
        buf[dest].push(req);
        StageOutcome {
            first_in_buffer: buf[dest].len() == 1,
            flush_now: buf[dest].len() >= self.aggregation,
        }
    }

    fn flush(&self, src: LocId, dest: LocId) -> Option<FlushInfo> {
        let reqs = {
            let mut buf = self.outbuf.borrow_mut();
            if buf[dest].is_empty() {
                return None;
            }
            std::mem::take(&mut buf[dest])
        };
        let nreqs = reqs.len();
        self.senders[dest]
            .send(Batch { src, dest, payload: Payload::Closures(reqs) })
            .unwrap_or_else(|_| {
                panic!(
                    "stapl-rts: location {src}: flush to location {dest} failed — \
                     the destination's receive channel hung up (its thread exited; \
                     did a peer location panic?)"
                )
            });
        Some(FlushInfo { nreqs, bytes: 0 })
    }

    fn try_recv(&self) -> Option<Batch> {
        self.rx.try_recv().ok()
    }
}

// ---------------------------------------------------------------------
// Serialized backend (with reliable delivery)
// ---------------------------------------------------------------------

#[derive(Default)]
struct WireBuf {
    bytes: Vec<u8>,
    nreqs: usize,
}

/// A flushed-but-unacked batch retained for retransmission.
struct Retained {
    bytes: Vec<u8>,
    nreqs: usize,
    deadline: Instant,
    attempt: u32,
}

/// Sender-side reliability state toward one destination.
struct PairTx {
    /// Sequence number the next flushed data batch will carry.
    next_seq: u64,
    /// Sent-but-unacked batches, by sequence number.
    unacked: BTreeMap<u64, Retained>,
}

/// Receiver-side reliability state for one source.
struct PairRx {
    /// The next in-order sequence number; everything below is delivered.
    expect: u64,
    /// Early (out-of-order) batches waiting for the gap to fill.
    stash: BTreeMap<u64, (Vec<u8>, usize)>,
}

/// What `admit` decided about one inbound batch, computed under the
/// receiver-state borrow and acted on after it is released.
enum Admit {
    /// In-order data batch: ack it and hand it to delivery.
    Deliver,
    /// Duplicate data batch: discard but re-ack (the original ack may
    /// have been lost).
    ReAck,
}

/// The serialized-message backend: per-destination byte buffers of wire
/// frames, flushed as control-framed byte batches and delivered through
/// the reliable ack/retransmit protocol (see the module docs).
pub(crate) struct SerializedTransport {
    me: LocId,
    senders: Vec<Sender<Batch>>,
    rx: Receiver<Batch>,
    aggregation: usize,
    rto: Duration,
    jitter_seed: u64,
    outbuf: RefCell<Vec<WireBuf>>,
    tx_state: RefCell<Vec<PairTx>>,
    rx_state: RefCell<Vec<PairRx>>,
    /// Total retained batches across all destinations; lets the hot
    /// `tick` path early-out without scanning.
    unacked_total: Cell<usize>,
    /// Total stashed out-of-order batches across all sources.
    stash_total: Cell<usize>,
    events: EventCells,
}

impl SerializedTransport {
    fn new(
        senders: Vec<Sender<Batch>>,
        rx: Receiver<Batch>,
        nlocs: usize,
        aggregation: usize,
        me: LocId,
        rto: Duration,
    ) -> Self {
        SerializedTransport {
            me,
            senders,
            rx,
            aggregation,
            rto,
            jitter_seed: mix64(0x5EED_AC4D ^ me as u64),
            outbuf: RefCell::new((0..nlocs).map(|_| WireBuf::default()).collect()),
            tx_state: RefCell::new(
                (0..nlocs).map(|_| PairTx { next_seq: 1, unacked: BTreeMap::new() }).collect(),
            ),
            rx_state: RefCell::new(
                (0..nlocs).map(|_| PairRx { expect: 1, stash: BTreeMap::new() }).collect(),
            ),
            unacked_total: Cell::new(0),
            stash_total: Cell::new(0),
            events: EventCells::default(),
        }
    }

    /// Clears retained batches covered by a cumulative ack from `peer`.
    fn process_ack(&self, peer: LocId, ack: u64) {
        let mut tx = self.tx_state.borrow_mut();
        let pair = &mut tx[peer];
        while let Some(entry) = pair.unacked.first_entry() {
            if *entry.key() > ack {
                break;
            }
            let retained = entry.remove();
            cell_add(&self.events.frames_acked, retained.nreqs as u64);
            self.unacked_total.set(self.unacked_total.get() - 1);
        }
    }

    /// Sends a standalone pure-ack batch (seq 0) to `peer`, acknowledging
    /// everything contiguously received from it. Ack loss is tolerated —
    /// the peer's retransmit timer recovers — so send errors during a
    /// peer's teardown are ignored.
    fn send_ack(&self, peer: LocId) {
        let ack = self.rx_state.borrow()[peer].expect - 1;
        let mut bytes = Vec::with_capacity(FRAME_HEADER_BYTES + CONTROL_PAYLOAD_BYTES);
        encode_control(&mut bytes, self.me, 0, 0, ack, 0);
        let _ = self.senders[peer].send(Batch {
            src: self.me,
            dest: peer,
            payload: Payload::Frames { bytes, nreqs: 0 },
        });
        cell_add(&self.events.acks_sent, 1);
    }

    /// Runs one inbound batch through verification, ack processing, and
    /// sequencing. Returns the batch only when it is the next in-order
    /// delivery for its source.
    fn admit(&self, batch: Batch) -> Option<Batch> {
        let Payload::Frames { bytes, nreqs } = &batch.payload else {
            // Closure batches never reach this backend; be tolerant and
            // deliver rather than silently dropping work.
            return Some(batch);
        };
        let nreqs = *nreqs;
        let src = batch.src;
        let ctrl = match verify_batch(bytes) {
            Ok(c) => c,
            Err(_) => {
                // Corrupt on the wire: reject before decoding anything and
                // do NOT ack; the sender's retransmit recovers the batch.
                cell_add(&self.events.checksum_failures, 1);
                cell_add(&self.events.frames_dropped, nreqs as u64);
                return None;
            }
        };
        // Piggybacked cumulative ack for the reverse direction.
        self.process_ack(src, ctrl.ack);
        if ctrl.seq == 0 {
            return None; // standalone pure-ack batch
        }
        let decision = {
            let mut rx = self.rx_state.borrow_mut();
            let pair = &mut rx[src];
            if ctrl.seq < pair.expect || pair.stash.contains_key(&ctrl.seq) {
                Admit::ReAck
            } else if ctrl.seq > pair.expect {
                // Early: stash until the sequence gap fills.
                let Payload::Frames { bytes, nreqs } = batch.payload else { unreachable!() };
                pair.stash.insert(ctrl.seq, (bytes, nreqs));
                self.stash_total.set(self.stash_total.get() + 1);
                return None;
            } else {
                pair.expect += 1;
                Admit::Deliver
            }
        };
        match decision {
            Admit::Deliver => {
                self.send_ack(src);
                Some(batch)
            }
            Admit::ReAck => {
                // Duplicate (a retransmit raced the ack, or an injected
                // dup): discard, but re-ack in case the first ack was lost.
                cell_add(&self.events.duplicates_discarded, nreqs as u64);
                self.send_ack(src);
                None
            }
        }
    }

    /// Pops the next in-order batch out of the reorder stash, if any
    /// source's gap has filled.
    fn pop_stashed(&self) -> Option<Batch> {
        let (src, bytes, nreqs) = {
            let mut rx = self.rx_state.borrow_mut();
            let mut found = None;
            for (src, pair) in rx.iter_mut().enumerate() {
                let Some((&seq, _)) = pair.stash.first_key_value() else { continue };
                if seq != pair.expect {
                    continue;
                }
                let (bytes, nreqs) = pair.stash.remove(&seq).expect("stash entry just seen");
                pair.expect += 1;
                self.stash_total.set(self.stash_total.get() - 1);
                found = Some((src, bytes, nreqs));
                break;
            }
            found?
        };
        self.send_ack(src);
        Some(Batch { src, dest: self.me, payload: Payload::Frames { bytes, nreqs } })
    }
}

impl Transport for SerializedTransport {
    fn serializes(&self) -> bool {
        true
    }

    fn stage(&self, dest: LocId, msg: Staged<'_>) -> StageOutcome {
        let Staged::Frame(frame) = msg else {
            unreachable!("serialized transport staged a boxed closure")
        };
        let mut buf = self.outbuf.borrow_mut();
        let b = &mut buf[dest];
        b.bytes.extend_from_slice(frame);
        b.nreqs += 1;
        StageOutcome { first_in_buffer: b.nreqs == 1, flush_now: b.nreqs >= self.aggregation }
    }

    fn flush(&self, src: LocId, dest: LocId) -> Option<FlushInfo> {
        let (frames, nreqs) = {
            let mut buf = self.outbuf.borrow_mut();
            let b = &mut buf[dest];
            if b.nreqs == 0 {
                return None;
            }
            (std::mem::take(&mut b.bytes), std::mem::replace(&mut b.nreqs, 0))
        };
        // Prefix the control frame: source and count for quiescence
        // accounting, sequence number for reliable delivery, piggybacked
        // cumulative ack for the reverse direction.
        let (seq, ack) = {
            let mut tx = self.tx_state.borrow_mut();
            let pair = &mut tx[dest];
            let seq = pair.next_seq;
            pair.next_seq += 1;
            (seq, self.rx_state.borrow()[dest].expect - 1)
        };
        let mut bytes =
            Vec::with_capacity(FRAME_HEADER_BYTES + CONTROL_PAYLOAD_BYTES + frames.len());
        encode_control(&mut bytes, src, nreqs, seq, ack, 0);
        bytes.extend_from_slice(&frames);
        let total = bytes.len();
        // Retain a byte image until the destination acks this sequence
        // number; the retained copy never runs capture destructors (the
        // delivered execution owns them).
        self.tx_state.borrow_mut()[dest].unacked.insert(
            seq,
            Retained { bytes: bytes.clone(), nreqs, deadline: Instant::now() + self.rto, attempt: 0 },
        );
        self.unacked_total.set(self.unacked_total.get() + 1);
        self.senders[dest]
            .send(Batch { src, dest, payload: Payload::Frames { bytes, nreqs } })
            .unwrap_or_else(|_| {
                panic!(
                    "stapl-rts: location {src}: flush of batch seq {seq} ({nreqs} frames) to \
                     location {dest} failed — the destination's receive channel hung up (its \
                     thread exited; did a peer location panic?)"
                )
            });
        Some(FlushInfo { nreqs, bytes: total })
    }

    fn try_recv(&self) -> Option<Batch> {
        loop {
            if self.stash_total.get() > 0 {
                if let Some(b) = self.pop_stashed() {
                    return Some(b);
                }
            }
            let batch = self.rx.try_recv().ok()?;
            if let Some(b) = self.admit(batch) {
                return Some(b);
            }
        }
    }

    fn tick(&self) {
        if self.unacked_total.get() == 0 {
            return;
        }
        let now = Instant::now();
        let mut resend: Vec<(LocId, Vec<u8>, usize)> = Vec::new();
        {
            let mut tx = self.tx_state.borrow_mut();
            for (dest, pair) in tx.iter_mut().enumerate() {
                for (&seq, r) in pair.unacked.iter_mut() {
                    if now < r.deadline {
                        continue;
                    }
                    let mut copy = r.bytes.clone();
                    mark_retransmit(&mut copy);
                    r.attempt += 1;
                    // Exponential backoff with deterministic jitter keeps
                    // a lossy fabric from synchronizing its retry storms.
                    let backoff = self.rto * (1 << r.attempt.min(5));
                    let jitter_us = mix64(
                        self.jitter_seed
                            ^ seq
                            ^ ((r.attempt as u64) << 32)
                            ^ ((dest as u64) << 48),
                    ) % (self.rto.as_micros() as u64 / 2 + 1);
                    r.deadline = now + backoff + Duration::from_micros(jitter_us);
                    resend.push((dest, copy, r.nreqs));
                }
            }
        }
        for (dest, bytes, nreqs) in resend {
            cell_add(&self.events.retransmits, 1);
            // A hung-up peer here means the execution is already aborting;
            // the poisoned-barrier path reports it.
            let _ = self.senders[dest].send(Batch {
                src: self.me,
                dest,
                payload: Payload::Frames { bytes, nreqs },
            });
        }
    }

    fn tracks_acks(&self) -> bool {
        true
    }

    fn take_events(&self) -> TransportEvents {
        self.events.take()
    }
}

impl Drop for SerializedTransport {
    fn drop(&mut self) {
        // Staged-but-never-flushed frames are the sole owners of their
        // relocated captures (a flushed batch is delivered and executed
        // exactly once, and retained/stashed copies are secondary byte
        // images that must not run destructors). Reconstruct and drop each
        // staged frame so an execution that aborts by panic does not leak
        // captured environments.
        for buf in self.outbuf.get_mut() {
            let mut r = Reader::new(&buf.bytes);
            while !r.is_empty() {
                // Frames we encoded ourselves re-read cleanly; if one does
                // not, leak the tail rather than panic inside a Drop.
                let Ok(msg) = read_frame(&mut r) else { break };
                drop_of(msg.handler)(msg.payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn wire_kind_round_trips() {
        for k in [
            WireKind::Async,
            WireKind::Sync,
            WireKind::Response,
            WireKind::Bulk,
            WireKind::Segment,
            WireKind::Control,
        ] {
            assert_eq!(WireKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(WireKind::from_u8(200), None);
    }

    #[test]
    fn handler_ids_are_stable_per_type() {
        let a = handler_id_of::<fn(&Location)>();
        let b = handler_id_of::<fn(&Location)>();
        assert_eq!(a, b, "same type must keep its id");
        // A distinct closure type gets a distinct id.
        let payload = 7u64;
        let f = move |_: &Location| {
            let _x = payload;
        };
        fn id_of<F: FnOnce(&Location) + Send + 'static>(_: &F) -> u32 {
            handler_id_of::<F>()
        }
        assert_ne!(id_of(&f), a);
    }

    #[test]
    fn frame_header_matches_constant() {
        let mut buf = Vec::new();
        let n = encode_frame(&mut buf, WireKind::Async, |_: &Location| {});
        // A capture-less closure is zero-sized: frame = header only.
        assert_eq!(n, FRAME_HEADER_BYTES);
        assert_eq!(buf.len(), n);
        let mut r = Reader::new(&buf);
        let msg = read_frame(&mut r).expect("self-encoded frame verifies");
        assert_eq!(msg.kind, WireKind::Async);
        assert!(msg.payload.is_empty());
    }

    #[test]
    fn frame_payload_is_the_capture_image() {
        let mut buf = Vec::new();
        let v: u64 = 0x0102_0304_0506_0708;
        // `let _x = v` (a binding, not the `_` wildcard) forces the capture.
        let n = encode_frame(&mut buf, WireKind::Bulk, move |_: &Location| {
            let _x = v;
        });
        assert_eq!(n, FRAME_HEADER_BYTES + std::mem::size_of::<u64>());
        let msg = read_frame(&mut Reader::new(&buf)).expect("self-encoded frame verifies");
        assert_eq!(msg.kind, WireKind::Bulk);
        assert_eq!(msg.payload, v.to_ne_bytes());
    }

    #[test]
    fn any_bit_flip_is_rejected_by_the_checksum() {
        let mut clean = Vec::new();
        let v: u64 = 0xDEAD_BEEF_CAFE_F00D;
        encode_frame(&mut clean, WireKind::Async, move |_: &Location| {
            let _x = v;
        });
        // Flip one bit at a spread of positions covering every header
        // field and the payload; each must fail verification.
        for pos in [0usize, 2, 5, 10, 14, clean.len() - 1] {
            let mut corrupt = clean.clone();
            corrupt[pos] ^= 0x40;
            let err = read_frame(&mut Reader::new(&corrupt))
                .err()
                .unwrap_or_else(|| panic!("bit flip at byte {pos} must be rejected"));
            // A flip can also masquerade as truncation (len field) or an
            // unknown kind; all reject before decoding.
            let _ = err.to_string();
        }
        assert!(read_frame(&mut Reader::new(&clean)).is_ok());
    }

    #[test]
    fn control_frame_round_trips_and_marks_retransmit() {
        let mut bytes = Vec::new();
        encode_control(&mut bytes, 3, 17, 42, 40, 0);
        assert_eq!(bytes.len(), FRAME_HEADER_BYTES + CONTROL_PAYLOAD_BYTES);
        let msg = read_frame(&mut Reader::new(&bytes)).expect("control frame verifies");
        let ctrl = read_control(&msg).expect("control payload decodes");
        assert_eq!(ctrl, BatchControl { src: 3, nreqs: 17, seq: 42, ack: 40, flags: 0 });

        mark_retransmit(&mut bytes);
        let msg = read_frame(&mut Reader::new(&bytes)).expect("re-sealed checksum verifies");
        let ctrl = read_control(&msg).expect("control payload decodes");
        assert_eq!(ctrl.flags & FLAG_RETRANSMIT, FLAG_RETRANSMIT);
        assert_eq!((ctrl.seq, ctrl.ack), (42, 40));
    }

    #[test]
    fn batch_without_control_header_is_rejected() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, WireKind::Async, |_: &Location| {});
        let err = decode_batch(&buf, 0, 1, |_, _| {}).unwrap_err();
        assert_eq!(err, WireError::Header("batch must start with a control frame"));
        assert!(verify_batch(&buf).is_err());
    }

    #[test]
    fn verify_batch_checks_every_frame() {
        let mut frames = Vec::new();
        let v = 0xABu8;
        encode_frame(&mut frames, WireKind::Async, move |_: &Location| {
            let _x = v;
        });
        let mut bytes = Vec::new();
        encode_control(&mut bytes, 1, 1, 7, 0, 0);
        bytes.extend_from_slice(&frames);
        let ctrl = verify_batch(&bytes).expect("clean batch verifies");
        assert_eq!((ctrl.src, ctrl.nreqs, ctrl.seq), (1, 1, 7));
        // Corrupt the *request* frame (past the control frame): the whole
        // batch is rejected before anything decodes.
        let flip_at = FRAME_HEADER_BYTES + CONTROL_PAYLOAD_BYTES + 2;
        let mut corrupt = bytes.clone();
        corrupt[flip_at] ^= 1;
        assert!(verify_batch(&corrupt).is_err());
    }

    #[test]
    fn dropped_transport_releases_staged_captures() {
        // Regression test for the documented frame leak: a staged but
        // never-flushed frame must run its capture's destructors when the
        // endpoint is dropped (an aborted execution), not leak them.
        let (tx, rx) = crossbeam::channel::unbounded::<Batch>();
        let t = SerializedTransport::new(
            vec![tx.clone(), tx],
            rx,
            2,
            1024, // aggregation high enough that nothing auto-flushes
            0,
            Duration::from_millis(5),
        );
        let payload = Arc::new(0u64);
        let weak = Arc::downgrade(&payload);
        let mut scratch = Vec::new();
        encode_frame(&mut scratch, WireKind::Async, move |_: &Location| {
            let _keep = &payload;
        });
        t.stage(1, Staged::Frame(&scratch));
        assert!(weak.upgrade().is_some(), "capture alive while staged");
        drop(t);
        assert!(weak.upgrade().is_none(), "staged frame must drop its capture");
    }
}
