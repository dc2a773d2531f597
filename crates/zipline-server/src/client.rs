//! Client side of the wire protocol: one [`ClientSession`] per connection.
//!
//! A session owns the socket's write half and a reader thread that parses
//! server records into a queue the consumer drains as [`ServerEvent`]s. The reader exits silently on EOF or
//! on a torn record — both present to the consumer as the event channel
//! closing, which is exactly how a server crash looks to a client: only
//! complete records count, the torn tail does not.
//!
//! The server sends one `PAYLOAD` record per compressed batch; the consumer
//! side expands it into the batch's events — a [`ServerEvent::Payload`] per
//! payload, each [`ServerEvent::Control`] strictly before the payload that
//! needs it — so captures and decoders see one event per payload and per
//! update whatever the record boundaries were.
//!
//! The wire carries flows only. **Classic mode** — one unnamed stream per
//! connection — is sugar kept on this side: [`ClientSession::hello`] opens
//! tenant 0's flow `(0, stream_id)`, [`ClientSession::send_data`] and
//! [`ClientSession::end`] address it, and its records surface as the
//! un-keyed [`ServerEvent`] variants.
//!
//! # When bytes leave
//!
//! Records are framed into one out-buffer, in call order, and the buffer
//! reaches the socket in one write at four kinds of point:
//!
//! 1. **Size cap.** `DATA` that fills the buffer to 16 KiB is written; a
//!    record that would take a write past that goes in the next one, and a
//!    record larger than that goes out at once, whole.
//! 2. **Control records and blocking calls.** Every control record (the
//!    hellos, `OPEN`, `END_FLOW`, `END`) is written at once, behind any
//!    buffered `DATA`. So is the buffer before every call that can block on
//!    the server: [`ClientSession::next_event`] with nothing received,
//!    [`ClientSession::drain_to_done`], the hello replies and
//!    [`ClientSession::close`].
//! 3. **Linger.** [`ClientSession::try_event`] with nothing to return
//!    writes the buffer when the last write, or the last blocking wait,
//!    returned at least 50 µs ago. A burst after a quiet spell leaves at the
//!    first poll after it; a tight send/poll loop writes once per 50 µs.
//! 4. **Explicit.** [`ClientSession::flush`], for a caller that neither
//!    polls nor blocks.
//!
//! Dropping a session writes what is buffered, best-effort, before it shuts
//! the socket. A write that fails inside a poll or a blocking wait is kept
//! and returned by the next `send_*`, `flush` or `end`; the event side
//! reports a dead connection as `None`, as it always did.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::mpsc::{self, Receiver, RecvError, TryRecvError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use zipline_engine::{BatchEvent, CodecId, CodecRegistry, DictionaryUpdate, FlowKey};
use zipline_gd::packet::PacketType;

use crate::error::{ServerError, ServerResult};
use crate::net::{Conn, Endpoint};
use crate::wire::{
    ClientHello, DoneSummary, Record, RecordReader, ResumeSummary, ServerHello, WireCodec,
    WireError, UNNAMED_FLOW,
};

/// Buffered bytes that make a write. 16 KiB is what the server's
/// `RecordReader` reads at a time, and it holds an 8 KiB burst of framed
/// records whole (256 × 57 B at 32 B records, 8 × 1049 B at 1 KiB), so a
/// burst leaves in one write at the first poll after it. Measured on the
/// benchmark's three socket workloads (2-core loopback host, two runs
/// each): at 8 KiB a 1 KiB-record burst splits, its tail waits for a later
/// poll and `uds_mux_durable`'s `burst_p50_us` went 286/307 → 412/450 µs;
/// 64 KiB gained nothing on `tcp_small_gd` beyond the run-to-run spread.
const SEND_CAP: usize = 16 * 1024;

/// How long an empty poll leaves buffered records alone after the last
/// write or blocking wait returned: long against one buffered 32 B send
/// (≈ 0.2 µs, so a tight send/poll loop writes a few hundred records at
/// once), short against the 100 µs a paced sender sleeps between polls.
/// 25 and 100 µs measured the same as 50 on all three socket workloads,
/// within the run-to-run spread. With no linger at all — flushing only on
/// a second empty poll with no send between — a paced burst waited out
/// one more sleep, `burst_p50_us` +60 % on `uds_mux_durable`.
const LINGER: Duration = Duration::from_micros(50);

/// The send side's write discipline — one out-buffer and the instant the
/// socket last went quiet — with the socket and the clock passed in, so the
/// rules in the module docs are tested without either.
struct Outbox {
    buf: Vec<u8>,
    /// When the last write or blocking wait **returned**. Counting from its
    /// start instead would let the poll right after a long blocking write
    /// send a lone record.
    quiet_since: Instant,
}

impl Outbox {
    fn new(now: Instant) -> Self {
        Self {
            buf: Vec::with_capacity(SEND_CAP),
            quiet_since: now,
        }
    }

    /// Frames one record into the buffer with `frame`, then writes what must
    /// go: everything, for a control record (`urgent`); a full buffer,
    /// otherwise. What is ahead of a record that would take the write past
    /// [`SEND_CAP`] is written first, on its own.
    fn push(
        &mut self,
        sink: &mut impl Write,
        clock: impl Fn() -> Instant,
        urgent: bool,
        frame: impl FnOnce(&mut Vec<u8>),
    ) -> io::Result<()> {
        let ahead = self.buf.len();
        frame(&mut self.buf);
        if ahead > 0 && self.buf.len() > SEND_CAP {
            self.write(sink, &clock, ahead)?;
        }
        if urgent || self.buf.len() >= SEND_CAP {
            self.flush(sink, &clock)?;
        }
        Ok(())
    }

    /// An empty poll: writes the buffer once the socket has been quiet for
    /// [`LINGER`].
    fn poll(&mut self, sink: &mut impl Write, clock: impl Fn() -> Instant) -> io::Result<()> {
        if self.buf.is_empty() || clock().duration_since(self.quiet_since) < LINGER {
            return Ok(());
        }
        self.flush(sink, &clock)
    }

    /// Writes the buffer, runs the blocking `wait`, and opens the linger
    /// window when it returns.
    fn wait<T>(
        &mut self,
        sink: &mut impl Write,
        clock: impl Fn() -> Instant,
        wait: impl FnOnce() -> T,
    ) -> (io::Result<()>, T) {
        let flushed = self.flush(sink, &clock);
        let waited = wait();
        self.quiet_since = clock();
        (flushed, waited)
    }

    fn flush(&mut self, sink: &mut impl Write, clock: impl Fn() -> Instant) -> io::Result<()> {
        match self.buf.len() {
            0 => Ok(()),
            len => self.write(sink, clock, len),
        }
    }

    /// Writes the first `len` buffered bytes. A failed write takes the whole
    /// buffer with it: the connection is gone.
    fn write(
        &mut self,
        sink: &mut impl Write,
        clock: impl Fn() -> Instant,
        len: usize,
    ) -> io::Result<()> {
        let written = sink.write_all(&self.buf[..len]);
        self.quiet_since = clock();
        if let Err(e) = written {
            self.buf.clear();
            return Err(e);
        }
        self.buf.drain(..len);
        // One oversized record must not pin its buffer for the session.
        self.buf.shrink_to(2 * SEND_CAP);
        Ok(())
    }
}

/// The codec ids this client can decode: everything in the standard
/// registry, advertised in the hello so the server can refuse a stream the
/// client could not restore.
fn supported_codecs() -> Vec<CodecId> {
    CodecRegistry::standard().ids()
}

/// One server record, as observed by the client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerEvent {
    /// The server's hello (always the first event of a session).
    Hello(ServerHello),
    /// One wire payload of the classic stream.
    Payload {
        /// ZipLine packet type.
        packet_type: PacketType,
        /// Per-batch codec tag; `None` means the stream's fixed backend.
        codec: Option<CodecId>,
        /// Payload bytes.
        bytes: Vec<u8>,
    },
    /// One committed dictionary update of the classic stream.
    Control(DictionaryUpdate),
    /// One synthesized install of the classic stream (compacted-journal
    /// resync; advisory).
    Reseed(DictionaryUpdate),
    /// Clean end of the session: the totals across its finished flows.
    Done(DoneSummary),
    /// The server reported a failure; the connection is closing.
    ServerError(String),
    /// One flow's resume plan (answers [`ClientSession::open_flow`],
    /// delivered in order with the flow's replay/reseed records).
    FlowOpened {
        /// The opened flow.
        key: FlowKey,
        /// The flow's resume plan.
        resume: ResumeSummary,
    },
    /// One wire payload of one flow.
    FlowPayload {
        /// The owning flow.
        key: FlowKey,
        /// ZipLine packet type.
        packet_type: PacketType,
        /// Per-batch codec tag; `None` means the flow's fixed backend.
        codec: Option<CodecId>,
        /// Payload bytes.
        bytes: Vec<u8>,
    },
    /// One committed dictionary update of one flow.
    FlowControl {
        /// The owning flow.
        key: FlowKey,
        /// The tagged update.
        update: DictionaryUpdate,
    },
    /// One synthesized install of one flow (compacted journal; advisory).
    FlowReseed {
        /// The owning flow.
        key: FlowKey,
        /// The synthesized update.
        update: DictionaryUpdate,
    },
    /// Clean end of one flow.
    FlowDone {
        /// The finished flow.
        key: FlowKey,
        /// The flow's totals.
        summary: DoneSummary,
    },
}

/// A connected client session.
pub struct ClientSession {
    conn: Conn,
    codec: WireCodec,
    out: Outbox,
    /// A write that failed where no error could be returned (a poll, a
    /// blocking wait, `close`); the next `send_*`, `flush` or `end` returns it.
    failed: Option<ServerError>,
    records: Receiver<Record>,
    /// Events of the record last taken off `records` that the consumer has
    /// not asked for yet (a batch expands to many).
    pending: VecDeque<ServerEvent>,
    reader: Option<JoinHandle<Result<(), WireError>>>,
    /// The flow [`Self::hello`] opened; its events surface un-keyed.
    classic: Option<FlowKey>,
}

impl ClientSession {
    /// Connects to `endpoint` and starts the reader thread. No records are
    /// exchanged until [`Self::hello`].
    pub fn connect(endpoint: &Endpoint) -> ServerResult<Self> {
        let conn = Conn::connect(endpoint)?;
        let reader_conn = conn.try_clone()?;
        let (tx, rx) = mpsc::channel();
        let reader = thread::Builder::new()
            .name("zipline-client-reader".into())
            .spawn(move || {
                let mut reader = RecordReader::new(reader_conn);
                loop {
                    match reader.read_record() {
                        Ok(Some(record)) => {
                            if tx.send(record).is_err() {
                                return Ok(());
                            }
                        }
                        Ok(None) => return Ok(()),
                        Err(e) => return Err(e),
                    }
                }
            })
            .map_err(|e| ServerError::io("spawning client reader", e))?;
        Ok(Self {
            conn,
            codec: WireCodec::new(),
            out: Outbox::new(Instant::now()),
            failed: None,
            records: rx,
            pending: VecDeque::new(),
            reader: Some(reader),
            classic: None,
        })
    }

    /// Frames one record into the out-buffer; a control record (`urgent`)
    /// is written at once, with everything ahead of it.
    fn push(
        &mut self,
        urgent: bool,
        kind: &str,
        frame: impl FnOnce(&mut WireCodec, &mut Vec<u8>),
    ) -> ServerResult<()> {
        self.take_failed()?;
        let codec = &mut self.codec;
        self.out
            .push(&mut self.conn, Instant::now, urgent, |buf| {
                frame(codec, buf)
            })
            .map_err(|e| ServerError::io(format!("sending {kind}"), e))
    }

    fn take_failed(&mut self) -> ServerResult<()> {
        self.failed.take().map_or(Ok(()), Err)
    }

    /// Keeps a failed write for the next call that can return it.
    fn keep(&mut self, written: io::Result<()>) {
        if let Err(e) = written {
            self.failed
                .get_or_insert(ServerError::io("sending buffered records", e));
        }
    }

    /// Blocks for the next server record, writing the out-buffer first.
    fn recv(&mut self) -> Result<Record, RecvError> {
        let records = &self.records;
        let (written, record) = self
            .out
            .wait(&mut self.conn, Instant::now, || records.recv());
        self.keep(written);
        record
    }

    fn send(&mut self, record: &Record) -> ServerResult<()> {
        self.push(true, record.kind_name(), |codec, buf| {
            codec.encode_into(record, buf)
        })
    }

    /// Blocks for the server's answer to a request: its `ERROR` record and
    /// a disconnect both become errors.
    fn reply(&mut self) -> ServerResult<Record> {
        match self.recv() {
            Ok(Record::Error(message)) => Err(ServerError::Remote(message)),
            Ok(record) => Ok(record),
            Err(_) => Err(ServerError::Disconnected),
        }
    }

    /// Opens the session: sends `CLIENT_HELLO` (advertising every codec the
    /// standard registry decodes) and waits for the server's answer. Flows
    /// then open individually via [`Self::open_flow`].
    pub fn hello_multiplex(&mut self) -> ServerResult<ServerHello> {
        self.send(&Record::ClientHello(ClientHello {
            codecs: supported_codecs(),
        }))?;
        match self.reply()? {
            Record::ServerHello(hello) => Ok(hello),
            other => Err(ServerError::Protocol(format!(
                "expected SERVER_HELLO, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Opens a **classic** session: the hello exchange, then tenant 0's
    /// flow `stream_id`, returning that flow's resume plan. `entries_held`
    /// is the replay cursor — payload + control records this client already
    /// holds from the stream's current journal epoch (0 for a fresh stream
    /// or after a clean `Done`). From here on the flow's records surface as
    /// the un-keyed [`ServerEvent`] variants and its `FLOW_DONE` is folded
    /// into the session's `Done`.
    pub fn hello(&mut self, stream_id: u64, entries_held: u64) -> ServerResult<ResumeSummary> {
        self.hello_multiplex()?;
        let key = FlowKey::new(0, stream_id);
        self.open_flow(key, entries_held)?;
        match self.reply()? {
            Record::Opened {
                key: opened,
                resume,
            } if opened == key => {
                self.classic = Some(key);
                Ok(resume)
            }
            other => Err(ServerError::Protocol(format!(
                "expected OPENED for {key}, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Opens one flow. Does **not** block: the server's
    /// [`ServerEvent::FlowOpened`] answer arrives in order with the flow's
    /// replay/reseed records, so consuming the event stream observes the
    /// resume plan strictly before the flow's data.
    pub fn open_flow(&mut self, key: FlowKey, entries_held: u64) -> ServerResult<()> {
        self.send(&Record::Open { key, entries_held })
    }

    /// Sends one input record for `key`'s flow. The record is buffered; it
    /// reaches the socket at the next flush point (see the module docs): a
    /// full buffer, a control record, a call that blocks, an empty
    /// [`Self::try_event`] once the socket has been quiet for 50 µs, or
    /// [`Self::flush`]. A write that failed since the last call is returned
    /// here.
    pub fn send_flow_data(&mut self, key: FlowKey, bytes: &[u8]) -> ServerResult<()> {
        self.push(false, "DATA", |codec, buf| {
            codec.encode_flow_data_into(key, bytes, buf)
        })
    }

    /// Ends `key`'s flow cleanly; the server drains, commits and sends the
    /// flow's [`ServerEvent::FlowDone`].
    pub fn end_flow(&mut self, key: FlowKey) -> ServerResult<()> {
        self.send(&Record::EndFlow { key })
    }

    /// Sends one input record for the classic stream (before any classic
    /// hello named one: for the unnamed flow `(0, 0)`). Buffered like
    /// [`Self::send_flow_data`].
    pub fn send_data(&mut self, bytes: &[u8]) -> ServerResult<()> {
        self.send_flow_data(self.classic.unwrap_or(UNNAMED_FLOW), bytes)
    }

    /// Ends the session cleanly — the classic stream first, when there is
    /// one; the server drains, commits and sends `Done`.
    pub fn end(&mut self) -> ServerResult<()> {
        if let Some(key) = self.classic {
            self.end_flow(key)?;
        }
        self.send(&Record::End)
    }

    /// Writes every buffered record to the socket now, for a caller that
    /// neither polls nor blocks. Returns a write that failed earlier in a
    /// poll or a blocking wait, if one did.
    pub fn flush(&mut self) -> ServerResult<()> {
        self.take_failed()?;
        self.out
            .flush(&mut self.conn, Instant::now)
            .map_err(|e| ServerError::io("sending buffered records", e))
    }

    /// Queues one server record as the events the consumer sees: a batch
    /// expands into its payloads and control updates in wire order, the
    /// classic flow's records lose their key, and its `OPENED`/`FLOW_DONE`
    /// bookends are swallowed.
    fn expand(&mut self, record: Record) {
        let classic = |key| self.classic == Some(key);
        let event = match record {
            Record::ServerHello(hello) => ServerEvent::Hello(hello),
            Record::Opened { key, .. } | Record::FlowDone { key, .. } if classic(key) => return,
            Record::Opened { key, resume } => ServerEvent::FlowOpened { key, resume },
            Record::FlowDone { key, summary } => ServerEvent::FlowDone { key, summary },
            Record::Payload { key, batch } => {
                let (classic, codec) = (classic(key), batch.codec());
                self.pending
                    .extend(batch.events().map(|event| match (event, classic) {
                        (BatchEvent::Update(update), true) => ServerEvent::Control(update.clone()),
                        (BatchEvent::Update(update), false) => ServerEvent::FlowControl {
                            key,
                            update: update.clone(),
                        },
                        (BatchEvent::Payload(packet_type, bytes), true) => ServerEvent::Payload {
                            packet_type,
                            codec,
                            bytes: bytes.to_vec(),
                        },
                        (BatchEvent::Payload(packet_type, bytes), false) => {
                            ServerEvent::FlowPayload {
                                key,
                                packet_type,
                                codec,
                                bytes: bytes.to_vec(),
                            }
                        }
                    }));
                return;
            }
            Record::Reseed { key, update } if classic(key) => ServerEvent::Reseed(update),
            Record::Reseed { key, update } => ServerEvent::FlowReseed { key, update },
            Record::Done(done) => ServerEvent::Done(done),
            Record::Error(message) => ServerEvent::ServerError(message),
            other => ServerEvent::ServerError(format!(
                "server sent a client-side record: {}",
                other.kind_name()
            )),
        };
        self.pending.push_back(event);
    }

    /// Blocks for the next server event; `None` means the connection closed
    /// (only complete records were delivered). When nothing has been
    /// received yet, buffered records are written before it blocks.
    pub fn next_event(&mut self) -> Option<ServerEvent> {
        loop {
            if let Some(event) = self.pending.pop_front() {
                return Some(event);
            }
            let record = match self.records.try_recv() {
                Ok(record) => record,
                Err(TryRecvError::Empty) => self.recv().ok()?,
                Err(TryRecvError::Disconnected) => return None,
            };
            self.expand(record);
        }
    }

    /// Non-blocking poll for a server event. With nothing to return, it
    /// writes the buffered records once the last write, or the last
    /// blocking wait, returned at least 50 µs ago — so a burst of sends
    /// leaves at the first poll after a quiet spell, and a tight send/poll
    /// loop makes one write per 50 µs.
    pub fn try_event(&mut self) -> Option<ServerEvent> {
        loop {
            if let Some(event) = self.pending.pop_front() {
                return Some(event);
            }
            match self.records.try_recv() {
                Ok(record) => self.expand(record),
                Err(_) => {
                    let written = self.out.poll(&mut self.conn, Instant::now);
                    self.keep(written);
                    return None;
                }
            }
        }
    }

    /// Drains events until `Done`, handing each intermediate event to
    /// `on_event`. Errors on a server `ERROR` record or a disconnect.
    pub fn drain_to_done(
        &mut self,
        mut on_event: impl FnMut(ServerEvent),
    ) -> ServerResult<DoneSummary> {
        loop {
            match self.next_event() {
                Some(ServerEvent::Done(done)) => return Ok(done),
                Some(ServerEvent::ServerError(message)) => {
                    return Err(ServerError::Remote(message))
                }
                Some(event) => on_event(event),
                None => return Err(ServerError::Disconnected),
            }
        }
    }

    /// Writes what is buffered, closes the write half and drains the reader
    /// to connection close, returning every event received after the last
    /// one consumed.
    pub fn close(mut self) -> Vec<ServerEvent> {
        drop(self.out.flush(&mut self.conn, Instant::now));
        self.conn.shutdown(std::net::Shutdown::Write);
        let mut tail = Vec::new();
        while let Some(event) = self.next_event() {
            tail.push(event);
        }
        if let Some(handle) = self.reader.take() {
            drop(handle.join());
        }
        tail
    }
}

impl Drop for ClientSession {
    fn drop(&mut self) {
        drop(self.out.flush(&mut self.conn, Instant::now));
        self.conn.shutdown(std::net::Shutdown::Both);
        if let Some(handle) = self.reader.take() {
            drop(handle.join());
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};

    use super::*;

    const KEY: FlowKey = FlowKey { tenant: 0, flow: 7 };

    /// A fake clock and a socket that logs every write; a write takes
    /// `write_takes` of fake time, like a blocking one on a full socket.
    struct Net {
        codec: WireCodec,
        now: Cell<Instant>,
        write_takes: Cell<Duration>,
        /// Each write: when it started, and its bytes.
        writes: RefCell<Vec<(Instant, Vec<u8>)>>,
    }

    impl Net {
        fn new() -> Self {
            Self {
                codec: WireCodec::new(),
                now: Cell::new(Instant::now()),
                write_takes: Cell::new(Duration::ZERO),
                writes: RefCell::new(Vec::new()),
            }
        }

        fn clock(&self) -> impl Fn() -> Instant + '_ {
            || self.now.get()
        }

        fn advance(&self, by: Duration) {
            self.now.set(self.now.get() + by);
        }

        fn writes(&self) -> usize {
            self.writes.borrow().len()
        }

        /// Every record written so far, in order.
        fn records(&self) -> Vec<Record> {
            let bytes: Vec<u8> = self
                .writes
                .borrow()
                .iter()
                .flat_map(|(_, w)| w.clone())
                .collect();
            let mut at = 0;
            let mut records = Vec::new();
            while let Some((record, used)) = self.codec.decode(&bytes[at..]).expect("valid records")
            {
                records.push(record);
                at += used;
            }
            assert_eq!(at, bytes.len(), "writes end on a record boundary");
            records
        }
    }

    impl Write for &Net {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes
                .borrow_mut()
                .push((self.now.get(), buf.to_vec()));
            self.advance(self.write_takes.get());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn data(out: &mut Outbox, net: &Net, bytes: &[u8]) {
        out.push(&mut &*net, net.clock(), false, |buf| {
            net.codec.encode_flow_data_into(KEY, bytes, buf)
        })
        .expect("fake socket accepts");
    }

    fn control(out: &mut Outbox, net: &Net, record: &Record) {
        let mut codec = WireCodec::new();
        out.push(&mut &*net, net.clock(), true, |buf| {
            codec.encode_into(record, buf)
        })
        .expect("fake socket accepts");
    }

    fn poll(out: &mut Outbox, net: &Net) {
        out.poll(&mut &*net, net.clock())
            .expect("fake socket accepts");
    }

    fn data_record(bytes: &[u8]) -> Record {
        Record::Data {
            key: KEY,
            bytes: bytes.to_vec(),
        }
    }

    #[test]
    fn a_burst_after_a_quiet_spell_leaves_at_the_first_empty_poll() {
        let net = Net::new();
        let mut out = Outbox::new(net.now.get());
        net.advance(Duration::from_millis(2));
        for i in 0..256u32 {
            data(&mut out, &net, &[i as u8; 32]);
        }
        assert_eq!(net.writes(), 0, "an engine batch of 32 B records fits");
        poll(&mut out, &net);
        assert_eq!(net.writes(), 1, "the first empty poll writes the burst");
        let expected: Vec<Record> = (0..256u32).map(|i| data_record(&[i as u8; 32])).collect();
        assert_eq!(net.records(), expected);
    }

    #[test]
    fn a_send_poll_loop_writes_once_per_linger() {
        let net = Net::new();
        let mut out = Outbox::new(net.now.get());
        for i in 0..5_000u32 {
            data(&mut out, &net, &i.to_le_bytes().repeat(8));
            net.advance(Duration::from_micros(1));
            poll(&mut out, &net);
        }
        let writes = net.writes.borrow();
        assert!(writes.len() >= 5_000 / 60, "{} writes", writes.len());
        for pair in writes.windows(2) {
            assert!(
                pair[1].0 - pair[0].0 >= LINGER,
                "two writes inside one linger"
            );
        }
        assert!(writes.iter().all(|(_, w)| w.len() <= SEND_CAP));
    }

    #[test]
    fn a_send_loop_without_polls_never_writes_past_the_cap() {
        let net = Net::new();
        let mut out = Outbox::new(net.now.get());
        let records: Vec<Vec<u8>> = (0..3_000u32)
            .map(|i| vec![i as u8; 20 + (i as usize * 7) % 300])
            .collect();
        for bytes in &records {
            data(&mut out, &net, bytes);
        }
        out.flush(&mut &net, net.clock())
            .expect("fake socket accepts");
        {
            let writes = net.writes.borrow();
            assert!(writes.len() > 10, "{} writes", writes.len());
            assert!(writes.iter().all(|(_, w)| w.len() <= SEND_CAP));
            // Every write but the last was full to within one record.
            let short = writes[..writes.len() - 1]
                .iter()
                .filter(|(_, w)| w.len() + 400 < SEND_CAP)
                .count();
            assert_eq!(short, 0);
        }
        let expected: Vec<Record> = records.iter().map(|b| data_record(b)).collect();
        assert_eq!(net.records(), expected);
    }

    #[test]
    fn a_blocking_wait_writes_first_and_opens_the_window_when_it_returns() {
        let net = Net::new();
        let mut out = Outbox::new(net.now.get());
        data(&mut out, &net, b"before the wait");
        let (written, ()) = out.wait(&mut &net, net.clock(), || {
            assert_eq!(net.writes(), 1, "written before blocking");
            net.advance(Duration::from_millis(3));
        });
        written.expect("fake socket accepts");

        data(&mut out, &net, b"just after");
        net.advance(LINGER / 2);
        poll(&mut out, &net);
        assert_eq!(net.writes(), 1, "the window opened when the wait returned");
        net.advance(LINGER);
        poll(&mut out, &net);
        assert_eq!(net.writes(), 2);
    }

    #[test]
    fn a_control_record_writes_the_data_ahead_of_it_in_order() {
        let net = Net::new();
        let mut out = Outbox::new(net.now.get());
        data(&mut out, &net, b"first");
        data(&mut out, &net, b"second");
        assert_eq!(net.writes(), 0);
        control(&mut out, &net, &Record::EndFlow { key: KEY });
        assert_eq!(net.writes(), 1, "one write, control record included");
        assert_eq!(
            net.records(),
            vec![
                data_record(b"first"),
                data_record(b"second"),
                Record::EndFlow { key: KEY }
            ]
        );
        assert!(out.buf.is_empty());
    }

    #[test]
    fn a_record_larger_than_the_cap_is_written_whole() {
        let net = Net::new();
        let mut out = Outbox::new(net.now.get());
        let large = vec![0x5A; 3 * SEND_CAP];
        data(&mut out, &net, b"ahead");
        data(&mut out, &net, &large);
        let writes: Vec<usize> = net.writes.borrow().iter().map(|(_, w)| w.len()).collect();
        assert_eq!(writes.len(), 2, "what was ahead, then the record alone");
        assert!(writes[1] > large.len(), "the record in one write");
        assert_eq!(
            net.records(),
            vec![data_record(b"ahead"), data_record(&large)]
        );
        assert!(out.buf.is_empty());
        assert!(
            out.buf.capacity() <= 2 * SEND_CAP,
            "the buffer shrinks back"
        );
    }

    #[test]
    fn the_linger_window_opens_when_a_write_returns_not_when_it_starts() {
        let net = Net::new();
        let mut out = Outbox::new(net.now.get());
        net.write_takes.set(Duration::from_millis(2));
        while net.writes() == 0 {
            data(&mut out, &net, &[1; 1024]);
        }
        // The cap write blocked for 2 ms; a lone record right after it
        // waits out a full linger from the write's return.
        data(&mut out, &net, &[2; 1024]);
        net.advance(LINGER / 5);
        poll(&mut out, &net);
        assert_eq!(net.writes(), 1, "a lone record lingers after a long write");
        net.advance(LINGER);
        poll(&mut out, &net);
        assert_eq!(net.writes(), 2);
    }

    #[test]
    fn a_failed_write_drops_the_buffer_and_is_returned() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = Outbox::new(Instant::now());
        out.buf.extend_from_slice(b"buffered");
        let failed = out.flush(&mut Dead, Instant::now).expect_err("write fails");
        assert_eq!(failed.kind(), io::ErrorKind::BrokenPipe);
        assert!(out.buf.is_empty());
    }
}
