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

use std::collections::VecDeque;
use std::io::Write;
use std::sync::mpsc::{self, Receiver};
use std::thread::{self, JoinHandle};

use zipline_engine::{BatchEvent, CodecId, CodecRegistry, DictionaryUpdate, FlowKey};
use zipline_gd::packet::PacketType;

use crate::error::{ServerError, ServerResult};
use crate::net::{Conn, Endpoint};
use crate::wire::{
    ClientHello, DoneSummary, Record, RecordReader, ResumeSummary, ServerHello, WireCodec,
    WireError, UNNAMED_FLOW,
};

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
            records: rx,
            pending: VecDeque::new(),
            reader: Some(reader),
            classic: None,
        })
    }

    fn send(&mut self, record: &Record) -> ServerResult<()> {
        let frame = self.codec.encode(record);
        self.conn
            .write_all(&frame)
            .map_err(|e| ServerError::io(format!("sending {}", record.kind_name()), e))?;
        self.conn
            .flush()
            .map_err(|e| ServerError::io("flushing socket", e))
    }

    /// Blocks for the server's answer to a request: its `ERROR` record and
    /// a disconnect both become errors.
    fn reply(&mut self) -> ServerResult<Record> {
        match self.records.recv() {
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

    /// Sends one input record for `key`'s flow.
    pub fn send_flow_data(&mut self, key: FlowKey, bytes: &[u8]) -> ServerResult<()> {
        let frame = self.codec.encode_flow_data(key, bytes);
        self.conn
            .write_all(&frame)
            .map_err(|e| ServerError::io("sending DATA", e))
    }

    /// Ends `key`'s flow cleanly; the server drains, commits and sends the
    /// flow's [`ServerEvent::FlowDone`].
    pub fn end_flow(&mut self, key: FlowKey) -> ServerResult<()> {
        self.send(&Record::EndFlow { key })
    }

    /// Sends one input record for the classic stream (before any classic
    /// hello named one: for the unnamed flow `(0, 0)`).
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
    /// (only complete records were delivered).
    pub fn next_event(&mut self) -> Option<ServerEvent> {
        loop {
            if let Some(event) = self.pending.pop_front() {
                return Some(event);
            }
            let record = self.records.recv().ok()?;
            self.expand(record);
        }
    }

    /// Non-blocking poll for a server event.
    pub fn try_event(&mut self) -> Option<ServerEvent> {
        loop {
            if let Some(event) = self.pending.pop_front() {
                return Some(event);
            }
            let record = self.records.try_recv().ok()?;
            self.expand(record);
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

    /// Closes the write half and drains the reader to connection close,
    /// returning every event received after the last one consumed.
    pub fn close(mut self) -> Vec<ServerEvent> {
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
        self.conn.shutdown(std::net::Shutdown::Both);
        if let Some(handle) = self.reader.take() {
            drop(handle.join());
        }
    }
}
