//! The load generator of the socket workloads: one `ClientSession` driven
//! from one thread (plus the session's own reader thread), as a closed loop
//! for the saturation phase and on a fixed schedule for the paced phase.

use std::time::{Duration, Instant};

use zipline_engine::tenant::FlowKey;
use zipline_server::{ClientSession, DoneSummary, Endpoint, ServerEvent};

use crate::capture::{payload_credit, Capture, FlowAcct, RateMarks};
use crate::inputs::{Trace, Window};
use crate::spans::Tracer;
use crate::spec::{BATCH_BYTES, BURST_INTERVAL, LATE_AFTER, WINDOW_BATCHES};

/// Longest sleep while waiting for the next burst to come due; with the
/// kernel's timer slack it bounds how late an arrival is noticed to about
/// 150 µs. Polling more often, or without sleeping, takes the processor
/// from the session's reader thread and makes the bursts slower.
const POLL_SLEEP: Duration = Duration::from_micros(100);

/// One piece of a paced burst: `len` bytes from the head of a record.
#[derive(Debug, Clone, Copy)]
pub struct BurstPiece {
    pub record: u32,
    pub len: u32,
}

/// The paced phase's schedule, fixed before the clock starts: burst `k`
/// goes to flow `k % flows` and carries one engine batch of that flow's own
/// records.
pub struct PacedPlan {
    pub bursts: Vec<(usize, Vec<BurstPiece>)>,
    /// Per flow, `(length, hash)` of everything the plan sends.
    pub expected: Vec<(u64, u64)>,
}

impl PacedPlan {
    pub fn new(trace: &Trace, bursts: usize, cursor: usize) -> Self {
        let mut hashes = vec![crate::stats::Hash64::default(); trace.flows()];
        let mut next = vec![cursor; trace.flows()];
        let piece_len = trace.record_bytes.min(BATCH_BYTES);
        let plan = (0..bursts)
            .map(|k| {
                let flow = k % trace.flows();
                let own = &trace.records_of_flow[flow];
                let pieces = (0..BATCH_BYTES / piece_len)
                    .map(|_| {
                        let record = own[next[flow] % own.len()];
                        next[flow] += 1;
                        let bytes = &trace.record(record as usize).1[..piece_len];
                        hashes[flow].update(bytes);
                        BurstPiece {
                            record,
                            len: piece_len as u32,
                        }
                    })
                    .collect();
                (flow, pieces)
            })
            .collect();
        Self {
            bursts: plan,
            expected: hashes.iter().map(|h| h.finish()).collect(),
        }
    }
}

/// What the paced phase saw.
#[derive(Debug, Default)]
pub struct PacedOutcome {
    /// Due-to-restored time of every sampled burst.
    pub latencies_ns: Vec<u64>,
    /// Bursts sent more than [`LATE_AFTER`] after they were due.
    pub late: u64,
    pub bursts: u64,
}

/// One session against the system under test.
pub struct Driver {
    session: ClientSession,
    multiplexed: bool,
    keys: Vec<FlowKey>,
    pub flows: Vec<FlowAcct>,
    pub capture: Capture,
    pub records_sent: u64,
    pub events: u64,
    /// Whether completed bursts still count: false once `END` is out, since
    /// what it releases was not released by the schedule.
    sampling: bool,
    latencies_ns: Vec<u64>,
    pub acked_total: u64,
    /// Clock readings of the closed loop, one per window of acknowledged
    /// input; set by [`Self::ingest`].
    pub marks: Option<RateMarks>,
    pub flow_done: Vec<Option<DoneSummary>>,
    done: Option<DoneSummary>,
}

impl Driver {
    /// Connects, exchanges hellos and (multiplexed) opens every flow.
    /// `stream` is the classic stream id, or the base of the flow ids.
    pub fn open(
        endpoint: &Endpoint,
        multiplexed: bool,
        trace_keys: &[(u64, u64)],
        stream: u64,
    ) -> Result<Self, String> {
        let mut session = ClientSession::connect(endpoint).map_err(crate::err)?;
        let keys: Vec<FlowKey> = trace_keys
            .iter()
            .map(|&(tenant, flow)| FlowKey::new(tenant, (stream << 16) + flow))
            .collect();
        if multiplexed {
            session.hello_multiplex().map_err(crate::err)?;
            for &key in &keys {
                session.open_flow(key, 0).map_err(crate::err)?;
            }
        } else {
            session.hello(stream, 0).map_err(crate::err)?;
        }
        Ok(Self {
            session,
            multiplexed,
            flows: keys.iter().map(|_| FlowAcct::default()).collect(),
            flow_done: vec![None; keys.len()],
            keys,
            capture: Capture::default(),
            records_sent: 0,
            events: 0,
            sampling: true,
            latencies_ns: Vec::new(),
            acked_total: 0,
            marks: None,
            done: None,
        })
    }

    pub fn keys(&self) -> &[FlowKey] {
        &self.keys
    }

    fn send(&mut self, tracer: &mut Tracer, flow: usize, bytes: &[u8]) -> Result<(), String> {
        let span = tracer.start();
        let sent = if self.multiplexed {
            self.session.send_flow_data(self.keys[flow], bytes)
        } else {
            self.session.send_data(bytes)
        };
        tracer.leaf("client.send", span);
        sent.map_err(crate::err)?;
        self.flows[flow].sent += bytes.len() as u64;
        self.records_sent += 1;
        Ok(())
    }

    fn flow_of(&self, key: FlowKey) -> Result<usize, String> {
        self.keys
            .iter()
            .position(|&k| k == key)
            .ok_or_else(|| format!("event for {key}, which this session never opened"))
    }

    fn on_payload(
        &mut self,
        flow: usize,
        codec: Option<zipline_engine::CodecId>,
        packet_type: zipline_gd::packet::PacketType,
        bytes: &[u8],
    ) {
        self.capture.payload(flow, codec, packet_type, bytes);
        let credit = payload_credit(codec, packet_type, bytes.len());
        self.flows[flow].credit(credit, self.sampling, &mut self.latencies_ns);
        self.acked_total += credit;
        if let Some(marks) = &mut self.marks {
            marks.advance(self.acked_total);
        }
    }

    fn on_event(&mut self, event: ServerEvent) -> Result<(), String> {
        self.events += 1;
        match event {
            ServerEvent::Payload {
                packet_type,
                codec,
                bytes,
            } => self.on_payload(0, codec, packet_type, &bytes),
            ServerEvent::FlowPayload {
                key,
                packet_type,
                codec,
                bytes,
            } => {
                let flow = self.flow_of(key)?;
                self.on_payload(flow, codec, packet_type, &bytes);
            }
            ServerEvent::Control(update) | ServerEvent::Reseed(update) => {
                self.capture.control(0, update)
            }
            ServerEvent::FlowControl { key, update } | ServerEvent::FlowReseed { key, update } => {
                let flow = self.flow_of(key)?;
                self.capture.control(flow, update);
            }
            ServerEvent::FlowOpened { .. } => {}
            ServerEvent::FlowDone { key, summary } => {
                let flow = self.flow_of(key)?;
                self.flow_done[flow] = Some(summary);
            }
            ServerEvent::Done(done) => self.done = Some(done),
            ServerEvent::ServerError(message) => return Err(format!("server error: {message}")),
            ServerEvent::Hello(_) => return Err("second SERVER_HELLO mid-session".into()),
        }
        Ok(())
    }

    /// Blocks for one event.
    fn wait(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let span = tracer.start();
        let event = self.session.next_event();
        tracer.leaf("client.wait", span);
        self.on_event(event.ok_or("connection closed before DONE")?)
    }

    /// Takes every event already received, without blocking. An empty
    /// poll — the common case between two 32 B records — records no span.
    fn poll(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let Some(mut event) = self.session.try_event() else {
            return Ok(());
        };
        let span = tracer.start();
        loop {
            self.on_event(event)?;
            match self.session.try_event() {
                Some(next) => event = next,
                None => break,
            }
        }
        tracer.leaf("client.poll", span);
        Ok(())
    }

    /// Closed loop: sends the window's records in order, holding each flow
    /// to [`WINDOW_BATCHES`] engine batches of unacknowledged input, and
    /// reads the clock into [`Self::marks`] as the input is acknowledged.
    pub fn ingest(
        &mut self,
        tracer: &mut Tracer,
        trace: &Trace,
        window: Window,
    ) -> Result<(), String> {
        let limit = (WINDOW_BATCHES * BATCH_BYTES) as u64;
        self.marks = Some(RateMarks::start(self.acked_total));
        for index in window.start..window.start + window.records {
            let (flow, bytes) = trace.record(index);
            // A classic session carries every record on its one stream.
            let flow = if self.multiplexed { flow } else { 0 };
            while self.flows[flow].sent - self.flows[flow].acked >= limit {
                self.wait(tracer)?;
            }
            self.send(tracer, flow, bytes)?;
            self.poll(tracer)?;
        }
        Ok(())
    }

    /// Open loop: sends burst `k` of `plan` at `k ×` [`BURST_INTERVAL`]
    /// whether or not earlier bursts have come back, and times each burst
    /// from the instant it was due.
    pub fn paced(
        &mut self,
        tracer: &mut Tracer,
        trace: &Trace,
        plan: &PacedPlan,
    ) -> Result<PacedOutcome, String> {
        let mut outcome = PacedOutcome::default();
        let start = Instant::now() + BURST_INTERVAL;
        for (k, (flow, pieces)) in plan.bursts.iter().enumerate() {
            let due = start + BURST_INTERVAL * k as u32;
            self.poll_until(tracer, due)?;
            if due.elapsed() > LATE_AFTER {
                outcome.late += 1;
            }
            for piece in pieces {
                let bytes = &trace.record(piece.record as usize).1[..piece.len as usize];
                self.send(tracer, *flow, bytes)?;
            }
            self.flows[*flow].burst_sent(due);
            outcome.bursts += 1;
        }
        // The stream releases a burst's tail only when later input arrives;
        // END stands in for that input, one interval on, and what it
        // releases is not sampled.
        self.poll_until(tracer, start + BURST_INTERVAL * plan.bursts.len() as u32)?;
        self.sampling = false;
        outcome.latencies_ns = std::mem::take(&mut self.latencies_ns);
        Ok(outcome)
    }

    fn poll_until(&mut self, tracer: &mut Tracer, due: Instant) -> Result<(), String> {
        loop {
            self.poll(tracer)?;
            let left = due.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(());
            }
            std::thread::sleep(left.min(POLL_SLEEP));
        }
    }

    /// Ends every flow and the session, and drains to `DONE`.
    pub fn finish(&mut self, tracer: &mut Tracer) -> Result<DoneSummary, String> {
        self.sampling = false;
        if self.multiplexed {
            for flow in 0..self.keys.len() {
                self.session.end_flow(self.keys[flow]).map_err(crate::err)?;
            }
        }
        self.session.end().map_err(crate::err)?;
        loop {
            if let Some(done) = self.done.take() {
                return Ok(done);
            }
            self.wait(tracer)?;
        }
    }
}
