//! One repetition of a workload against a fresh system under test:
//! set-up → saturation → paced → restore → teardown. Each phase is a
//! session of its own, because a session's last batches are released only
//! by `END`; every session therefore starts with a cold dictionary, and
//! that learning prefix is part of the bytes it measures.

use std::cell::RefCell;
use std::time::Instant;

use zipline_engine::tenant::FlowKey;
use zipline_engine::{
    DictionaryUpdate, EngineBuilder, PipelinedStream, SpawnPolicy, StreamSummary,
};
use zipline_gd::packet::PacketType;
use zipline_server::DoneSummary;

use crate::affinity::{pin_current_thread, sut_cpu, GENERATOR_CPU};
use crate::capture::{payload_credit, restore, Capture, FlowAcct, RateMarks};
use crate::client::{Driver, PacedOutcome, PacedPlan};
use crate::inputs::{Trace, Window};
use crate::procfs;
use crate::spans::Tracer;
use crate::spec::{
    engine_config, Plan, Transport, Workload, BATCH_CHUNKS, BURST_INTERVAL, LATE_AFTER,
    PIPELINE_DEPTH,
};
use crate::stats::median;
use crate::sut::{store_root, Sut};

const MIB: f64 = (1u64 << 20) as f64;

/// Everything about a run that is fixed before its first clock starts.
pub struct Prepared {
    pub warm: Window,
    pub warm_expected: Vec<(u64, u64)>,
    pub saturation: Window,
    pub saturation_expected: Vec<(u64, u64)>,
    pub paced: PacedPlan,
}

impl Prepared {
    pub fn new(trace: &Trace, plan: &Plan) -> Self {
        let warm = trace.window(0, plan.warm_bytes);
        let saturation = trace.window(warm.records, plan.saturation_bytes);
        let paced = PacedPlan::new(trace, plan.paced_bursts, warm.records + saturation.records);
        Self {
            warm_expected: trace.expected(warm),
            saturation_expected: trace.expected(saturation),
            warm,
            saturation,
            paced,
        }
    }
}

/// Counts the traced run reads from outside the system under test while
/// the saturation session's threads are all alive.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub context_switches: u64,
    pub threads: u64,
}

impl Probe {
    fn sample(pid: u32) -> Self {
        let (threads, context_switches) = procfs::threads_and_switches(pid).unwrap_or((0, 0));
        Self {
            context_switches,
            threads,
        }
    }

    /// Context switches since `self` was sampled, and the threads alive now.
    fn until_now(self, pid: u32) -> Self {
        let now = Self::sample(pid);
        Self {
            context_switches: now.context_switches.saturating_sub(self.context_switches),
            threads: now.threads,
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct RepOutcome {
    pub setup_s: f64,
    pub ingest_mbps: f64,
    pub restore_mbps: f64,
    pub wire_ratio: f64,
    pub cpu_ms_per_mib: f64,
    pub peak_rss_mib: f64,
    /// Records sent + bursts + restore segments.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// Every sampled burst latency, ascending.
    pub burst_latencies_ns: Vec<u64>,
    pub late_bursts: u64,
    pub bursts: u64,
    /// Counts that must repeat exactly for a seed: wire bytes, payloads and
    /// control updates of the saturation session.
    pub exact: [u64; 3],
    /// Saturation session only (the traced run's client-side figures).
    pub saturation_records: u64,
    pub saturation_events: u64,
    pub saturation_seconds: f64,
    /// Difference of two [`Probe`]s across the saturation phase.
    pub probe: Probe,
}

impl RepOutcome {
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    fn set_bursts(&mut self, mut paced: PacedOutcome) {
        paced.latencies_ns.sort_unstable();
        self.bursts = paced.bursts;
        self.late_bursts = paced.late;
        self.attempted += paced.bursts;
        self.check(
            !paced.latencies_ns.is_empty(),
            "no burst came back before END",
        );
        self.burst_latencies_ns = paced.latencies_ns;
    }
}

/// Input restored per measurement of `restore_mbps`; a shorter capture is
/// decoded several times over, each time by a fresh decoder.
const RESTORE_BYTES: u64 = 64 << 20;

/// Restores a finished session's capture and checks it against the input.
/// Returns the rate of every decode segment, in MB/s.
fn restore_and_check(
    workload: &Workload,
    keys: &[FlowKey],
    capture: &Capture,
    expected: &[(u64, u64)],
    what: &str,
    tracer: &mut Tracer,
    outcome: &mut RepOutcome,
) -> Result<Vec<f64>, String> {
    let restored = restore(workload, keys, capture, tracer)?;
    outcome.attempted += restored.segments.len() as u64;
    outcome.check(
        restored.flows == expected,
        &format!("{what}: restored bytes differ from the input (length + hash per flow)"),
    );
    Ok(restored
        .segments
        .iter()
        .map(|&(bytes, seconds)| bytes as f64 / 1e6 / seconds)
        .collect())
}

/// The restore phase: decodes `capture` until [`RESTORE_BYTES`] have been
/// restored, checks every pass, and reports the median segment rate.
fn restore_phase(
    workload: &Workload,
    keys: &[FlowKey],
    capture: &Capture,
    expected: &[(u64, u64)],
    tracer: &mut Tracer,
    outcome: &mut RepOutcome,
) -> Result<(), String> {
    let bytes: u64 = expected.iter().map(|(len, _)| len).sum();
    let mut rates = Vec::new();
    tracer.begin("restore");
    for _ in 0..RESTORE_BYTES.div_ceil(bytes.max(1)) {
        rates.extend(restore_and_check(
            workload,
            keys,
            capture,
            expected,
            "saturation",
            tracer,
            outcome,
        )?);
    }
    tracer.end();
    outcome.restore_mbps = median(&rates);
    Ok(())
}

/// A finished session's totals as its `DONE` record (or, in process, its
/// `StreamSummary`) states them.
struct Totals {
    bytes_in: u64,
    wire_bytes: u64,
    payloads: u64,
    controls: u64,
}

impl From<&DoneSummary> for Totals {
    fn from(done: &DoneSummary) -> Self {
        Self {
            bytes_in: done.bytes_in,
            wire_bytes: done.wire_bytes,
            payloads: done.payloads_emitted,
            controls: done.control_updates,
        }
    }
}

impl From<&StreamSummary> for Totals {
    fn from(summary: &StreamSummary) -> Self {
        Self {
            bytes_in: summary.bytes_in,
            wire_bytes: summary.wire_bytes,
            payloads: summary.payloads_emitted,
            controls: summary.control_updates,
        }
    }
}

/// Checks a session's stated totals against what was sent and captured.
fn check_done(totals: Totals, sent: u64, capture: &Capture, what: &str, outcome: &mut RepOutcome) {
    outcome.check(
        totals.bytes_in == sent,
        &format!("{what}: DONE.bytes_in != bytes sent"),
    );
    outcome.check(
        totals.wire_bytes == capture.wire_bytes()
            && totals.payloads == capture.payloads()
            && totals.controls == capture.controls(),
        &format!("{what}: DONE totals differ from the records received"),
    );
}

/// One repetition of a socket workload against a freshly spawned child.
pub fn socket_rep(
    workload: &Workload,
    trace: &Trace,
    prepared: &Prepared,
    rep: usize,
    tracer: &mut Tracer,
) -> Result<RepOutcome, String> {
    let mut outcome = RepOutcome::default();
    let tag = format!("sut-{}-{rep}", std::process::id());
    let sent_bytes = |window: Window| (window.records * trace.record_bytes) as u64;
    tracer.set_rep(rep);
    tracer.begin("rep");

    // Set-up: from spawning the SUT until the cold slice has been ingested,
    // restored and verified.
    tracer.begin("setup");
    let setup_clock = Instant::now();
    let sut = Sut::spawn(workload, &tag)?;
    let pid = sut.pid();
    let mut session = Driver::open(&sut.endpoint, workload.multiplexed, &trace.keys, 1)?;
    session.ingest(tracer, trace, prepared.warm)?;
    let done = session.finish(tracer)?;
    outcome.attempted += session.records_sent;
    check_done(
        (&done).into(),
        sent_bytes(prepared.warm),
        &session.capture,
        "setup",
        &mut outcome,
    );
    restore_and_check(
        workload,
        session.keys(),
        &session.capture,
        &prepared.warm_expected,
        "setup",
        tracer,
        &mut outcome,
    )?;
    outcome.setup_s = setup_clock.elapsed().as_secs_f64();
    drop(session);
    tracer.end();

    // Saturation: closed loop, first byte sent to last payload received;
    // connect, hello and flow opens before it, END and DONE after it.
    tracer.begin("saturation");
    let mut session = Driver::open(&sut.endpoint, workload.multiplexed, &trace.keys, 2)?;
    let probe_before = tracer.enabled().then(|| Probe::sample(pid));
    let cpu_before = procfs::cpu_ms(pid).ok_or("reading SUT processor time")?;
    let clock = Instant::now();
    session.ingest(tracer, trace, prepared.saturation)?;
    if let Some(before) = probe_before {
        outcome.probe = before.until_now(pid);
    }
    // Before END, while the session's threads still live to be counted.
    let cpu_after = procfs::cpu_ms(pid).ok_or("reading SUT processor time")?;
    let cpu_bytes = session.acked_total;
    let done = session.finish(tracer)?;
    tracer.end();
    let saturation_bytes = sent_bytes(prepared.saturation);
    let (mbps, last_mark) = session
        .marks
        .as_ref()
        .and_then(RateMarks::median_mbps)
        .ok_or("saturation phase shorter than one rate window")?;
    outcome.attempted += session.records_sent;
    outcome.saturation_records = session.records_sent;
    outcome.saturation_events = session.events;
    outcome.saturation_seconds = last_mark.duration_since(clock).as_secs_f64();
    outcome.ingest_mbps = mbps;
    outcome.cpu_ms_per_mib = (cpu_after - cpu_before) / (cpu_bytes as f64 / MIB);
    outcome.wire_ratio = done.bytes_in as f64 / done.wire_bytes as f64;
    outcome.exact = [done.wire_bytes, done.payloads_emitted, done.control_updates];
    check_done(
        (&done).into(),
        saturation_bytes,
        &session.capture,
        "saturation",
        &mut outcome,
    );
    if workload.multiplexed {
        let flows_in: u64 = session.flow_done.iter().flatten().map(|d| d.bytes_in).sum();
        outcome.check(
            session.flow_done.iter().all(Option::is_some) && flows_in == saturation_bytes,
            "saturation: a FLOW_DONE is missing or the flows' bytes_in do not add up",
        );
    }

    // Paced: open loop, one engine batch per interval.
    tracer.begin("paced");
    let mut paced_session = Driver::open(&sut.endpoint, workload.multiplexed, &trace.keys, 3)?;
    let paced = paced_session.paced(tracer, trace, &prepared.paced)?;
    let done = paced_session.finish(tracer)?;
    tracer.end();
    outcome.set_bursts(paced);
    let paced_bytes: u64 = prepared.paced.expected.iter().map(|(len, _)| len).sum();
    check_done(
        (&done).into(),
        paced_bytes,
        &paced_session.capture,
        "paced",
        &mut outcome,
    );

    // Restore: the saturation session's wire stream through the public
    // decoder, in this process.
    restore_phase(
        workload,
        session.keys(),
        &session.capture,
        &prepared.saturation_expected,
        tracer,
        &mut outcome,
    )?;
    restore_and_check(
        workload,
        paced_session.keys(),
        &paced_session.capture,
        &prepared.paced.expected,
        "paced",
        tracer,
        &mut outcome,
    )?;

    // Teardown.
    drop(session);
    drop(paced_session);
    outcome.peak_rss_mib = procfs::peak_rss_mib(pid).ok_or("reading SUT peak memory")?;
    outcome.check(sut.stop()? == 0, "the SUT reported failed streams");
    if workload.durable {
        std::fs::remove_dir_all(store_root(&tag))
            .map_err(|e| format!("removing the store: {e}"))?;
    }
    tracer.end();
    Ok(outcome)
}

/// State the in-process stream's two sinks share.
#[derive(Default)]
struct InprocSink {
    capture: Capture,
    flow: FlowAcct,
    sampling: bool,
    latencies_ns: Vec<u64>,
    /// Clock readings per window of restored input (saturation phase).
    marks: Option<RateMarks>,
}

/// Pushes `feed`'s records through a fresh in-process `PipelinedStream`
/// built by `EngineBuilder`, capturing everything it emits.
fn inproc_stream(
    sink: &RefCell<InprocSink>,
    feed: impl FnOnce(&mut dyn FnMut(&[u8]) -> Result<(), String>) -> Result<(), String>,
) -> Result<StreamSummary, String> {
    let engine = EngineBuilder::new()
        .config(engine_config(SpawnPolicy::Threads))
        .pipelined(PIPELINE_DEPTH)
        .build()
        .map_err(crate::err)?;
    // The stream's worker thread inherits the placement of its creator.
    pin_current_thread(sut_cpu());
    let stream = PipelinedStream::with_control_sink(
        engine,
        BATCH_CHUNKS,
        |packet_type: PacketType, bytes: &[u8]| {
            let mut sink = sink.borrow_mut();
            let InprocSink {
                capture,
                flow,
                sampling,
                latencies_ns,
                marks,
            } = &mut *sink;
            capture.payload(0, None, packet_type, bytes);
            flow.credit(
                payload_credit(None, packet_type, bytes.len()),
                *sampling,
                latencies_ns,
            );
            if let Some(marks) = marks {
                marks.advance(flow.acked);
            }
        },
        Some(|update: &DictionaryUpdate| sink.borrow_mut().capture.control(0, update.clone())),
    )
    .map_err(crate::err);
    pin_current_thread(GENERATOR_CPU);
    let mut stream = stream?;
    feed(&mut |record| stream.push_record(record).map_err(crate::err))?;
    let (_engine, summary) = stream.finish().map_err(crate::err)?;
    Ok(summary)
}

/// One repetition of the in-process workload; the "system under test" is
/// this process, so processor time and peak memory are its own.
pub fn inproc_rep(
    workload: &Workload,
    trace: &Trace,
    prepared: &Prepared,
    rep: usize,
    tracer: &mut Tracer,
) -> Result<RepOutcome, String> {
    let mut outcome = RepOutcome::default();
    let pid = std::process::id();
    let keys = [FlowKey::new(0, 0)];
    tracer.set_rep(rep);
    tracer.begin("rep");

    // Pushes a window record by record, with one span per engine batch.
    let push_window =
        |window: Window, tracer: &mut Tracer, push: &mut dyn FnMut(&[u8]) -> Result<(), String>| {
            let mut span = tracer.start();
            for index in window.start..window.start + window.records {
                push(trace.record(index).1)?;
                if (index + 1) % BATCH_CHUNKS == 0 {
                    tracer.leaf("engine.push_batch", span);
                    span = tracer.start();
                }
            }
            Ok(())
        };
    let check_summary = |summary: &StreamSummary,
                         sent: u64,
                         sink: &InprocSink,
                         what: &str,
                         outcome: &mut RepOutcome| {
        check_done(summary.into(), sent, &sink.capture, what, outcome);
    };

    tracer.begin("setup");
    let setup_clock = Instant::now();
    let sink = RefCell::new(InprocSink::default());
    let summary = inproc_stream(&sink, |push| push_window(prepared.warm, tracer, push))?;
    let warm = sink.into_inner();
    outcome.attempted += prepared.warm.records as u64;
    check_summary(
        &summary,
        (prepared.warm.records * trace.record_bytes) as u64,
        &warm,
        "setup",
        &mut outcome,
    );
    restore_and_check(
        workload,
        &keys,
        &warm.capture,
        &prepared.warm_expected,
        "setup",
        tracer,
        &mut outcome,
    )?;
    outcome.setup_s = setup_clock.elapsed().as_secs_f64();
    drop(warm);
    tracer.end();

    tracer.begin("saturation");
    let sink = RefCell::new(InprocSink::default());
    let probe_before = tracer.enabled().then(|| Probe::sample(pid));
    let cpu_before = procfs::cpu_ms(pid).ok_or("reading own processor time")?;
    let clock = Instant::now();
    let mut cpu_after = None;
    let summary = inproc_stream(&sink, |push| {
        sink.borrow_mut().marks = Some(RateMarks::start(0));
        push_window(prepared.saturation, tracer, push)?;
        // Before `finish` joins the worker thread, so it is still counted.
        cpu_after = procfs::cpu_ms(pid).map(|ms| (ms, sink.borrow().flow.acked));
        if let Some(before) = probe_before {
            outcome.probe = before.until_now(pid);
        }
        Ok(())
    })?;
    let (cpu_after, cpu_bytes) = cpu_after.ok_or("reading own processor time")?;
    tracer.end();
    let saturated = sink.into_inner();
    let saturation_bytes = (prepared.saturation.records * trace.record_bytes) as u64;
    outcome.attempted += prepared.saturation.records as u64;
    outcome.saturation_records = prepared.saturation.records as u64;
    outcome.saturation_events = saturated.capture.payloads() + saturated.capture.controls();
    let (mbps, last_mark) = saturated
        .marks
        .as_ref()
        .and_then(RateMarks::median_mbps)
        .ok_or("saturation phase shorter than one rate window")?;
    outcome.saturation_seconds = last_mark.duration_since(clock).as_secs_f64();
    outcome.ingest_mbps = mbps;
    outcome.cpu_ms_per_mib = (cpu_after - cpu_before) / (cpu_bytes as f64 / MIB);
    outcome.wire_ratio = summary.bytes_in as f64 / summary.wire_bytes as f64;
    outcome.exact = [
        summary.wire_bytes,
        summary.payloads_emitted,
        summary.control_updates,
    ];
    check_summary(
        &summary,
        saturation_bytes,
        &saturated,
        "saturation",
        &mut outcome,
    );

    tracer.begin("paced");
    let sink = RefCell::new(InprocSink {
        sampling: true,
        ..InprocSink::default()
    });
    let mut paced = PacedOutcome::default();
    let summary = inproc_stream(&sink, |push| {
        let start = Instant::now() + BURST_INTERVAL;
        for (k, (_, pieces)) in prepared.paced.bursts.iter().enumerate() {
            let due = start + BURST_INTERVAL * k as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            if due.elapsed() > LATE_AFTER {
                paced.late += 1;
            }
            let span = tracer.start();
            for piece in pieces {
                push(&trace.record(piece.record as usize).1[..piece.len as usize])?;
            }
            tracer.leaf("engine.push_batch", span);
            let mut sink = sink.borrow_mut();
            sink.flow.sent += pieces.iter().map(|p| u64::from(p.len)).sum::<u64>();
            sink.flow.burst_sent(due);
            paced.bursts += 1;
        }
        // As on the sockets: the tail is released by `finish`, unsampled.
        sink.borrow_mut().sampling = false;
        Ok(())
    })?;
    tracer.end();
    let mut paced_sink = sink.into_inner();
    paced.latencies_ns = std::mem::take(&mut paced_sink.latencies_ns);
    outcome.set_bursts(paced);
    let paced_bytes: u64 = prepared.paced.expected.iter().map(|(len, _)| len).sum();
    check_summary(&summary, paced_bytes, &paced_sink, "paced", &mut outcome);

    restore_phase(
        workload,
        &keys,
        &saturated.capture,
        &prepared.saturation_expected,
        tracer,
        &mut outcome,
    )?;
    restore_and_check(
        workload,
        &keys,
        &paced_sink.capture,
        &prepared.paced.expected,
        "paced",
        tracer,
        &mut outcome,
    )?;

    outcome.peak_rss_mib = procfs::peak_rss_mib(pid).ok_or("reading own peak memory")?;
    tracer.end();
    Ok(outcome)
}

/// One repetition of `workload`.
pub fn run_rep(
    workload: &Workload,
    trace: &Trace,
    prepared: &Prepared,
    rep: usize,
    tracer: &mut Tracer,
) -> Result<RepOutcome, String> {
    match workload.transport {
        Transport::InProcess => inproc_rep(workload, trace, prepared, rep, tracer),
        Transport::Tcp | Transport::Uds => socket_rep(workload, trace, prepared, rep, tracer),
    }
}
