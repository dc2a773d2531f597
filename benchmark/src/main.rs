//! End-to-end benchmark and per-layer ladder over the ZipLine host-side
//! stack. See `README.md` for what every metric times and excludes.
//!
//! ```text
//! zipline-benchmark bench --workload W --seed N --seconds S --trace 0|1
//! zipline-benchmark run   [--seed N] [--seconds S] [--quick]
//! zipline-benchmark trace [--seed N] [--seconds S] [--quick]
//! zipline-benchmark noise [--runs N] [--seed N] [--seconds S] [--vary-seed]
//! zipline-benchmark manifest
//! ```

mod affinity;
mod capture;
mod client;
mod inputs;
mod ladder;
mod metrics;
mod procfs;
mod rep;
mod spans;
mod spec;
mod stats;
mod sut;

use std::fmt::Write as _;
use std::process::ExitCode;

use inputs::Trace;
use metrics::{per_layer, END_TO_END};
use rep::{run_rep, Prepared, RepOutcome};
use spans::Tracer;
use spec::{workload, Plan, Workload, BATCH_BYTES, LADDER_BYTES, REPS, WORKLOADS};
use stats::{median, quantile_us, quartiles};

/// Seed and measured seconds used when the command line names none; the
/// seconds match `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 12;

/// An error of any layer as the text the benchmark reports it with.
fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What one run of one workload reports.
struct Report {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in table order.
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn new(workload: &Workload) -> Self {
        Self {
            workload: workload.name,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, value, _)| value.is_finite())
    }

    /// The one-line JSON result the driver reads.
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    fn print_table(&self) {
        println!("## {}", self.workload);
        for (name, value, unit) in &self.metrics {
            println!("{name:<46} {value:>14.4} {unit}");
        }
        for note in &self.notes {
            println!("# {note}");
        }
        println!(
            "# operations attempted {} failed {}",
            self.attempted, self.failed
        );
    }
}

/// Generates the inputs of a run and fixes its phases, all before any clock.
fn prepare(workload: &Workload, seed: u64, seconds: u64, quick: bool) -> (Plan, Trace, Prepared) {
    let plan = Plan::new(workload, seconds, quick);
    let needed = plan.warm_bytes + plan.saturation_bytes + plan.paced_bursts * BATCH_BYTES;
    let trace = inputs::generate(workload, seed, needed);
    // Another seed must give other bytes, or the seed argument means nothing.
    let probe = 64 * BATCH_BYTES;
    assert!(
        inputs::generate(workload, seed, probe).bytes
            != inputs::generate(workload, seed.wrapping_add(1), probe).bytes,
        "seeds {seed} and {} generate the same input",
        seed.wrapping_add(1)
    );
    let prepared = Prepared::new(&trace, &plan);
    (plan, trace, prepared)
}

fn medians(outcomes: &[RepOutcome], pick: impl Fn(&RepOutcome) -> f64) -> f64 {
    median(&outcomes.iter().map(pick).collect::<Vec<_>>())
}

/// The end-to-end run: every repetition untraced, medians over them.
fn end_to_end(workload: &'static Workload, seed: u64, seconds: u64, quick: bool) -> Report {
    let (plan, trace, prepared) = prepare(workload, seed, seconds, quick);
    let mut report = Report::new(workload);
    let mut outcomes = Vec::new();
    for rep in 0..plan.reps {
        match run_rep(workload, &trace, &prepared, rep, &mut Tracer::off()) {
            Ok(outcome) => outcomes.push(outcome),
            Err(e) => {
                eprintln!("{} rep {rep} failed: {e}", workload.name);
                report.attempted += 1;
                report.failed += 1;
            }
        }
    }
    for outcome in &outcomes {
        report.attempted += outcome.attempted;
        report.failed += outcome.failed;
    }
    let Some(first) = outcomes.first() else {
        return report;
    };
    // The same seed must give the same wire bytes, payloads and control
    // updates every time.
    if outcomes.iter().any(|o| o.exact != first.exact) {
        eprintln!(
            "{}: wire_ratio or a count differed between repetitions",
            workload.name
        );
        report.failed += 1;
    }
    // The burst percentile is taken per repetition and the median over the
    // repetitions is reported: a slow spell of the sandbox piles up a
    // backlog in an open loop and ruins the repetition it hits, and three
    // clean repetitions out of five are enough this way.
    let burst_us = |q: f64| medians(&outcomes, |o| quantile_us(&o.burst_latencies_ns, q));
    let mut pooled: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.burst_latencies_ns.iter().copied())
        .collect();
    pooled.sort_unstable();
    let values = [
        medians(&outcomes, |o| o.ingest_mbps),
        medians(&outcomes, |o| o.restore_mbps),
        burst_us(0.50),
        medians(&outcomes, |o| o.wire_ratio),
        medians(&outcomes, |o| o.cpu_ms_per_mib),
        medians(&outcomes, |o| o.peak_rss_mib),
        medians(&outcomes, |o| o.setup_s),
    ];
    for (metric, value) in END_TO_END.iter().zip(values) {
        report
            .metrics
            .push((metric.name.to_string(), value, metric.unit));
    }
    let per_rep = |name: &str, pick: fn(&RepOutcome) -> f64| {
        let values: Vec<String> = outcomes.iter().map(|o| format!("{:.3}", pick(o))).collect();
        format!("{name} per rep: {}", values.join(" "))
    };
    report.notes.extend([
        per_rep("ingest_mbps", |o| o.ingest_mbps),
        per_rep("restore_mbps", |o| o.restore_mbps),
        per_rep("sut_cpu_ms_per_mib", |o| o.cpu_ms_per_mib),
        per_rep("setup_s", |o| o.setup_s),
        format!(
            "bursts, us: median over reps of p90 {:.0}, of p99 {:.0}; all {} pooled: p50 {:.0} p90 {:.0} p99 {:.0} p99.9 {:.0} max {:.0}",
            burst_us(0.90),
            burst_us(0.99),
            pooled.len(),
            quantile_us(&pooled, 0.5),
            quantile_us(&pooled, 0.9),
            quantile_us(&pooled, 0.99),
            quantile_us(&pooled, 0.999),
            quantile_us(&pooled, 1.0)
        ),
    ]);
    let bursts: u64 = outcomes.iter().map(|o| o.bursts).sum();
    let late: u64 = outcomes.iter().map(|o| o.late_bursts).sum();
    report.notes.push(format!(
        "{} reps; per rep: set-up slice {} B, saturation {} B, {} bursts; burst samples {}; paced.late_share {:.4}",
        outcomes.len(),
        plan.warm_bytes,
        plan.saturation_bytes,
        plan.paced_bursts,
        pooled.len(),
        late as f64 / bursts.max(1) as f64,
    ));
    report
}

/// The traced run: one untraced and one traced repetition of the real
/// workload (their difference is the tracing overhead), then the ladder.
fn traced(workload: &'static Workload, seed: u64, seconds: u64, quick: bool) -> Report {
    let (_, trace, prepared) = prepare(workload, seed, seconds, quick);
    let mut report = Report::new(workload);
    let mut tracer = Tracer::on();
    let run = run_rep(workload, &trace, &prepared, 0, &mut Tracer::off()).and_then(|plain| {
        let spanned = run_rep(workload, &trace, &prepared, 1, &mut tracer)?;
        let window = inputs::Window {
            start: prepared.saturation.start,
            records: prepared
                .saturation
                .records
                .min(LADDER_BYTES / trace.record_bytes),
        };
        let layers = ladder::run(workload, &trace, window, &mut tracer)?;
        Ok((plain, spanned, layers))
    });
    let (plain, spanned, layers) = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{} traced run failed: {e}", workload.name);
            report.attempted = 1;
            report.failed = 1;
            return report;
        }
    };
    report.attempted = plain.attempted + spanned.attempted;
    report.failed = plain.failed + spanned.failed;

    // Client-side figures from the traced repetition's saturation spans.
    // In process, one span covers one pushed engine batch.
    let send_ns = tracer.total_ns_within("client.send", "saturation")
        + tracer.total_ns_within("engine.push_batch", "saturation");
    let wait_ns = tracer.total_ns_within("client.wait", "saturation");
    let records = spanned.saturation_records.max(1) as f64;
    let spanned_burst_us = |q: f64| quantile_us(&spanned.burst_latencies_ns, q);
    let saturation_mib =
        (prepared.saturation.records * trace.record_bytes) as f64 / (1u64 << 20) as f64;
    let mut values: Vec<(String, f64)> = layers;
    values.extend([
        (
            "server.ctx_switches_per_mib".to_string(),
            spanned.probe.context_switches as f64 / saturation_mib,
        ),
        ("server.threads".to_string(), spanned.probe.threads as f64),
        (
            "client.send.ns_per_record".to_string(),
            send_ns as f64 / records,
        ),
        (
            "client.wait_share".to_string(),
            wait_ns as f64 / 1e9 / spanned.saturation_seconds,
        ),
        (
            "client.events_per_record".to_string(),
            spanned.saturation_events as f64 / records,
        ),
        ("paced.p90_us".to_string(), spanned_burst_us(0.90)),
        ("paced.p99_us".to_string(), spanned_burst_us(0.99)),
        (
            "paced.late_share".to_string(),
            spanned.late_bursts as f64 / spanned.bursts.max(1) as f64,
        ),
        (
            "trace.overhead_share".to_string(),
            1.0 - spanned.ingest_mbps / plain.ingest_mbps,
        ),
    ]);
    for layer in per_layer() {
        match values.iter().find(|(name, _)| *name == layer.name) {
            Some((_, value)) => report.metrics.push((layer.name, *value, layer.unit)),
            None => {
                eprintln!(
                    "{}: per-layer metric {} was not measured",
                    workload.name, layer.name
                );
                report.failed += 1;
            }
        }
    }

    let path = sut::out_dir().join(format!("trace-{}.json", workload.name));
    match std::fs::write(&path, tracer.to_json(workload.name)) {
        Ok(()) => report
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => {
            eprintln!("writing {}: {e}", path.display());
            report.failed += 1;
        }
    }
    for (name, total) in tracer.totals() {
        report.notes.push(format!(
            "span {name:<22} count {:>8} total {:>10.3} ms self {:>10.3} ms",
            total.count,
            total.total_ns as f64 / 1e6,
            total.self_ns as f64 / 1e6
        ));
    }
    report.notes.push(format!(
        "ingest_mbps untraced {:.3} traced {:.3}",
        plain.ingest_mbps, spanned.ingest_mbps
    ));
    report
}

/// Command-line options shared by the subcommands.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    runs: usize,
    vary_seed: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        runs: 5,
        vary_seed: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("{text:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value()?.to_string()),
            "--seed" => options.seed = number(value()?)?,
            "--seconds" => options.seconds = number(value()?)?.max(1),
            "--trace" => options.trace = number(value()?)? != 0,
            "--runs" => options.runs = number(value()?)? as usize,
            "--quick" => options.quick = true,
            "--vary-seed" => options.vary_seed = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

/// Runs one workload traced or end to end and prints its table.
fn measure(workload: &'static Workload, options: &Options, trace: bool) -> Report {
    let run = if trace { traced } else { end_to_end };
    let report = run(workload, options.seed, options.seconds, options.quick);
    report.print_table();
    report
}

/// `bench`: one workload, one JSON line last — the driver's entry point.
fn bench(options: &Options) -> Result<bool, String> {
    let name = options
        .workload
        .as_deref()
        .ok_or("bench needs --workload")?;
    let workload = workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let report = measure(workload, options, options.trace);
    println!("{}", report.json());
    Ok(report.correct())
}

/// `run` / `trace`: every workload in turn.
fn all(options: &Options, trace: bool) -> bool {
    println!(
        "# seed {} · {} measured seconds per workload · {} repetitions · {} processors",
        options.seed,
        options.seconds,
        if options.quick || trace { 1 } else { REPS },
        affinity::processors(),
    );
    let mut correct = true;
    for workload in &WORKLOADS {
        correct &= measure(workload, options, trace).correct();
    }
    correct
}

/// `noise`: runs `bench` as the driver would — a fresh process per run —
/// `--runs` times per workload and prints, per end-to-end metric, the
/// median, the quartiles, their distance as a share of the median (the
/// acceptance rule) and (max − min) ÷ median.
fn noise(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(crate::err)?;
    let mut correct = true;
    println!("| workload | metric | median | q1 | q3 | iqr/median | (max-min)/median | bound |");
    println!("|---|---|---|---|---|---|---|---|");
    for workload in &WORKLOADS {
        if options
            .workload
            .as_deref()
            .is_some_and(|w| w != workload.name)
        {
            continue;
        }
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for run in 0..options.runs.max(2) {
            let seed = options.seed + if options.vary_seed { run as u64 } else { 0 };
            let output = std::process::Command::new(&exe)
                .args(["bench", "--workload", workload.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &options.seconds.to_string(), "--trace", "0"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("running bench: {e}"))?;
            correct &= output.status.success();
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            for (metric, values) in END_TO_END.iter().zip(&mut samples) {
                let value = line
                    .split(&format!("\"{}\": {{\"value\": ", metric.name))
                    .nth(1)
                    .and_then(|rest| rest.split(',').next())
                    .and_then(|number| number.parse::<f64>().ok())
                    .ok_or_else(|| format!("no {} in {line:?}", metric.name))?;
                values.push(value);
            }
        }
        for (metric, values) in END_TO_END.iter().zip(&samples) {
            let mid = median(values);
            let (q1, q3) = quartiles(values);
            let max = values.iter().copied().fold(f64::MIN, f64::max);
            let min = values.iter().copied().fold(f64::MAX, f64::min);
            println!(
                "| {} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {} |",
                workload.name,
                metric.name,
                mid,
                q1,
                q3,
                (q3 - q1) / mid,
                (max - min) / mid,
                metric.bound
            );
        }
    }
    Ok(correct)
}

/// `manifest`: prints `BENCHMARK.json` from the tables.
fn manifest() {
    let mut out = String::from("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"bench\"],\n  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(
        out,
        "  \"run_seconds\": {DEFAULT_SECONDS},\n  \"workloads\": ["
    );
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            workload.name, workload.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, metric) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            metric.name, metric.unit, metric.better, metric.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, metric) in layers.iter().enumerate() {
        let comma = if i + 1 == layers.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            metric.name, metric.unit, metric.better
        );
    }
    out.push_str("  ]\n}");
    println!("{out}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: zipline-benchmark bench|run|trace|noise|manifest [options]");
        return ExitCode::from(2);
    };
    if command == "serve" {
        return sut::serve(rest);
    }
    if !affinity::pin_current_thread(affinity::GENERATOR_CPU) {
        eprintln!(
            "zipline-benchmark: could not place the generator on a processor; running unplaced"
        );
    }
    if let Err(e) = std::fs::create_dir_all(sut::out_dir()) {
        eprintln!(
            "zipline-benchmark: creating {}: {e}",
            sut::out_dir().display()
        );
        return ExitCode::from(2);
    }
    let outcome = parse(rest).and_then(|options| match command.as_str() {
        "bench" => bench(&options),
        "run" => Ok(all(&options, false)),
        "trace" => Ok(all(&options, true)),
        "noise" => noise(&options),
        "manifest" => {
            manifest();
            Ok(true)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("zipline-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
