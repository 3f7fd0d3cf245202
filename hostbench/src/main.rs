//! hostbench: wall-clock and per-layer benchmark of the hostnet simulator.
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Every run first makes one audited run (`SimConfig::audit`) whose report
//! digest is the reference; every later run must reproduce it. With
//! `--trace 0` it then times setup (`World::new` + `Scenario::install`) and
//! the fixed simulated window (`World::try_run`) until `--seconds` are
//! spent and reports the end-to-end metrics, each run's times calibrated
//! by the reference kernel timed around it (`reference.rs`), so that the
//! host's drift in speed mostly cancels. With `--trace 1` it reports
//! the per-layer metrics instead: counts read off the run's `World` and
//! `Report`, one probe per layer, and a final traced run whose spans are
//! written to `.hostbench/`. The last line of stdout is one JSON object;
//! see `README.md` for the metrics and how to read the spans.

mod alloc;
mod probes;
mod reference;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration as Wall, Instant};

use hns_metrics::Report;
use hns_stack::{SimConfig, World};

use probes::PROBES;
use spans::SpanRecorder;
use stats::{digest, Summary};
use workloads::{lifecycle_sampling, Workload};

/// Version of the output schema (header line and metric set).
const SCHEMA: &str = "hostbench/1";

/// Where the traced run's spans are written, relative to the working
/// directory.
const SPAN_DIR: &str = ".hostbench";

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 3] = [("run_s", "s"), ("setup_s", "s"), ("peak_heap_mb", "MB")];

/// Per-layer metrics (`--trace 1`), with units, in reporting order.
const PER_LAYER: [(&str, &str); 40] = [
    ("run_wall_s", "s"),
    ("host.ref_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.queue_near_ns", "ns"),
    ("sim.heap_near_ns", "ns"),
    ("sim.near_ratio", "ratio"),
    ("sim.queue_cancel_ns", "ns"),
    ("sim.queue_spill_ns", "ns"),
    ("sim.heap_spill_ns", "ns"),
    ("sim.spill_ratio", "ratio"),
    ("sim.hist_ns", "ns"),
    ("alloc.per_kevent", "1/kevent"),
    ("stack.skbs", "count"),
    ("stack.bytes_per_skb", "B"),
    ("stack.gro_offer_ns", "ns"),
    ("stack.fabric_tx_ns", "ns"),
    ("stack.fabric_tx2_ns", "ns"),
    ("nic.link_tx_ns", "ns"),
    ("mem.dca_ns", "ns"),
    ("proto.retransmits", "count"),
    ("drops.wire", "count"),
    ("drops.switch", "count"),
    ("drops.nic", "count"),
    ("drops.backlog", "count"),
    ("drops.socket", "count"),
    ("drops.conn", "count"),
    ("sched.pick_ns", "ns"),
    ("conn.opened", "count"),
    ("conn.failed", "count"),
    ("conn.slot_reuse", "count"),
    ("conn.syn_cookies", "count"),
    ("conn.accept_overflows", "count"),
    ("conn.idle_reaped", "count"),
    ("conn.table_ns", "ns"),
    ("monitor.snapshots", "count"),
    ("monitor.sketch_ns", "ns"),
    ("trace.overflow", "count"),
    ("trace.overhead", "ratio"),
    ("fail_ratio", "ratio"),
];

/// Fewest timed runs behind a median, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

/// Share of `--seconds` the per-layer mode spends on untraced timed runs;
/// the probes share what is left after them and the traced run.
const LAYER_RUN_SHARE: f64 = 0.35;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str = "usage: hostbench --workload <single_long|incast16_ecn|churn_capacity> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) = (None, 1, 10.0, false, false);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("seconds in (0, 3600]"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut bench = Bench::new(args);
    let metrics = if bench.args.trace {
        bench.per_layer()
    } else {
        bench.end_to_end()
    };
    bench.finish(&metrics);
    ExitCode::SUCCESS
}

/// One completed simulated run.
struct Sim {
    world: World,
    report: Report,
    digest: u64,
    run_s: f64,
    peak_bytes: u64,
    allocs: u64,
}

/// Build and run `workload` under `cfg`, timing the run and tracking the
/// peak heap over setup and run. A `RunError` or panic is an `Err`.
fn simulate(workload: Workload, cfg: SimConfig, smoke: bool) -> Result<Sim, String> {
    let (warmup, measure) = workload.windows(smoke);
    catch_unwind(AssertUnwindSafe(|| {
        let base = alloc::reset_peak();
        let mut world = workload.new_world(cfg);
        workload.install(&mut world);
        let a0 = alloc::allocs();
        let t1 = Instant::now();
        let result = world.try_run(warmup, measure);
        let run_s = t1.elapsed().as_secs_f64();
        let allocs = alloc::allocs() - a0;
        let peak_bytes = alloc::peak_above(base);
        let report = result.map_err(|e| format!("run error: {e}"))?;
        Ok(Sim {
            digest: digest(report.to_json().as_bytes()),
            world,
            report,
            run_s,
            peak_bytes,
            allocs,
        })
    }))
    .unwrap_or_else(|_| Err("panicked".into()))
}

/// Timed untraced runs: the first run whole, and every run's samples.
/// `run_s` and `setup_s` are calibrated against the reference kernel;
/// `wall_s` and `ref_s` are the raw wall times behind them.
struct Timed {
    first: Option<Sim>,
    run_s: Vec<f64>,
    wall_s: Vec<f64>,
    ref_s: Vec<f64>,
    peak_mb: Vec<f64>,
    setup_s: Vec<f64>,
}

/// Runs attempted and failed, against the audited run's report digest.
struct Bench {
    args: Args,
    start: Instant,
    attempted: u64,
    failed: u64,
    reference: Option<u64>,
}

impl Bench {
    fn new(args: Args) -> Self {
        let bench = Bench {
            start: Instant::now(),
            attempted: 0,
            failed: 0,
            reference: None,
            args,
        };
        println!("{}", bench.header());
        bench
    }

    /// `share` of `--seconds` after start; in smoke mode, the start (so
    /// every loop stops at its minimum count).
    fn deadline(&self, share: f64) -> Instant {
        let share = if self.args.smoke { 0.0 } else { share };
        self.start + Wall::from_secs_f64(self.args.seconds * share)
    }

    fn config(&self) -> SimConfig {
        self.args.workload.config(self.args.seed)
    }

    /// Count one run; it fails on an error or a digest that differs from
    /// the reference (the first digest seen when none is set yet).
    fn check(&mut self, label: &str, run: Result<Sim, String>) -> Option<Sim> {
        self.attempted += 1;
        let sim = match run {
            Ok(sim) => sim,
            Err(e) => {
                self.failed += 1;
                eprintln!("FAIL {label}: {e}");
                return None;
            }
        };
        let want = *self.reference.get_or_insert(sim.digest);
        if sim.digest != want {
            self.failed += 1;
            eprintln!(
                "FAIL {label}: report digest {:016x} != reference {want:016x}",
                sim.digest
            );
        }
        Some(sim)
    }

    /// The audited run: conservation ledgers checked at every quiesce
    /// point. Its digest is the reference every later run must match.
    fn audited_run(&mut self) {
        let cfg = SimConfig {
            audit: true,
            ..self.config()
        };
        if let Some(sim) = self.check(
            "audited run",
            simulate(self.args.workload, cfg, self.args.smoke),
        ) {
            let r = &sim.report;
            println!(
                "digest {} seed={} {:016x} total_gbps={} thpt_per_core_gbps={} drops.total={}",
                self.args.workload.name(),
                self.args.seed,
                sim.digest,
                r.total_gbps,
                r.thpt_per_core_gbps,
                r.drops.total()
            );
        }
    }

    /// Timed untraced runs until `deadline` (at least [`MIN_RUNS`]). Only
    /// the first run's `World` is kept, for its counts. With `setup`, each
    /// run is followed by a burst of setup samples lasting a ninth of its
    /// run time, so setup is sampled across the whole measuring period.
    ///
    /// The reference kernel is timed before the first run and after every
    /// run (and its setup burst). Each run's times are scaled by
    /// `reference::NOMINAL_S` over the mean of the two kernel timings
    /// around it, which takes out most of the host's drift in speed.
    fn timed_runs(&mut self, deadline: Instant, setup: bool) -> Timed {
        let mut t = Timed {
            first: None,
            run_s: Vec::new(),
            wall_s: Vec::new(),
            ref_s: vec![reference::time()],
            peak_mb: Vec::new(),
            setup_s: Vec::new(),
        };
        let min = if self.args.smoke { 2 } else { MIN_RUNS };
        let mut burst = Vec::new();
        while t.run_s.len() < min || Instant::now() < deadline {
            let label = format!("timed run {}", t.run_s.len() + 1);
            let run = simulate(self.args.workload, self.config(), self.args.smoke);
            let checked = self.check(&label, run);
            burst.clear();
            if let (Some(sim), true) = (&checked, setup) {
                self.setup_burst(&mut burst, Wall::from_secs_f64(sim.run_s / 9.0));
            }
            let before = t.ref_s[t.ref_s.len() - 1];
            let after = reference::time();
            t.ref_s.push(after);
            let scale = reference::NOMINAL_S / ((before + after) / 2.0);
            if let Some(sim) = checked {
                t.run_s.push(sim.run_s * scale);
                t.wall_s.push(sim.run_s);
                t.setup_s.extend(burst.iter().map(|s| s * scale));
                t.peak_mb.push(sim.peak_bytes as f64 / 1e6);
                t.first.get_or_insert(sim);
            }
            if self.attempted > 3 * (t.run_s.len() as u64 + 1) {
                break; // mostly failing: stop, the result is already wrong
            }
        }
        t
    }

    /// Time `World::new` + `Scenario::install` repeatedly for `budget`
    /// (at least 10 times), appending each setup's seconds to `samples`.
    fn setup_burst(&self, samples: &mut Vec<f64>, budget: Wall) {
        let w = self.args.workload;
        let cfg = self.config();
        let start = Instant::now();
        for i in 0.. {
            if i >= 10 && start.elapsed() >= budget {
                break;
            }
            let t0 = Instant::now();
            let mut world = w.new_world(cfg);
            w.install(&mut world);
            samples.push(t0.elapsed().as_secs_f64());
            drop(world);
        }
    }

    /// `--trace 0`: setup, run and peak heap over untraced runs.
    fn end_to_end(&mut self) -> Vec<(&'static str, f64)> {
        self.audited_run();
        let runs = self.timed_runs(self.deadline(1.0), true);
        let mut out = Vec::new();
        if runs.first.is_none() {
            return out;
        }
        for (name, samples) in [
            ("run_s", runs.run_s),
            ("setup_s", runs.setup_s),
            ("peak_heap_mb", runs.peak_mb),
            ("run_wall_s", runs.wall_s),
            ("host.ref_s", runs.ref_s),
        ] {
            let s = Summary::of(&samples);
            println!(
                "{name} median {} q1 {} q3 {} n {}",
                s.median, s.q1, s.q3, s.n
            );
            out.push((name, s.median));
        }
        out
    }

    /// `--trace 1`: counts from one untraced run, run-time medians, every
    /// probe, and the traced run.
    fn per_layer(&mut self) -> Vec<(&'static str, f64)> {
        self.audited_run();
        let runs = self.timed_runs(self.deadline(LAYER_RUN_SHARE), false);
        let Some(first) = &runs.first else {
            return Vec::new();
        };
        let run_s = Summary::of(&runs.wall_s);
        let mut m = layer_counts(first, run_s.median);
        m.push(("run_wall_s", run_s.median));
        m.push(("host.ref_s", Summary::of(&runs.ref_s).median));

        // Leave room for the traced run (about two untraced runs' time).
        let traced_at = self.deadline(1.0) - Wall::from_secs_f64(2.0 * run_s.median);
        let left = traced_at.saturating_duration_since(Instant::now());
        let budget = left / PROBES.len() as u32;
        for p in &PROBES {
            m.push((p.name, p.measure(self.args.seed, budget, self.args.smoke)));
        }
        let ratio = |m: &[(&str, f64)], a: &str, b: &str| value(m, a) / value(m, b);
        m.push((
            "sim.near_ratio",
            ratio(&m, "sim.queue_near_ns", "sim.heap_near_ns"),
        ));
        m.push((
            "sim.spill_ratio",
            ratio(&m, "sim.queue_spill_ns", "sim.heap_spill_ns"),
        ));

        let (overflow, overhead) = self.traced_run(first, run_s.median);
        m.push(("trace.overflow", overflow));
        m.push(("trace.overhead", overhead));
        m.push((
            "fail_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
        ));
        m
    }

    /// One run with the span recorder and lifecycle sampling on. Returns
    /// (`trace.overflow`, traced run time over `untraced_run_s`).
    fn traced_run(&mut self, untraced: &Sim, untraced_run_s: f64) -> (f64, f64) {
        let w = self.args.workload;
        let (warmup, measure) = w.windows(self.args.smoke);
        let cfg = SimConfig {
            trace: lifecycle_sampling(),
            ..self.config()
        };
        let run_id = format!(
            "{}-seed{}-pid{}",
            w.name(),
            self.args.seed,
            std::process::id()
        );
        let mut rec = SpanRecorder::new(run_id);
        let root = rec.start("workload", None);
        let (_, mut world) = rec.record("setup", Some(root), || w.new_world(cfg));
        rec.record("install", Some(root), || w.install(&mut world));
        let (run_span, result) = rec.record("run", Some(root), || {
            catch_unwind(AssertUnwindSafe(|| world.try_run(warmup, measure)))
        });
        self.attempted += 1;
        let report = match result {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => return self.traced_failed(format!("run error: {e}")),
            Err(_) => return self.traced_failed("panicked".into()),
        };
        let (_, json) = rec.record("report.to_json", Some(root), || report.to_json());
        let collector = world.take_trace();
        let (_, export) = rec.record("trace.export", Some(root), || {
            hns_trace::export::to_jsonl(&collector)
        });
        rec.end(root);
        std::hint::black_box(export);

        // Tracing only adds report keys: what moved must not change. When
        // the workload already traces, the whole report must match.
        let same = if cfg.trace == self.config().trace {
            digest(json.as_bytes()) == untraced.digest
        } else {
            behaviour(&report) == behaviour(&untraced.report)
        };
        if !same {
            return self.traced_failed("behaviour differs from the untraced run".into());
        }
        let path = format!("{SPAN_DIR}/spans-{}-seed{}.jsonl", w.name(), self.args.seed);
        match std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, rec.to_jsonl()))
        {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }
        let overhead = rec.seconds(run_span) / untraced_run_s;
        (report.trace_overflow as f64, overhead)
    }

    fn traced_failed(&mut self, why: String) -> (f64, f64) {
        self.failed += 1;
        eprintln!("FAIL traced run: {why}");
        (0.0, 0.0)
    }

    /// Host fingerprint and run parameters, as one JSON line.
    fn header(&self) -> String {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\
             \"trace\":{},\"smoke\":{},\"host\":{{\"nproc\":{nproc},\"cpu_model\":{},\
             \"rustc\":{},\"git_commit\":{},\"profile\":\"{profile}\"}}}}",
            self.args.workload.name(),
            self.args.seed,
            self.args.seconds,
            u8::from(self.args.trace),
            self.args.smoke,
            json_str(&cpu),
            json_str(env!("HOSTBENCH_RUSTC")),
            json_str(&git_commit()),
        )
    }

    /// Print the metric lines and the final result object.
    fn finish(&self, metrics: &[(&'static str, f64)]) {
        let names: &[(&str, &str)] = if self.args.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        };
        let complete = names
            .iter()
            .all(|(n, _)| metrics.iter().any(|(m, _)| m == n));
        let correct = self.failed == 0 && complete;
        println!(
            "fail_ratio {} ({} failed / {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let mut obj = String::new();
        for (name, unit) in names {
            let v = value(metrics, name);
            println!("metric {name} = {v} {unit}");
            if !obj.is_empty() {
                obj.push_str(", ");
            }
            let _ = write!(obj, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{obj}}}}}",
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Counts read off one untraced run, plus the rates derived from its
/// median run time.
fn layer_counts(sim: &Sim, run_s: f64) -> Vec<(&'static str, f64)> {
    let r = &sim.report;
    let events = sim.world.events_processed() as f64;
    let skbs: u64 = r.skb_size_hist.iter().map(|&(_, n)| n).sum();
    let d = r.drops.by_layer();
    let conn = r.conn.unwrap_or_default();
    let cap = r.capacity.clone().unwrap_or_default();
    vec![
        ("sim.events", events),
        ("sim.events_per_s", events / run_s),
        (
            "alloc.per_kevent",
            sim.allocs as f64 / (events / 1e3).max(1e-3),
        ),
        ("stack.skbs", skbs as f64),
        ("stack.bytes_per_skb", r.avg_skb_bytes),
        ("proto.retransmits", r.retransmissions as f64),
        ("drops.wire", d.wire as f64),
        ("drops.switch", d.switch as f64),
        ("drops.nic", d.nic as f64),
        ("drops.backlog", d.backlog as f64),
        ("drops.socket", d.socket as f64),
        ("drops.conn", d.conn as f64),
        ("conn.opened", conn.opened as f64),
        ("conn.failed", conn.failed as f64),
        ("conn.slot_reuse", conn.table_slot_reuse as f64),
        ("conn.syn_cookies", cap.syn_cookies as f64),
        ("conn.accept_overflows", cap.accept_overflows as f64),
        ("conn.idle_reaped", cap.idle_reaped as f64),
        (
            "monitor.snapshots",
            r.monitor.as_ref().map_or(0, |m| m.snapshots) as f64,
        ),
    ]
}

/// What tracing must never change: bytes moved, losses, retransmits.
fn behaviour(r: &Report) -> (u64, u64, u64, u64) {
    (
        r.delivered_bytes,
        r.drops.total(),
        r.retransmissions,
        r.rpcs_completed,
    )
}

/// Value of metric `name`; 0 when absent (the result is then incorrect).
fn value(metrics: &[(&str, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| if v.is_finite() { v } else { 0.0 })
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Commit of the checkout in the working directory, when it is a git
/// repository; "unknown" otherwise.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
