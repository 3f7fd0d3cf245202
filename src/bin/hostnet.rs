//! `hostnet` — command-line front end for the simulator.
//!
//! ```text
//! hostnet run single --level arfs --loss 0.0015 --json
//! hostnet run incast --flows 8
//! hostnet run rpc --clients 16 --size 4096 --remote-server
//! hostnet run mixed --shorts 16
//! hostnet run churn --admission shed --accept-queue 64 --slow-prob 0.25
//! hostnet figures fig06 fig12 --csv
//! hostnet figures figcap --quick --audited
//! hostnet monitor --clients 250 --policy queue --metrics-out metrics.jsonl
//! hostnet audit --runs 200 --seed 1
//! hostnet list
//! ```
//!
//! Argument parsing is hand-rolled (the workspace keeps its dependency
//! surface to the approved set); see [`cli`] for the grammar.

use hostnet::building_blocks::proto::cc::CcAlgo;
use hostnet::building_blocks::sim::Duration;
use hostnet::building_blocks::stack::config::RcvBufPolicy;
use hostnet::building_blocks::stack::DatapathKind;
use hostnet::{Experiment, OptLevel, Placement, ScenarioKind};

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Ok(cmd) => execute(cmd),
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", cli::USAGE);
            ExitCode::from(2)
        }
    }
}

fn execute(cmd: cli::Command) -> ExitCode {
    match cmd {
        cli::Command::Help => {
            println!("{}", cli::USAGE);
            ExitCode::SUCCESS
        }
        cli::Command::List => {
            println!("scenarios:");
            println!("  single       one long flow (paper §3.1)");
            println!("  numa-remote  one long flow on a NIC-remote node (Fig. 4)");
            println!("  one-to-one   n flows, one per core pair (§3.2)     [--flows]");
            println!("  incast       n sender cores → 1 receiver core (§3.3) [--flows]");
            println!("  outcast      1 sender core → n receiver cores (§3.4) [--flows]");
            println!("  all-to-all   x·x flows (§3.5)                       [--flows = x]");
            println!(
                "  rpc          ping-pong RPC incast (§3.7)  [--clients --size --remote-server]"
            );
            println!("  mixed        1 long + n short flows on one core (§3.7) [--shorts --size]");
            println!(
                "  churn        connection-lifecycle churn (hns-conn)  [--churn-rate --churn-mode --churn-conns --size]"
            );
            ExitCode::SUCCESS
        }
        cli::Command::Figures {
            names,
            csv,
            jobs,
            quick,
            audited,
        } => run_figures(&names, csv, jobs, quick, audited),
        cli::Command::Monitor(m) => run_monitor(*m),
        cli::Command::Audit(opts) => {
            let outcome = hostnet::run_audit(&opts);
            if outcome.ok() {
                println!(
                    "audit: {} runs, 0 violations (seed {})",
                    outcome.runs, opts.seed
                );
                ExitCode::SUCCESS
            } else {
                for f in &outcome.failures {
                    eprintln!(
                        "audit FAIL run {} [{}] {}: {}",
                        f.run,
                        f.scenario,
                        f.property.name(),
                        f.detail
                    );
                    eprintln!(
                        "  minimal deltas: {}",
                        f.minimal
                            .iter()
                            .map(|d| d.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    if let Some(p) = &f.repro {
                        eprintln!("  repro written to {}", p.display());
                    }
                }
                eprintln!(
                    "audit: {} runs, {} violation(s) (seed {})",
                    outcome.runs,
                    outcome.failures.len(),
                    opts.seed
                );
                ExitCode::FAILURE
            }
        }
        cli::Command::Run(run) => {
            let mut exp = Experiment::new(run.scenario);
            if let Some(level) = run.level {
                exp = exp.at_level(level);
            }
            exp = exp.configure(|c| {
                c.seed = run.seed;
                c.link.loss = hns_faults::LossModel::uniform(run.loss);
                if let Some(mtu) = run.mtu {
                    c.stack.mtu = mtu;
                }
                if let Some(cc) = run.cc {
                    c.stack.cc = cc;
                }
                if let Some(ring) = run.ring {
                    c.stack.rx_descriptors = ring;
                }
                if let Some(kb) = run.rcvbuf_kb {
                    c.stack.rcvbuf = RcvBufPolicy::Fixed(kb * 1024);
                }
                c.stack.dca = !run.no_dca;
                c.stack.iommu = run.iommu;
                c.stack.zerocopy_tx = run.zerocopy_tx;
                c.stack.zerocopy_rx = run.zerocopy_rx;
                if let Some(dp) = run.datapath {
                    c.datapath = dp;
                }
                if run.trace {
                    c.trace = hostnet::building_blocks::trace::TraceConfig {
                        enabled: true,
                        sample_every: run.trace_sample_every,
                        flow: run.trace_flow,
                        ..hostnet::building_blocks::trace::TraceConfig::DISABLED
                    };
                }
                apply_faults(c, &run);
            });
            exp.warmup = Duration::from_millis(run.warmup_ms);
            exp.measure = Duration::from_millis(run.measure_ms);

            let (report, trace) = match exp.try_run_traced() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("run did not quiesce: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(path) = &run.trace_out {
                use hostnet::building_blocks::trace::export;
                let body = if run.trace_chrome {
                    export::to_chrome(&trace)
                } else {
                    export::to_jsonl(&trace)
                };
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("--trace-out: cannot write `{path}`: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "trace: {} events ({} skbs) written to {path}",
                    trace.events(),
                    trace.summary().skbs
                );
            }
            if run.json {
                println!("{}", report.to_json());
            } else {
                print!(
                    "{}",
                    hostnet::building_blocks::metrics::format_series_table(std::slice::from_ref(
                        &report
                    ))
                );
                println!("\nreceiver breakdown:");
                for (cat, _) in report.receiver.breakdown.iter() {
                    println!(
                        "  {:<12} {:>5.1}%",
                        cat.label(),
                        report.receiver.breakdown.fraction(cat) * 100.0
                    );
                }
                if report.rpcs_completed > 0 {
                    println!(
                        "\nrpcs: {} ({:.0}/s)",
                        report.rpcs_completed,
                        report.rpcs_completed as f64 / report.window_secs
                    );
                }
                if report.retransmissions > 0 {
                    println!(
                        "loss: {} wire drops, {} ring drops, {} retransmissions",
                        report.wire_drops, report.ring_drops, report.retransmissions
                    );
                }
                if report.drops.total() > 0 {
                    let mut parts = Vec::new();
                    for (bucket, n) in report.drops.buckets() {
                        if n > 0 {
                            parts.push(format!("{bucket} {n}"));
                        }
                    }
                    println!(
                        "drop taxonomy: {} ({} frames attributed)",
                        parts.join(", "),
                        report.drops.total()
                    );
                }
                print!(
                    "{}",
                    hostnet::building_blocks::metrics::format_sections(&report)
                );
                if run.trace {
                    if report.stage_latency.is_empty() {
                        println!("\ntrace: no stamped skbs (check --trace-flow / sampling)");
                    } else {
                        println!(
                            "trace: {} events across {} skbs",
                            trace.events(),
                            trace.summary().skbs
                        );
                    }
                }
            }
            ExitCode::SUCCESS
        }
    }
}

/// `hostnet monitor`: run a monitored churn/capacity scenario, printing a
/// live interval line per snapshot (and streaming snapshot JSONL to
/// `--metrics-out`), then every section of the report.
///
/// Builds the [`hostnet::building_blocks::stack::World`] directly rather
/// than going through [`Experiment`]: the emit callback is a closure, which
/// an `Experiment` (being `Clone`) cannot carry. Churn scenarios install no
/// flows or apps, so nothing else from the scenario builder is needed.
fn run_monitor(m: cli::MonitorArgs) -> ExitCode {
    use hostnet::building_blocks::{metrics, monitor, stack, trace};
    use std::cell::{Cell, RefCell};
    use std::io::Write as _;
    use std::rc::Rc;

    let warmup_ms = m.warmup_ms.unwrap_or(if m.quick { 5 } else { 20 });
    let duration_ms = m.duration_ms.unwrap_or(if m.quick { 30 } else { 100 });
    let interval_ms = m.interval_ms.unwrap_or(if m.quick { 5 } else { 10 });

    // The sketches ride the lifecycle tracer's sampler — one instrumentation
    // layer, sampled, not a second one.
    let cfg = stack::SimConfig {
        seed: m.seed,
        churn: Some(m.churn),
        monitor: Some(monitor::MonitorConfig {
            interval: Duration::from_millis(interval_ms),
            ..monitor::MonitorConfig::default()
        }),
        trace: trace::TraceConfig {
            enabled: true,
            sample_every: m.trace_sample,
            ..trace::TraceConfig::DISABLED
        },
        ..stack::SimConfig::default()
    };

    let writer: Option<Rc<RefCell<std::io::BufWriter<std::fs::File>>>> = match &m.metrics_out {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(Rc::new(RefCell::new(std::io::BufWriter::new(f)))),
            Err(e) => {
                eprintln!("--metrics-out: cannot create `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let write_failed = Rc::new(Cell::new(false));

    let mut world = stack::World::new(cfg);
    world.set_label(m.label.clone());
    {
        let writer = writer.clone();
        let write_failed = Rc::clone(&write_failed);
        let live = !m.json;
        world.set_monitor_emit(Box::new(move |s| {
            if live {
                println!("{}", s.human_line());
            }
            if let Some(w) = &writer {
                let mut w = w.borrow_mut();
                // Flush per line so the file is a live stream, not a
                // buffered batch that appears at exit.
                if writeln!(w, "{}", s.to_jsonl())
                    .and_then(|()| w.flush())
                    .is_err()
                {
                    write_failed.set(true);
                }
            }
        }));
    }

    let report = match world.try_run(
        Duration::from_millis(warmup_ms),
        Duration::from_millis(duration_ms),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("monitor run did not quiesce: {e}");
            return ExitCode::FAILURE;
        }
    };
    if write_failed.get() {
        eprintln!(
            "--metrics-out: write to `{}` failed",
            m.metrics_out.as_deref().unwrap_or("?")
        );
        return ExitCode::FAILURE;
    }
    if m.json {
        println!("{}", report.to_json());
    } else {
        println!("\n{}:", m.label);
        print!("{}", metrics::format_sections(&report));
    }
    ExitCode::SUCCESS
}

/// Translate the CLI's `--fault-*` flags into the simulation's fault plan.
/// Scheduled faults (flap, spike, ring, pool, stall) share one window
/// starting at `--fault-at-ms`; resource faults target the receiver host.
fn apply_faults(c: &mut hostnet::building_blocks::stack::SimConfig, run: &cli::RunArgs) {
    use hostnet::building_blocks::faults::{
        CoreStall, LatencySpike, LossModel, PhaseSchedule, PoolPressure, RingExhaust,
    };

    let ms = |v: f64| Duration::from_nanos((v * 1e6) as u64);
    let window = |d: f64| PhaseSchedule::once(ms(run.fault_at_ms), ms(d));

    if run.burst_loss > 0.0 {
        c.link.loss = LossModel::bursty(run.burst_loss, run.burst_len);
    }
    if run.flap_ms > 0.0 {
        c.link.flap = Some(window(run.flap_ms));
    }
    if run.spike_ms > 0.0 {
        c.link.latency_spike = Some(LatencySpike {
            window: window(run.spike_ms),
            extra: Duration::from_micros(100),
        });
    }
    if run.ring_ms > 0.0 {
        c.faults.ring_exhaust = Some(RingExhaust {
            window: window(run.ring_ms),
            host: 1,
        });
    }
    if run.pool_ms > 0.0 {
        c.faults.pool_pressure = Some(PoolPressure {
            window: window(run.pool_ms),
            host: 1,
        });
    }
    if run.stall_ms > 0.0 {
        c.faults.core_stall = Some(CoreStall {
            window: window(run.stall_ms),
            host: 1,
            core: 0,
        });
    }
    c.watchdog_horizon = Duration::from_millis(run.watchdog_ms);
    c.max_backlog = run.max_backlog;
}

/// `hostnet figures`: run the named figures (all when `names` is empty) in
/// registry order as one batch on the sweep pool, then print one CSV of
/// every report or, per figure, its series table, the per-side cycle
/// taxonomies and every present report section. A point whose run fails
/// is named and the command exits 1.
fn run_figures(
    names: &[&str],
    csv: bool,
    jobs: Option<usize>,
    quick: bool,
    audited: bool,
) -> ExitCode {
    use hostnet::building_blocks::{core_figures as figures, metrics, par};
    let mut points = Vec::new();
    let mut blocks = Vec::new();
    for (name, figure) in figures::FIGURES {
        if names.is_empty() || names.contains(&name) {
            let before = points.len();
            points.extend(figure().into_iter().map(|e| {
                let e = if quick { e.quick() } else { e };
                if audited {
                    e.audited()
                } else {
                    e
                }
            }));
            blocks.push((name, points.len() - before));
        }
    }
    let reports = match figures::run(jobs.unwrap_or_else(par::available_jobs), &points) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if csv {
        print!("{}", metrics::reports_to_csv(&reports));
        return ExitCode::SUCCESS;
    }
    let mut rest = reports.as_slice();
    for (i, (name, len)) in blocks.into_iter().enumerate() {
        let (block, tail) = rest.split_at(len);
        rest = tail;
        if i > 0 {
            println!();
        }
        println!("== {name} ==");
        print!("{}", metrics::format_series_table(block));
        let side = |pick: fn(&hostnet::Report) -> &metrics::CycleBreakdown| {
            block
                .iter()
                .map(|r| (r.label.clone(), *pick(r)))
                .collect::<Vec<_>>()
        };
        println!("\nsender cycle taxonomy (fraction of host cycles):");
        print!(
            "{}",
            metrics::format_breakdown_table(&side(|r| &r.sender.breakdown))
        );
        println!("\nreceiver cycle taxonomy (fraction of host cycles):");
        print!(
            "{}",
            metrics::format_breakdown_table(&side(|r| &r.receiver.breakdown))
        );
        for r in block {
            let sections = metrics::format_sections(r);
            if !sections.is_empty() {
                println!("\n{}:", r.label);
                print!("{sections}");
            }
        }
    }
    ExitCode::SUCCESS
}

/// Command-line grammar and parsing.
pub mod cli {
    use super::*;

    /// Top-level usage text.
    pub const USAGE: &str = "\
usage:
  hostnet run <scenario> [options]
  hostnet figures [fig03|fig03e|fig03f|fig03g|fig04|fig05|fig06|fig07|
                   fig08|fig09|fig09b|fig05c|fig10|fig11|fig12|fig13|figcap|
                   figincast|figback|ablations]...
                  [--csv] [--jobs N|auto] [--quick] [--audited]
  hostnet monitor [options]
  hostnet audit [--runs N] [--seed S] [--out DIR] [--quiet]
  hostnet list
  hostnet help

figures (the evaluation sweeps; no names runs every figure, in the order
         above; per figure: series table, per-side cycle taxonomy, and
         every report section a point produced, e.g. figcap's admission
         control, fig05c's connection lifecycle, fig03g's stage residency):
  --csv              one CSV of every report instead of tables
  --jobs N|auto      sweep thread-pool size (output identical for any value)
  --quick            short windows (5ms + 8ms) for smoke runs
  --audited          run every point under the invariant auditor
  figcap             admission policy x concurrent clients at fixed cores
  figincast          switch fan-in through the shared-buffer ToR, ECN off/on
  figback            in-kernel vs TCP offload vs kernel-bypass datapaths

monitor (streaming telemetry: live interval lines + JSONL snapshots,
         quantile sketches fed by the sampled lifecycle tracer):
  --scenario S       capacity | churn                     (default capacity)
  --clients N        capacity clients (400 conn/s each)   (default 250)
  --policy P         capacity admission: drop|queue|shed  (default queue)
  --rate CPS         churn connection arrivals per second (default 100000)
  --rpc-size BYTES   RPC request/response size            (default 4096)
  --rpc-size-dist D  fixed | pareto:<min>:<shape>:<cap>   (default fixed)
  --seed N           RNG seed                             (default 1)
  --warmup-ms N      warmup window                        (default 20)
  --duration-ms N    measured window                      (default 100)
  --interval-ms N    snapshot interval                    (default 10)
  --trace-sample-every N  tracer sampling period feeding the sketches
                          (default 8)
  --metrics-out PATH stream snapshot JSONL to PATH
  --quick            smoke windows (5ms + 30ms, 5ms snapshots)
  --json             emit the final report as JSON (no live lines)

audit (differential config fuzzer, every run under the invariant auditor):
  --runs N           fuzz cases to run                    (default 200)
  --seed S           master seed; case i derives from (S, i)  (default 1)
  --out DIR          directory for minimal-repro files    (default .)
  --quiet            suppress the per-case progress line
  exits non-zero if any case fails; failures are bisected to a minimal
  delta set and written to DIR/audit-repro-s<seed>-r<run>.txt

scenarios: single | numa-remote | one-to-one | incast | outcast |
           all-to-all | rpc | mixed | churn   (see `hostnet list`)

options:
  --flows N          flow count / matrix dimension        (default 8)
  --clients N        RPC clients                          (default 16)
  --size BYTES       RPC request/response size            (default 4096)
  --shorts N         short flows in the mixed scenario    (default 16)
  --remote-server    place the RPC server on a NIC-remote node
  --level L          no-opt | tso-gro | jumbo | arfs      (default arfs)
  --cc ALGO          cubic | bbr | dctcp | reno           (default cubic)
  --loss P           in-network loss probability          (default 0)
  --mtu BYTES        1500..9000                           (default 9000)
  --ring N           NIC Rx descriptors                   (default 512)
  --rcvbuf-kb N      pin the receive buffer (default: Linux auto-tuning)
  --no-dca           disable DDIO
  --iommu            enable the IOMMU
  --zerocopy-tx      MSG_ZEROCOPY sender path (§4)
  --zerocopy-rx      TCP mmap receive path (§4)
  --datapath B       inkernel | toe | bypass datapath backend (§4, default
                     inkernel; toe = on-NIC protocol, bypass = busy-poll)
  --churn-rate CPS   connection arrivals per second       (default 100000)
  --churn-mode M     handshake | rpc | pool               (default handshake)
  --churn-conns N    pool population for --churn-mode pool (default 100000)
  --rpc-size-dist D  per-request size for --churn-mode rpc:
                     fixed | pareto:<min>:<shape>:<cap>   (default fixed)

overload model (churn scenario only; any flag enables it):
  --admission P      accept-path policy: drop | queue | shed  (default drop)
  --accept-queue N   listen/accept queue depth            (default 128)
  --mem-budget-kb N  connection memory budget (0 = unlimited, default 0)
  --idle-timeout-ms T  reap established conns idle longer than T (0 = off)
  --slow-prob P      fraction of clients with heavy-tailed think times
  --seed N           RNG seed                             (default 1)
  --warmup-ms N      warmup window                        (default 20)
  --measure-ms N     measurement window                   (default 30)
  --json             emit the full report as JSON

tracing (any --trace-* flag implies --trace):
  --trace                  trace every skb through the 14 pipeline stages
  --trace-sample-every N   trace every Nth skb                  (default 1)
  --trace-flow F           only trace flow id F
  --trace-out PATH         write the per-skb trace to PATH
  --trace-format F         jsonl | chrome (Perfetto)       (default jsonl)

fault injection (all deterministic; scheduled faults share one window):
  --fault-at-ms T        fault window start in ms             (default 30)
  --fault-burst-loss P   Gilbert-Elliott wire loss, long-run rate P
  --fault-burst-len B    mean loss-burst length in frames     (default 8)
  --fault-flap-ms D      link flap (total outage) for D ms
  --fault-spike-ms D     +100us one-way latency for D ms
  --fault-ring-ms D      receiver Rx rings withhold descriptors for D ms
  --fault-pool-ms D      receiver page-pool allocations fail for D ms
  --fault-stall-ms D     receiver core 0 executes nothing for D ms
  --watchdog-ms N        stall watchdog horizon (0 = off)     (default 5000)
  --max-backlog N        per-core softirq backlog cap (0 = off)
";

    /// A parsed invocation.
    #[derive(Debug)]
    pub enum Command {
        /// `hostnet help`.
        Help,
        /// `hostnet list`.
        List,
        /// `hostnet run …` (boxed: RunArgs dwarfs the other variants).
        Run(Box<RunArgs>),
        /// `hostnet figures [names…] [--csv] [--jobs N] [--quick] [--audited]`.
        Figures {
            /// Registered figures to run (empty = all), see
            /// [`hostnet::building_blocks::core_figures::FIGURES`].
            names: Vec<&'static str>,
            /// Emit CSV instead of tables.
            csv: bool,
            /// Sweep thread-pool size; `None` = auto (host parallelism).
            /// Output is byte-identical for every value.
            jobs: Option<usize>,
            /// Short windows (5ms + 8ms) for smoke runs.
            quick: bool,
            /// Run every point under the invariant auditor.
            audited: bool,
        },
        /// `hostnet monitor [options]` (boxed: MonitorArgs carries a full
        /// churn config).
        Monitor(Box<MonitorArgs>),
        /// `hostnet audit [--runs N] [--seed S] [--out DIR] [--quiet]`.
        Audit(hostnet::AuditOptions),
    }

    /// Options of `hostnet monitor` (streaming telemetry over a churn run).
    #[derive(Debug)]
    pub struct MonitorArgs {
        /// Fully built and validated churn workload.
        pub churn: hostnet::building_blocks::conn::ChurnConfig,
        /// Display label for the run.
        pub label: String,
        /// RNG seed.
        pub seed: u64,
        /// Warmup window, ms; `None` = default (20, or 5 with `--quick`).
        pub warmup_ms: Option<u64>,
        /// Measured window, ms; `None` = default (100, or 30 with `--quick`).
        pub duration_ms: Option<u64>,
        /// Snapshot interval, ms; `None` = default (10, or 5 with `--quick`).
        pub interval_ms: Option<u64>,
        /// Lifecycle-tracer sampling period feeding the sketches.
        pub trace_sample: u32,
        /// Stream snapshot JSONL to this path.
        pub metrics_out: Option<String>,
        /// Smoke windows (5ms warmup + 30ms measure, 5ms snapshots).
        pub quick: bool,
        /// Emit the final report as JSON and suppress the live lines.
        pub json: bool,
    }

    /// Options of `hostnet run`.
    #[derive(Debug)]
    pub struct RunArgs {
        /// Scenario to execute.
        pub scenario: ScenarioKind,
        /// Optimization level override.
        pub level: Option<OptLevel>,
        /// Congestion control override.
        pub cc: Option<CcAlgo>,
        /// In-network loss probability.
        pub loss: f64,
        /// MTU override.
        pub mtu: Option<u32>,
        /// Rx descriptor override.
        pub ring: Option<u32>,
        /// Pinned receive buffer in KB.
        pub rcvbuf_kb: Option<u64>,
        /// Disable DDIO.
        pub no_dca: bool,
        /// Enable the IOMMU.
        pub iommu: bool,
        /// MSG_ZEROCOPY.
        pub zerocopy_tx: bool,
        /// TCP mmap receive.
        pub zerocopy_rx: bool,
        /// Datapath backend override (in-kernel / TOE / bypass).
        pub datapath: Option<DatapathKind>,
        /// Seed.
        pub seed: u64,
        /// Warmup window (ms).
        pub warmup_ms: u64,
        /// Measurement window (ms).
        pub measure_ms: u64,
        /// Emit JSON.
        pub json: bool,
        /// Start of every scheduled fault window, ms.
        pub fault_at_ms: f64,
        /// Gilbert–Elliott long-run loss rate (0 = none).
        pub burst_loss: f64,
        /// Mean loss-burst length in frames.
        pub burst_len: f64,
        /// Link-flap duration, ms (0 = none).
        pub flap_ms: f64,
        /// Latency-spike duration, ms (0 = none).
        pub spike_ms: f64,
        /// Rx-ring exhaustion duration, ms (0 = none).
        pub ring_ms: f64,
        /// Page-pool failure duration, ms (0 = none).
        pub pool_ms: f64,
        /// Core-stall duration, ms (0 = none).
        pub stall_ms: f64,
        /// Watchdog horizon, ms (0 disables).
        pub watchdog_ms: u64,
        /// Softirq backlog cap in frames (0 disables).
        pub max_backlog: u32,
        /// Enable the per-skb lifecycle tracer.
        pub trace: bool,
        /// Trace every Nth skb (1 = all).
        pub trace_sample_every: u32,
        /// Only trace this flow id.
        pub trace_flow: Option<u64>,
        /// Write the trace to this path.
        pub trace_out: Option<String>,
        /// Export format: JSONL records or Chrome trace_event JSON.
        pub trace_chrome: bool,
    }

    /// Parse a full argument vector.
    pub fn parse(args: &[String]) -> Result<Command, String> {
        let mut it = args.iter();
        match it.next().map(String::as_str) {
            None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
            Some("list") => Ok(Command::List),
            Some("run") => parse_run(&args[1..]).map(|r| Command::Run(Box::new(r))),
            Some("figures") => parse_figures(&args[1..]),
            Some("monitor") => parse_monitor(&args[1..]).map(|m| Command::Monitor(Box::new(m))),
            Some("audit") => {
                let mut opts = hostnet::AuditOptions::new(200, 1);
                opts.progress = true;
                let mut it = args[1..].iter();
                while let Some(a) = it.next() {
                    let mut value = |name: &str| -> Result<&String, String> {
                        it.next().ok_or_else(|| format!("{name}: missing value"))
                    };
                    match a.as_str() {
                        "--runs" => opts.runs = parse_num(value("--runs")?, "--runs")?,
                        "--seed" => opts.seed = parse_num(value("--seed")?, "--seed")?,
                        "--out" => opts.out_dir = Some(std::path::PathBuf::from(value("--out")?)),
                        "--quiet" => opts.progress = false,
                        x => return Err(format!("audit: unknown flag `{x}`")),
                    }
                }
                Ok(Command::Audit(opts))
            }
            Some(other) => Err(format!("unknown command `{other}`")),
        }
    }

    fn parse_figures(args: &[String]) -> Result<Command, String> {
        use hostnet::building_blocks::core_figures::FIGURES;
        let mut names = Vec::new();
        let (mut csv, mut jobs, mut quick, mut audited) = (false, None, false, false);
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--csv" => csv = true,
                "--quick" => quick = true,
                "--audited" => audited = true,
                "--jobs" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--jobs: missing value".to_string())?;
                    jobs = if v == "auto" {
                        None
                    } else {
                        Some(parse_num(v, "--jobs")?)
                    };
                }
                x if x.starts_with("--") => return Err(format!("figures: unknown flag `{x}`")),
                x => match FIGURES.iter().find(|(name, _)| *name == x) {
                    Some((name, _)) => names.push(*name),
                    None => {
                        let valid: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
                        return Err(format!(
                            "figures: unknown figure `{x}` (one of: {})",
                            valid.join(", ")
                        ));
                    }
                },
            }
        }
        Ok(Command::Figures {
            names,
            csv,
            jobs,
            quick,
            audited,
        })
    }

    fn parse_run(args: &[String]) -> Result<RunArgs, String> {
        let scenario_name = args
            .first()
            .ok_or_else(|| "run: missing scenario".to_string())?
            .clone();

        // Defaults, possibly overridden by flags below.
        let mut flows = 8u16;
        let mut clients = 16u16;
        let mut size = 4096u32;
        let mut shorts = 16u16;
        let mut remote_server = false;
        let mut churn_rate = 100_000.0f64;
        let mut churn_mode = String::from("handshake");
        let mut churn_conns = 100_000u32;
        let mut rpc_size_dist: Option<hostnet::building_blocks::conn::RpcSizeDist> = None;
        let mut admission: Option<String> = None;
        let mut accept_queue: Option<u32> = None;
        let mut mem_budget_kb: Option<u64> = None;
        let mut idle_timeout_ms: Option<f64> = None;
        let mut slow_prob: Option<f64> = None;
        // Churn-only flags actually given, so a non-churn scenario can
        // reject them instead of silently ignoring them.
        let mut churn_flags: Vec<&'static str> = Vec::new();

        let mut out = RunArgs {
            scenario: ScenarioKind::Single, // placeholder, set at the end
            level: None,
            cc: None,
            loss: 0.0,
            mtu: None,
            ring: None,
            rcvbuf_kb: None,
            no_dca: false,
            iommu: false,
            zerocopy_tx: false,
            zerocopy_rx: false,
            datapath: None,
            seed: 1,
            warmup_ms: 20,
            measure_ms: 30,
            json: false,
            fault_at_ms: 30.0,
            burst_loss: 0.0,
            burst_len: 8.0,
            flap_ms: 0.0,
            spike_ms: 0.0,
            ring_ms: 0.0,
            pool_ms: 0.0,
            stall_ms: 0.0,
            watchdog_ms: 5000,
            max_backlog: 0,
            trace: false,
            trace_sample_every: 1,
            trace_flow: None,
            trace_out: None,
            trace_chrome: false,
        };

        let mut it = args[1..].iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{name}: missing value"))
            };
            match flag.as_str() {
                "--flows" => flows = parse_num(value("--flows")?, "--flows")?,
                "--clients" => clients = parse_num(value("--clients")?, "--clients")?,
                "--size" => size = parse_num(value("--size")?, "--size")?,
                "--shorts" => shorts = parse_num(value("--shorts")?, "--shorts")?,
                "--remote-server" => remote_server = true,
                "--churn-rate" => {
                    churn_flags.push("--churn-rate");
                    churn_rate = parse_num(value("--churn-rate")?, "--churn-rate")?;
                    if !churn_rate.is_finite() || churn_rate <= 0.0 {
                        return Err("--churn-rate: must be a positive number".into());
                    }
                }
                "--churn-mode" => {
                    churn_flags.push("--churn-mode");
                    churn_mode = value("--churn-mode")?.clone();
                }
                "--churn-conns" => {
                    churn_flags.push("--churn-conns");
                    churn_conns = parse_num(value("--churn-conns")?, "--churn-conns")?;
                }
                "--rpc-size-dist" => {
                    churn_flags.push("--rpc-size-dist");
                    rpc_size_dist = Some(parse_rpc_size_dist(value("--rpc-size-dist")?)?);
                }
                "--admission" => {
                    churn_flags.push("--admission");
                    admission = Some(value("--admission")?.clone());
                }
                "--accept-queue" => {
                    churn_flags.push("--accept-queue");
                    accept_queue = Some(parse_num(value("--accept-queue")?, "--accept-queue")?);
                }
                "--mem-budget-kb" => {
                    churn_flags.push("--mem-budget-kb");
                    mem_budget_kb = Some(parse_num(value("--mem-budget-kb")?, "--mem-budget-kb")?);
                }
                "--idle-timeout-ms" => {
                    churn_flags.push("--idle-timeout-ms");
                    let ms: f64 = parse_num(value("--idle-timeout-ms")?, "--idle-timeout-ms")?;
                    if !ms.is_finite() || ms < 0.0 {
                        return Err("--idle-timeout-ms: must be a non-negative number".into());
                    }
                    idle_timeout_ms = Some(ms);
                }
                "--slow-prob" => {
                    churn_flags.push("--slow-prob");
                    let p: f64 = parse_num(value("--slow-prob")?, "--slow-prob")?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err("--slow-prob: must be in [0, 1]".into());
                    }
                    slow_prob = Some(p);
                }
                "--level" => {
                    out.level = Some(match value("--level")?.as_str() {
                        "no-opt" => OptLevel::NoOpt,
                        "tso-gro" => OptLevel::TsoGro,
                        "jumbo" => OptLevel::Jumbo,
                        "arfs" => OptLevel::Arfs,
                        x => return Err(format!("--level: unknown level `{x}`")),
                    })
                }
                "--cc" => {
                    out.cc = Some(match value("--cc")?.as_str() {
                        "cubic" => CcAlgo::Cubic,
                        "bbr" => CcAlgo::Bbr,
                        "dctcp" => CcAlgo::Dctcp,
                        "reno" => CcAlgo::Reno,
                        x => return Err(format!("--cc: unknown algorithm `{x}`")),
                    })
                }
                "--loss" => {
                    out.loss = value("--loss")?
                        .parse()
                        .map_err(|_| "--loss: expected a probability".to_string())?;
                    if !(0.0..1.0).contains(&out.loss) {
                        return Err("--loss: must be in [0, 1)".into());
                    }
                }
                "--mtu" => out.mtu = Some(parse_num(value("--mtu")?, "--mtu")?),
                "--ring" => out.ring = Some(parse_num(value("--ring")?, "--ring")?),
                "--rcvbuf-kb" => {
                    out.rcvbuf_kb = Some(parse_num(value("--rcvbuf-kb")?, "--rcvbuf-kb")?)
                }
                "--no-dca" => out.no_dca = true,
                "--iommu" => out.iommu = true,
                "--zerocopy-tx" => out.zerocopy_tx = true,
                "--zerocopy-rx" => out.zerocopy_rx = true,
                "--datapath" => {
                    let v = value("--datapath")?;
                    out.datapath = Some(DatapathKind::parse(v).ok_or_else(|| {
                        format!("--datapath: unknown backend `{v}` (inkernel | toe | bypass)")
                    })?);
                }
                "--fault-at-ms" => {
                    out.fault_at_ms = parse_num(value("--fault-at-ms")?, "--fault-at-ms")?
                }
                "--fault-burst-loss" => {
                    out.burst_loss = parse_num(value("--fault-burst-loss")?, "--fault-burst-loss")?;
                    if !(0.0..1.0).contains(&out.burst_loss) {
                        return Err("--fault-burst-loss: must be in [0, 1)".into());
                    }
                }
                "--fault-burst-len" => {
                    out.burst_len = parse_num(value("--fault-burst-len")?, "--fault-burst-len")?
                }
                "--fault-flap-ms" => {
                    out.flap_ms = parse_num(value("--fault-flap-ms")?, "--fault-flap-ms")?
                }
                "--fault-spike-ms" => {
                    out.spike_ms = parse_num(value("--fault-spike-ms")?, "--fault-spike-ms")?
                }
                "--fault-ring-ms" => {
                    out.ring_ms = parse_num(value("--fault-ring-ms")?, "--fault-ring-ms")?
                }
                "--fault-pool-ms" => {
                    out.pool_ms = parse_num(value("--fault-pool-ms")?, "--fault-pool-ms")?
                }
                "--fault-stall-ms" => {
                    out.stall_ms = parse_num(value("--fault-stall-ms")?, "--fault-stall-ms")?
                }
                "--watchdog-ms" => {
                    out.watchdog_ms = parse_num(value("--watchdog-ms")?, "--watchdog-ms")?
                }
                "--max-backlog" => {
                    out.max_backlog = parse_num(value("--max-backlog")?, "--max-backlog")?
                }
                "--trace" => out.trace = true,
                "--trace-sample-every" => {
                    out.trace = true;
                    out.trace_sample_every =
                        parse_num(value("--trace-sample-every")?, "--trace-sample-every")?;
                    if out.trace_sample_every == 0 {
                        return Err("--trace-sample-every: must be at least 1".into());
                    }
                }
                "--trace-flow" => {
                    out.trace = true;
                    out.trace_flow = Some(parse_num(value("--trace-flow")?, "--trace-flow")?);
                }
                "--trace-out" => {
                    out.trace = true;
                    out.trace_out = Some(value("--trace-out")?.clone());
                }
                "--trace-format" => {
                    out.trace = true;
                    out.trace_chrome = match value("--trace-format")?.as_str() {
                        "jsonl" => false,
                        "chrome" => true,
                        x => {
                            return Err(format!("--trace-format: expected jsonl|chrome, got `{x}`"))
                        }
                    };
                }
                "--seed" => out.seed = parse_num(value("--seed")?, "--seed")?,
                "--warmup-ms" => out.warmup_ms = parse_num(value("--warmup-ms")?, "--warmup-ms")?,
                "--measure-ms" => {
                    out.measure_ms = parse_num(value("--measure-ms")?, "--measure-ms")?
                }
                "--json" => out.json = true,
                x => return Err(format!("unknown flag `{x}`")),
            }
        }

        out.scenario = match scenario_name.as_str() {
            "single" => ScenarioKind::Single,
            "numa-remote" => ScenarioKind::SingleNicRemote,
            "one-to-one" => ScenarioKind::OneToOne { flows },
            "incast" => ScenarioKind::Incast { flows },
            "outcast" => ScenarioKind::Outcast { flows },
            "all-to-all" => ScenarioKind::AllToAll { x: flows },
            "rpc" => ScenarioKind::RpcIncast {
                clients,
                size,
                server: if remote_server {
                    Placement::NicRemote
                } else {
                    Placement::NicLocalFirst
                },
            },
            "mixed" => ScenarioKind::Mixed { shorts, size },
            "churn" => {
                use hostnet::building_blocks::workload;
                let mut churn = match churn_mode.as_str() {
                    "handshake" => workload::churn_open_loop(churn_rate),
                    "rpc" => workload::churn_short_rpc(churn_rate, size),
                    "pool" => workload::churn_pool(churn_conns, churn_rate),
                    x => {
                        return Err(format!(
                            "--churn-mode: expected handshake|rpc|pool, got `{x}`"
                        ))
                    }
                };
                // Sample handshakes into the lifecycle tracer at the same
                // rate as data skbs.
                if out.trace {
                    churn.trace_sample = out.trace_sample_every;
                }
                if let Some(d) = rpc_size_dist {
                    churn.rpc_size_dist = d;
                    // Validate eagerly: the dist is rejected outside rpc mode.
                    churn.validate().map_err(|e| format!("run churn: {e}"))?;
                }
                // Any overload flag switches the overload model on.
                if admission.is_some()
                    || accept_queue.is_some()
                    || mem_budget_kb.is_some()
                    || idle_timeout_ms.is_some()
                    || slow_prob.is_some()
                {
                    use hostnet::building_blocks::conn::AdmissionPolicy;
                    churn.overload.enabled = true;
                    if let Some(p) = &admission {
                        churn.overload.policy = AdmissionPolicy::parse(p).ok_or_else(|| {
                            format!("--admission: expected drop|queue|shed, got `{p}`")
                        })?;
                    }
                    if let Some(n) = accept_queue {
                        churn.overload.accept_queue = n;
                    }
                    if let Some(kb) = mem_budget_kb {
                        churn.overload.mem_budget = kb * 1024;
                    }
                    if let Some(ms) = idle_timeout_ms {
                        churn.overload.idle_timeout = Duration::from_nanos((ms * 1e6) as u64);
                    }
                    if let Some(p) = slow_prob {
                        churn.overload.slow_prob = p;
                    }
                    churn.validate().map_err(|e| format!("run churn: {e}"))?;
                }
                ScenarioKind::Churn { churn }
            }
            x => return Err(format!("unknown scenario `{x}` (see `hostnet list`)")),
        };
        if !matches!(out.scenario, ScenarioKind::Churn { .. }) && !churn_flags.is_empty() {
            return Err(format!(
                "{}: only valid with the churn scenario (got `{scenario_name}`)",
                churn_flags.join(", ")
            ));
        }
        if matches!(out.scenario, ScenarioKind::Churn { .. }) {
            if let Some(dp) = out.datapath {
                if dp != DatapathKind::InKernel {
                    return Err(format!(
                        "--datapath {}: only valid with long-flow scenarios (got `{scenario_name}`): \
                         the TOE and bypass backends do not model connection handshakes, so \
                         churn/overload lifecycle frames would be silently mischarged",
                        dp.label()
                    ));
                }
            }
        }
        for (v, flag) in [
            (out.fault_at_ms, "--fault-at-ms"),
            (out.burst_len, "--fault-burst-len"),
            (out.flap_ms, "--fault-flap-ms"),
            (out.spike_ms, "--fault-spike-ms"),
            (out.ring_ms, "--fault-ring-ms"),
            (out.pool_ms, "--fault-pool-ms"),
            (out.stall_ms, "--fault-stall-ms"),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{flag}: must be a non-negative number"));
            }
        }
        Ok(out)
    }

    fn parse_monitor(args: &[String]) -> Result<MonitorArgs, String> {
        use hostnet::building_blocks::conn::{AdmissionPolicy, RpcSizeDist};
        use hostnet::building_blocks::workload;

        let mut scenario = String::from("capacity");
        let mut clients = 250u32;
        let mut policy = String::from("queue");
        let mut rate = 100_000.0f64;
        let mut rpc_size = 4096u32;
        let mut rpc_size_dist = RpcSizeDist::Fixed;
        // Scenario-specific flags actually given, so the other scenario can
        // reject them instead of silently ignoring them.
        let mut capacity_flags: Vec<&'static str> = Vec::new();
        let mut churn_flags: Vec<&'static str> = Vec::new();

        let mut out = MonitorArgs {
            // Placeholder; rebuilt from the parsed flags below.
            churn: workload::churn_capacity(clients, AdmissionPolicy::Queue),
            label: String::new(),
            seed: 1,
            warmup_ms: None,
            duration_ms: None,
            interval_ms: None,
            trace_sample: 8,
            metrics_out: None,
            quick: false,
            json: false,
        };

        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{name}: missing value"))
            };
            match flag.as_str() {
                "--scenario" => scenario = value("--scenario")?.clone(),
                "--clients" => {
                    capacity_flags.push("--clients");
                    clients = parse_num(value("--clients")?, "--clients")?;
                }
                "--policy" => {
                    capacity_flags.push("--policy");
                    policy = value("--policy")?.clone();
                }
                "--rate" => {
                    churn_flags.push("--rate");
                    rate = parse_num(value("--rate")?, "--rate")?;
                    if !rate.is_finite() || rate <= 0.0 {
                        return Err("--rate: must be a positive number".into());
                    }
                }
                "--rpc-size" => rpc_size = parse_num(value("--rpc-size")?, "--rpc-size")?,
                "--rpc-size-dist" => {
                    rpc_size_dist = parse_rpc_size_dist(value("--rpc-size-dist")?)?
                }
                "--seed" => out.seed = parse_num(value("--seed")?, "--seed")?,
                "--warmup-ms" => {
                    out.warmup_ms = Some(parse_num(value("--warmup-ms")?, "--warmup-ms")?)
                }
                "--duration-ms" => {
                    out.duration_ms = Some(parse_num(value("--duration-ms")?, "--duration-ms")?)
                }
                "--interval-ms" => {
                    let v: u64 = parse_num(value("--interval-ms")?, "--interval-ms")?;
                    if v == 0 {
                        return Err("--interval-ms: must be at least 1".into());
                    }
                    out.interval_ms = Some(v);
                }
                "--trace-sample-every" => {
                    out.trace_sample =
                        parse_num(value("--trace-sample-every")?, "--trace-sample-every")?;
                    if out.trace_sample == 0 {
                        return Err("--trace-sample-every: must be at least 1".into());
                    }
                }
                "--metrics-out" => out.metrics_out = Some(value("--metrics-out")?.clone()),
                "--quick" => out.quick = true,
                "--json" => out.json = true,
                x => return Err(format!("monitor: unknown flag `{x}`")),
            }
        }

        let mut churn = match scenario.as_str() {
            "capacity" => {
                if !churn_flags.is_empty() {
                    return Err(format!(
                        "{}: only valid with --scenario churn",
                        churn_flags.join(", ")
                    ));
                }
                let p = AdmissionPolicy::parse(&policy)
                    .ok_or_else(|| format!("--policy: expected drop|queue|shed, got `{policy}`"))?;
                let mut c = workload::churn_capacity(clients, p);
                c.rpc_size = rpc_size;
                out.label = format!("monitor/capacity/{clients}x{policy}");
                c
            }
            "churn" => {
                if !capacity_flags.is_empty() {
                    return Err(format!(
                        "{}: only valid with --scenario capacity",
                        capacity_flags.join(", ")
                    ));
                }
                out.label = format!("monitor/churn/{rate:.0}cps");
                workload::churn_short_rpc(rate, rpc_size)
            }
            x => return Err(format!("--scenario: expected capacity|churn, got `{x}`")),
        };
        churn.rpc_size_dist = rpc_size_dist;
        // Sample handshakes into the lifecycle tracer at the same rate as
        // data skbs, so the sketches see the whole pipeline.
        churn.trace_sample = out.trace_sample;
        churn.validate().map_err(|e| format!("monitor: {e}"))?;
        out.churn = churn;
        Ok(out)
    }

    /// Parse `fixed` or `pareto:<min>:<shape>:<cap>` into an [`RpcSizeDist`].
    fn parse_rpc_size_dist(s: &str) -> Result<hostnet::building_blocks::conn::RpcSizeDist, String> {
        use hostnet::building_blocks::conn::RpcSizeDist;
        if s == "fixed" {
            return Ok(RpcSizeDist::Fixed);
        }
        if let Some(rest) = s.strip_prefix("pareto:") {
            let parts: Vec<&str> = rest.split(':').collect();
            if parts.len() == 3 {
                return Ok(RpcSizeDist::Pareto {
                    min: parse_num(parts[0], "--rpc-size-dist: pareto min")?,
                    shape: parse_num(parts[1], "--rpc-size-dist: pareto shape")?,
                    cap: parse_num(parts[2], "--rpc-size-dist: pareto cap")?,
                });
            }
        }
        Err(format!(
            "--rpc-size-dist: expected fixed|pareto:<min>:<shape>:<cap>, got `{s}`"
        ))
    }

    fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
        s.parse()
            .map_err(|_| format!("{flag}: invalid number `{s}`"))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn argv(s: &str) -> Vec<String> {
            s.split_whitespace().map(String::from).collect()
        }

        #[test]
        fn parses_help_and_list() {
            assert!(matches!(parse(&[]).unwrap(), Command::Help));
            assert!(matches!(parse(&argv("help")).unwrap(), Command::Help));
            assert!(matches!(parse(&argv("list")).unwrap(), Command::List));
        }

        #[test]
        fn parses_simple_run() {
            let cmd = parse(&argv("run single --json --seed 9")).unwrap();
            match cmd {
                Command::Run(r) => {
                    assert_eq!(r.scenario, ScenarioKind::Single);
                    assert!(r.json);
                    assert_eq!(r.seed, 9);
                }
                _ => panic!("not a run"),
            }
        }

        #[test]
        fn parses_scenario_parameters() {
            let cmd = parse(&argv("run rpc --clients 4 --size 16384 --remote-server")).unwrap();
            match cmd {
                Command::Run(r) => match r.scenario {
                    ScenarioKind::RpcIncast {
                        clients,
                        size,
                        server,
                    } => {
                        assert_eq!(clients, 4);
                        assert_eq!(size, 16384);
                        assert_eq!(server, Placement::NicRemote);
                    }
                    _ => panic!("wrong scenario"),
                },
                _ => panic!("not a run"),
            }
        }

        #[test]
        fn parses_churn_scenario() {
            use hostnet::building_blocks::conn::ChurnMode;
            let cmd = parse(&argv(
                "run churn --churn-rate 250000 --churn-mode rpc --size 1024",
            ))
            .unwrap();
            match cmd {
                Command::Run(r) => match r.scenario {
                    ScenarioKind::Churn { churn } => {
                        assert_eq!(churn.mode, ChurnMode::ShortRpc);
                        assert!((churn.rate_cps - 250_000.0).abs() < 1e-9);
                        assert_eq!(churn.rpc_size, 1024);
                        assert_eq!(churn.trace_sample, 0, "tracing off by default");
                    }
                    _ => panic!("wrong scenario"),
                },
                _ => panic!("not a run"),
            }

            let cmd = parse(&argv(
                "run churn --churn-mode pool --churn-conns 5000 --trace --trace-sample-every 4",
            ))
            .unwrap();
            match cmd {
                Command::Run(r) => match r.scenario {
                    ScenarioKind::Churn { churn } => {
                        assert_eq!(churn.mode, ChurnMode::Pool { conns: 5000 });
                        assert_eq!(churn.trace_sample, 4, "--trace wires the conn sampler");
                    }
                    _ => panic!("wrong scenario"),
                },
                _ => panic!("not a run"),
            }
        }

        #[test]
        fn rejects_bad_churn_flags() {
            assert!(parse(&argv("run churn --churn-mode nope")).is_err());
            assert!(parse(&argv("run churn --churn-rate 0")).is_err());
            assert!(parse(&argv("run churn --churn-rate -5")).is_err());
        }

        #[test]
        fn parses_overload_flags() {
            use hostnet::building_blocks::conn::AdmissionPolicy;
            let cmd = parse(&argv(
                "run churn --churn-mode rpc --admission shed --accept-queue 64 \
                 --mem-budget-kb 2048 --idle-timeout-ms 8 --slow-prob 0.25",
            ))
            .unwrap();
            match cmd {
                Command::Run(r) => match r.scenario {
                    ScenarioKind::Churn { churn } => {
                        let ov = churn.overload;
                        assert!(ov.enabled, "any overload flag enables the model");
                        assert_eq!(ov.policy, AdmissionPolicy::Shed);
                        assert_eq!(ov.accept_queue, 64);
                        assert_eq!(ov.mem_budget, 2048 * 1024);
                        assert_eq!(ov.idle_timeout, Duration::from_millis(8));
                        assert!((ov.slow_prob - 0.25).abs() < 1e-12);
                    }
                    _ => panic!("wrong scenario"),
                },
                _ => panic!("not a run"),
            }
            // Overload stays off when no flag is given.
            match parse(&argv("run churn")).unwrap() {
                Command::Run(r) => match r.scenario {
                    ScenarioKind::Churn { churn } => assert!(!churn.overload.enabled),
                    _ => panic!("wrong scenario"),
                },
                _ => panic!("not a run"),
            }
        }

        #[test]
        fn rejects_bad_overload_flags() {
            assert!(parse(&argv("run churn --admission fifo")).is_err());
            assert!(parse(&argv("run churn --slow-prob 1.5")).is_err());
            assert!(parse(&argv("run churn --slow-prob -0.1")).is_err());
            assert!(parse(&argv("run churn --idle-timeout-ms -2")).is_err());
            assert!(parse(&argv("run churn --accept-queue banana")).is_err());
            // accept_queue = 0 fails OverloadConfig::validate.
            assert!(parse(&argv("run churn --accept-queue 0")).is_err());
            // The overload model rejects pool mode.
            assert!(parse(&argv("run churn --churn-mode pool --admission drop")).is_err());
        }

        #[test]
        fn rejects_churn_flags_on_other_scenarios() {
            for flags in [
                "--churn-rate 50000",
                "--churn-mode rpc",
                "--churn-conns 100",
                "--admission drop",
                "--accept-queue 64",
                "--mem-budget-kb 1024",
                "--idle-timeout-ms 5",
                "--slow-prob 0.1",
            ] {
                let args = argv(&format!("run single {flags}"));
                let err = parse(&args).unwrap_err();
                assert!(
                    err.contains("only valid with the churn scenario"),
                    "`{flags}` on a non-churn scenario must error, got: {err}"
                );
            }
            // ...but the same flags are accepted by the churn scenario.
            assert!(parse(&argv("run churn --churn-rate 50000 --admission drop")).is_ok());
        }

        #[test]
        fn parses_rpc_size_dist_on_churn_runs() {
            use hostnet::building_blocks::conn::RpcSizeDist;
            let cmd = parse(&argv(
                "run churn --churn-mode rpc --rpc-size-dist pareto:512:1.2:65536",
            ))
            .unwrap();
            match cmd {
                Command::Run(r) => match r.scenario {
                    ScenarioKind::Churn { churn } => {
                        assert_eq!(
                            churn.rpc_size_dist,
                            RpcSizeDist::Pareto {
                                min: 512,
                                shape: 1.2,
                                cap: 65536
                            }
                        );
                    }
                    _ => panic!("wrong scenario"),
                },
                _ => panic!("not a run"),
            }
            // Spelled-out `fixed` is the default and always accepted.
            match parse(&argv("run churn --churn-mode rpc --rpc-size-dist fixed")).unwrap() {
                Command::Run(r) => match r.scenario {
                    ScenarioKind::Churn { churn } => {
                        assert_eq!(churn.rpc_size_dist, RpcSizeDist::Fixed)
                    }
                    _ => panic!("wrong scenario"),
                },
                _ => panic!("not a run"),
            }
        }

        #[test]
        fn rejects_bad_rpc_size_dist() {
            // Malformed spellings.
            assert!(parse(&argv("run churn --churn-mode rpc --rpc-size-dist pareto")).is_err());
            assert!(parse(&argv(
                "run churn --churn-mode rpc --rpc-size-dist pareto:1:2"
            ))
            .is_err());
            assert!(parse(&argv(
                "run churn --churn-mode rpc --rpc-size-dist lognormal"
            ))
            .is_err());
            // Valid spelling, invalid values (caught by ChurnConfig::validate).
            assert!(parse(&argv(
                "run churn --churn-mode rpc --rpc-size-dist pareto:0:1.2:65536"
            ))
            .is_err());
            assert!(
                parse(&argv(
                    "run churn --churn-mode rpc --rpc-size-dist pareto:512:1.2:16"
                ))
                .is_err(),
                "cap below min"
            );
            // Non-rpc churn modes reject a non-fixed dist.
            assert!(parse(&argv(
                "run churn --churn-mode handshake --rpc-size-dist pareto:512:1.2:65536"
            ))
            .is_err());
            // Non-churn scenarios reject the flag outright.
            assert!(parse(&argv("run single --rpc-size-dist fixed"))
                .unwrap_err()
                .contains("only valid with the churn scenario"));
        }

        #[test]
        fn parses_monitor_command() {
            use hostnet::building_blocks::conn::{AdmissionPolicy, ChurnMode, RpcSizeDist};
            match parse(&argv("monitor")).unwrap() {
                Command::Monitor(m) => {
                    assert_eq!(m.churn.mode, ChurnMode::ShortRpc);
                    assert!(m.churn.overload.enabled, "capacity probe by default");
                    assert_eq!(m.churn.overload.policy, AdmissionPolicy::Queue);
                    assert_eq!(m.churn.rpc_size_dist, RpcSizeDist::Fixed);
                    assert_eq!(m.churn.trace_sample, 8, "sketches ride the sampler");
                    assert_eq!(m.seed, 1);
                    assert_eq!(m.warmup_ms, None);
                    assert!(!m.quick && !m.json);
                    assert_eq!(m.metrics_out, None);
                }
                _ => panic!("not monitor"),
            }
            match parse(&argv(
                "monitor --scenario capacity --clients 64 --policy shed --rpc-size 1024 \
                 --rpc-size-dist pareto:256:1.5:32768 --seed 7 --warmup-ms 4 \
                 --duration-ms 40 --interval-ms 2 --trace-sample-every 4 \
                 --metrics-out m.jsonl --quick --json",
            ))
            .unwrap()
            {
                Command::Monitor(m) => {
                    assert_eq!(m.churn.overload.policy, AdmissionPolicy::Shed);
                    assert_eq!(m.churn.rpc_size, 1024);
                    assert_eq!(
                        m.churn.rpc_size_dist,
                        RpcSizeDist::Pareto {
                            min: 256,
                            shape: 1.5,
                            cap: 32768
                        }
                    );
                    assert_eq!(m.churn.trace_sample, 4);
                    assert_eq!(m.seed, 7);
                    assert_eq!(m.warmup_ms, Some(4));
                    assert_eq!(m.duration_ms, Some(40));
                    assert_eq!(m.interval_ms, Some(2));
                    assert_eq!(m.metrics_out.as_deref(), Some("m.jsonl"));
                    assert!(m.quick && m.json);
                    assert!(m.label.contains("64xshed"), "label: {}", m.label);
                }
                _ => panic!("not monitor"),
            }
            // The plain-churn scenario takes a rate instead of clients.
            match parse(&argv("monitor --scenario churn --rate 50000")).unwrap() {
                Command::Monitor(m) => {
                    assert!(!m.churn.overload.enabled);
                    assert!((m.churn.rate_cps - 50_000.0).abs() < 1e-9);
                }
                _ => panic!("not monitor"),
            }
        }

        #[test]
        fn rejects_bad_monitor_flags() {
            assert!(parse(&argv("monitor --scenario nope")).is_err());
            assert!(parse(&argv("monitor --policy fifo")).is_err());
            assert!(parse(&argv("monitor --rate 0")).is_err());
            assert!(parse(&argv("monitor --interval-ms 0")).is_err());
            assert!(parse(&argv("monitor --trace-sample-every 0")).is_err());
            assert!(parse(&argv("monitor --bogus")).is_err());
            assert!(parse(&argv("monitor --metrics-out")).is_err());
            // Scenario-specific flags are rejected on the other scenario.
            assert!(parse(&argv("monitor --scenario churn --clients 8"))
                .unwrap_err()
                .contains("only valid with --scenario capacity"));
            assert!(parse(&argv("monitor --scenario capacity --rate 1000"))
                .unwrap_err()
                .contains("only valid with --scenario churn"));
        }

        #[test]
        fn rejects_offload_datapaths_with_churn() {
            for dp in ["toe", "dpdk"] {
                let err = parse(&argv(&format!("run churn --datapath {dp}"))).unwrap_err();
                assert!(
                    err.contains("only valid with long-flow scenarios"),
                    "got: {err}"
                );
            }
            // The in-kernel backend is the one churn models; it stays legal,
            // as do offload backends on long-flow scenarios.
            assert!(parse(&argv("run churn --datapath inkernel")).is_ok());
            assert!(parse(&argv("run single --datapath toe")).is_ok());
        }

        #[test]
        fn parses_datapath_flag() {
            for (arg, kind) in [
                ("inkernel", DatapathKind::InKernel),
                ("toe", DatapathKind::ToeOffload),
                ("dpdk", DatapathKind::UserBypass),
            ] {
                match parse(&argv(&format!("run single --datapath {arg}"))).unwrap() {
                    Command::Run(r) => assert_eq!(r.datapath, Some(kind)),
                    _ => panic!("not a run"),
                }
            }
            match parse(&argv("run single")).unwrap() {
                Command::Run(r) => assert_eq!(r.datapath, None),
                _ => panic!("not a run"),
            }
            assert!(parse(&argv("run single --datapath quic")).is_err());
        }

        #[test]
        fn parses_stack_flags() {
            let cmd = parse(&argv(
                "run single --level jumbo --cc bbr --loss 0.0015 --mtu 1500 \
                 --ring 2048 --rcvbuf-kb 3200 --no-dca --iommu --zerocopy-tx --zerocopy-rx",
            ))
            .unwrap();
            match cmd {
                Command::Run(r) => {
                    assert_eq!(r.level, Some(OptLevel::Jumbo));
                    assert!(matches!(r.cc, Some(CcAlgo::Bbr)));
                    assert!((r.loss - 0.0015).abs() < 1e-12);
                    assert_eq!(r.mtu, Some(1500));
                    assert_eq!(r.ring, Some(2048));
                    assert_eq!(r.rcvbuf_kb, Some(3200));
                    assert!(r.no_dca && r.iommu && r.zerocopy_tx && r.zerocopy_rx);
                }
                _ => panic!("not a run"),
            }
        }

        #[test]
        fn parses_fault_flags() {
            let cmd = parse(&argv(
                "run single --fault-burst-loss 0.02 --fault-burst-len 16 \
                 --fault-at-ms 22.5 --fault-flap-ms 1.5 --fault-ring-ms 2 \
                 --fault-pool-ms 3 --fault-stall-ms 4 --fault-spike-ms 0.5 \
                 --watchdog-ms 800 --max-backlog 4096",
            ))
            .unwrap();
            match cmd {
                Command::Run(r) => {
                    assert!((r.burst_loss - 0.02).abs() < 1e-12);
                    assert!((r.burst_len - 16.0).abs() < 1e-12);
                    assert!((r.fault_at_ms - 22.5).abs() < 1e-12);
                    assert!((r.flap_ms - 1.5).abs() < 1e-12);
                    assert!((r.ring_ms - 2.0).abs() < 1e-12);
                    assert!((r.pool_ms - 3.0).abs() < 1e-12);
                    assert!((r.stall_ms - 4.0).abs() < 1e-12);
                    assert!((r.spike_ms - 0.5).abs() < 1e-12);
                    assert_eq!(r.watchdog_ms, 800);
                    assert_eq!(r.max_backlog, 4096);
                }
                _ => panic!("not a run"),
            }
        }

        #[test]
        fn fault_defaults_are_quiet() {
            match parse(&argv("run single")).unwrap() {
                Command::Run(r) => {
                    assert_eq!(r.burst_loss, 0.0);
                    assert_eq!(r.flap_ms, 0.0);
                    assert_eq!(r.ring_ms, 0.0);
                    assert_eq!(r.watchdog_ms, 5000);
                    assert_eq!(r.max_backlog, 0);
                }
                _ => panic!("not a run"),
            }
        }

        #[test]
        fn parses_trace_flags() {
            let cmd = parse(&argv(
                "run single --trace-sample-every 8 --trace-flow 0 \
                 --trace-out t.json --trace-format chrome",
            ))
            .unwrap();
            match cmd {
                Command::Run(r) => {
                    assert!(r.trace, "--trace-* flags imply --trace");
                    assert_eq!(r.trace_sample_every, 8);
                    assert_eq!(r.trace_flow, Some(0));
                    assert_eq!(r.trace_out.as_deref(), Some("t.json"));
                    assert!(r.trace_chrome);
                }
                _ => panic!("not a run"),
            }
            match parse(&argv("run single --trace")).unwrap() {
                Command::Run(r) => {
                    assert!(r.trace && !r.trace_chrome);
                    assert_eq!(r.trace_sample_every, 1);
                    assert_eq!(r.trace_out, None);
                }
                _ => panic!("not a run"),
            }
        }

        #[test]
        fn rejects_bad_input() {
            assert!(parse(&argv("run single --fault-burst-loss 1.5")).is_err());
            assert!(parse(&argv("run single --fault-flap-ms")).is_err());
            assert!(parse(&argv("run single --fault-flap-ms -1")).is_err());
            assert!(parse(&argv("run single --fault-at-ms NaN")).is_err());
            assert!(parse(&argv("frobnicate")).is_err());
            assert!(parse(&argv("run nosuch")).is_err());
            assert!(parse(&argv("run single --level warp9")).is_err());
            assert!(parse(&argv("run single --loss 1.5")).is_err());
            assert!(parse(&argv("run single --flows")).is_err());
            assert!(parse(&argv("run single --mtu banana")).is_err());
            assert!(parse(&argv("run single --trace-sample-every 0")).is_err());
            assert!(parse(&argv("run single --trace-format xml")).is_err());
        }

        #[test]
        fn parses_figures_command() {
            match parse(&argv("figures fig06 fig12 --csv")).unwrap() {
                Command::Figures {
                    names, csv, jobs, ..
                } => {
                    assert_eq!(names, vec!["fig06", "fig12"]);
                    assert!(csv);
                    assert_eq!(jobs, None);
                }
                _ => panic!("not figures"),
            }
            match parse(&argv("figures")).unwrap() {
                Command::Figures {
                    names,
                    csv,
                    jobs,
                    quick,
                    audited,
                } => {
                    assert!(names.is_empty());
                    assert!(!csv && !quick && !audited);
                    assert_eq!(jobs, None);
                }
                _ => panic!("not figures"),
            }
            match parse(&argv("figures ablations")).unwrap() {
                Command::Figures { names, .. } => assert_eq!(names, vec!["ablations"]),
                _ => panic!("not figures"),
            }
            match parse(&argv("figures figcap --csv --jobs 4 --quick --audited")).unwrap() {
                Command::Figures {
                    names,
                    csv,
                    jobs,
                    quick,
                    audited,
                } => {
                    assert_eq!(names, vec!["figcap"]);
                    assert!(csv && quick && audited);
                    assert_eq!(jobs, Some(4));
                }
                _ => panic!("not figures"),
            }
            assert!(parse(&argv("figures --bogus")).is_err());
        }

        #[test]
        fn parses_capacity_command() {
            match parse(&argv("figures figcap --csv --jobs 4 --quick --audited")).unwrap() {
                Command::Figures {
                    names,
                    csv,
                    jobs,
                    quick,
                    audited,
                } => {
                    assert_eq!(names, vec!["figcap"]);
                    assert!(csv && quick && audited);
                    assert_eq!(jobs, Some(4));
                }
                _ => panic!("not figures"),
            }
            match parse(&argv("figures figcap")).unwrap() {
                Command::Figures {
                    names,
                    csv,
                    jobs,
                    quick,
                    audited,
                } => {
                    assert_eq!(names, vec!["figcap"]);
                    assert!(!csv && !quick && !audited);
                    assert_eq!(jobs, None);
                }
                _ => panic!("not figures"),
            }
            match parse(&argv("figures figcap --jobs auto")).unwrap() {
                Command::Figures { jobs, .. } => assert_eq!(jobs, None),
                _ => panic!("not figures"),
            }
            assert!(parse(&argv("figures figcap --bogus")).is_err());
            assert!(parse(&argv("figures figcap --jobs")).is_err());
        }

        #[test]
        fn rejects_unknown_figure_names() {
            let err = parse(&argv("figures fig04 bogus")).unwrap_err();
            assert!(err.contains("unknown figure `bogus`"), "got: {err}");
            for (name, _) in hostnet::building_blocks::core_figures::FIGURES {
                assert!(err.contains(name), "`{name}` missing from: {err}");
            }
        }

        #[test]
        fn rejects_retired_sweep_commands() {
            for cmd in ["capacity", "incast", "backend"] {
                let err = parse(&argv(&format!("{cmd} --quick"))).unwrap_err();
                assert!(err.contains("unknown command"), "`{cmd}`: {err}");
            }
        }

        #[test]
        fn usage_lists_every_registered_figure() {
            let start = USAGE.find("hostnet figures [").unwrap() + "hostnet figures [".len();
            let end = start + USAGE[start..].find(']').unwrap();
            let listed: Vec<&str> = USAGE[start..end]
                .split(|c: char| c == '|' || c.is_whitespace())
                .filter(|n| !n.is_empty())
                .collect();
            let registered: Vec<&str> = hostnet::building_blocks::core_figures::FIGURES
                .iter()
                .map(|(name, _)| *name)
                .collect();
            assert_eq!(listed, registered);
        }

        #[test]
        fn parses_figures_jobs() {
            match parse(&argv("figures fig13 --jobs 4")).unwrap() {
                Command::Figures { jobs, .. } => assert_eq!(jobs, Some(4)),
                _ => panic!("not figures"),
            }
            match parse(&argv("figures --jobs auto")).unwrap() {
                Command::Figures { jobs, .. } => assert_eq!(jobs, None),
                _ => panic!("not figures"),
            }
            assert!(parse(&argv("figures --jobs")).is_err());
            assert!(parse(&argv("figures --jobs banana")).is_err());
        }

        #[test]
        fn parses_audit_command() {
            match parse(&argv("audit --runs 25 --seed 7 --out repros --quiet")).unwrap() {
                Command::Audit(o) => {
                    assert_eq!(o.runs, 25);
                    assert_eq!(o.seed, 7);
                    assert_eq!(o.out_dir.as_deref(), Some(std::path::Path::new("repros")));
                    assert!(!o.progress);
                }
                _ => panic!("not audit"),
            }
            match parse(&argv("audit")).unwrap() {
                Command::Audit(o) => {
                    assert_eq!(o.runs, 200);
                    assert_eq!(o.seed, 1);
                    assert!(o.progress);
                }
                _ => panic!("not audit"),
            }
            assert!(parse(&argv("audit --runs")).is_err());
            assert!(parse(&argv("audit --bogus")).is_err());
        }

        #[test]
        fn all_to_all_uses_flows_as_dimension() {
            let cmd = parse(&argv("run all-to-all --flows 4")).unwrap();
            match cmd {
                Command::Run(r) => assert_eq!(r.scenario, ScenarioKind::AllToAll { x: 4 }),
                _ => panic!("not a run"),
            }
        }
    }
}
