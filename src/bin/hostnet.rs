//! `hostnet` — command-line front end for the simulator.
//!
//! ```text
//! hostnet run single --level arfs --loss 0.0015 --json
//! hostnet run incast --flows 8
//! hostnet run rpc --clients 16 --size 4096 --remote-server
//! hostnet run mixed --shorts 16
//! hostnet run churn --admission shed --accept-queue 64 --slow-prob 0.25
//! hostnet run incast --flows 4 --monitor-ms 2 --metrics-out metrics.jsonl
//! hostnet figures fig06 fig12 --csv
//! hostnet figures figcap --quick --audited
//! hostnet audit --runs 200 --seed 1
//! hostnet list
//! ```
//!
//! Argument parsing is hand-rolled (the workspace keeps its dependency
//! surface to the approved set); see [`cli`] for the grammar.

use hostnet::building_blocks::proto::cc::CcAlgo;
use hostnet::building_blocks::sim::Duration;
use hostnet::building_blocks::stack::config::RcvBufPolicy;
use hostnet::building_blocks::stack::{DatapathKind, StackConfig};
use hostnet::{Experiment, OptLevel, Placement, ScenarioKind};

use std::io::Write as _;
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
        cli::Command::Run(exp, out) => run(&exp, &out),
    }
}

/// `hostnet run`: build the experiment's world and run it, streaming each
/// monitor snapshot (a live line unless `--json`, a JSONL line to
/// `--metrics-out`) when the config has a monitor; then write the trace and
/// print the report. A reader that closes stdout ends the printing, not the
/// run: `--metrics-out` and `--trace-out` are still written in full.
fn run(exp: &Experiment, out: &cli::Output) -> ExitCode {
    use hostnet::building_blocks::{metrics, trace::export};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    let mut metrics_out = match &out.metrics_out {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("--metrics-out: cannot create `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let write_failed = Rc::new(Cell::new(false));
    // The live lines' writes to stdout, up to the first that fails.
    let printed = Rc::new(RefCell::new(Ok(())));
    let mut world = exp.world();
    {
        let write_failed = Rc::clone(&write_failed);
        let printed = Rc::clone(&printed);
        let live = !out.json;
        world.set_monitor_emit(Box::new(move |s| {
            let mut printed = printed.borrow_mut();
            if live && printed.is_ok() {
                *printed = writeln!(std::io::stdout(), "{}", s.human_line());
            }
            if let Some(w) = &mut metrics_out {
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
    let report = match world.try_run(exp.warmup, exp.measure) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run did not quiesce: {e}");
            return ExitCode::FAILURE;
        }
    };
    if write_failed.get() {
        eprintln!(
            "--metrics-out: write to `{}` failed",
            out.metrics_out.as_deref().unwrap_or("?")
        );
        return ExitCode::FAILURE;
    }
    let trace = world.take_trace();
    if let Some(path) = &out.trace_out {
        let body = if out.trace_chrome {
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
            trace.skbs()
        );
    }
    let printed = printed.replace(Ok(()));
    if out.json {
        return print_out(printed, &format!("{}\n", report.to_json()));
    }
    let mut text = metrics::format_series_table(std::slice::from_ref(&report));
    text += "\nreceiver breakdown:\n";
    for (cat, _) in report.receiver.breakdown.iter() {
        text += &format!(
            "  {:<12} {:>5.1}%\n",
            cat.label(),
            report.receiver.breakdown.fraction(cat) * 100.0
        );
    }
    if report.rpcs_completed > 0 {
        text += &format!(
            "\nrpcs: {} ({:.0}/s)\n",
            report.rpcs_completed,
            report.rpcs_completed as f64 / report.window_secs
        );
    }
    if report.retransmissions > 0 {
        text += &format!(
            "loss: {} wire drops, {} ring drops, {} retransmissions\n",
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
        text += &format!(
            "drop taxonomy: {} ({} frames attributed)\n",
            parts.join(", "),
            report.drops.total()
        );
    }
    text += &metrics::format_sections(&report);
    if exp.cfg.trace.enabled {
        if report.stage_latency.is_empty() {
            text += "\ntrace: no stamped skbs (check --trace-flow / sampling)\n";
        } else {
            text += &format!(
                "trace: {} events across {} skbs\n",
                trace.events(),
                trace.skbs()
            );
        }
    }
    print_out(printed, &text)
}

/// Write `text` to stdout unless an earlier write failed (`printed`). A
/// reader that closed the pipe early (`hostnet run … | head`) ends the
/// command quietly with success; any other write error is reported.
fn print_out(printed: std::io::Result<()>, text: &str) -> ExitCode {
    match printed.and_then(|()| std::io::stdout().write_all(text.as_bytes())) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("error: writing to stdout: {e}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
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
    use hostnet::building_blocks::{core_figures as figures, metrics};
    use hostnet::par;
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
        return print_out(Ok(()), &metrics::reports_to_csv(&reports));
    }
    let mut text = String::new();
    let mut rest = reports.as_slice();
    for (i, (name, len)) in blocks.into_iter().enumerate() {
        let (block, tail) = rest.split_at(len);
        rest = tail;
        if i > 0 {
            text += "\n";
        }
        text += &format!("== {name} ==\n");
        text += &metrics::format_series_table(block);
        let side = |pick: fn(&hostnet::Report) -> &metrics::CycleBreakdown| {
            block
                .iter()
                .map(|r| (r.label.clone(), *pick(r)))
                .collect::<Vec<_>>()
        };
        text += "\nsender cycle taxonomy (fraction of host cycles):\n";
        text += &metrics::format_breakdown_table(&side(|r| &r.sender.breakdown));
        text += "\nreceiver cycle taxonomy (fraction of host cycles):\n";
        text += &metrics::format_breakdown_table(&side(|r| &r.receiver.breakdown));
        for r in block {
            let sections = metrics::format_sections(r);
            if !sections.is_empty() {
                text += &format!("\n{}:\n{sections}", r.label);
            }
        }
    }
    print_out(Ok(()), &text)
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
  --seed N           RNG seed                             (default 1)
  --warmup-ms N      warmup window                        (default 20)
  --measure-ms N     measurement window                   (default 30)
  --json             emit the full report as JSON (and no live monitor lines)
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

tracing (any --trace-* flag implies --trace):
  --trace                  trace every skb through the 14 pipeline stages
  --trace-sample-every N   trace every Nth skb                  (default 1)
  --trace-flow F           only trace flow id F
  --trace-out PATH         write the per-skb trace to PATH
  --trace-format F         jsonl | chrome (Perfetto)       (default jsonl)

monitoring (any scenario: a live line per snapshot interval, per-stage
            quantile sketches fed by the sampled lifecycle tracer):
  --monitor-ms N     snapshot interval in ms; implies --trace   (default 10)
  --metrics-out PATH stream snapshot JSONL to PATH; implies --monitor-ms

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
        /// `hostnet run …`: the experiment, and what to do with its output.
        Run(Box<Experiment>, Output),
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
        /// `hostnet audit [--runs N] [--seed S] [--out DIR] [--quiet]`.
        Audit(hostnet::AuditOptions),
    }

    /// What `hostnet run` does with a run's output. Every other flag is a
    /// simulation setting and lands in the [`Experiment`].
    #[derive(Debug, Default)]
    pub struct Output {
        /// Print the report as JSON, and no live monitor lines.
        pub json: bool,
        /// Write the per-skb trace to this path.
        pub trace_out: Option<String>,
        /// Export the trace as Chrome trace_event JSON instead of JSONL.
        pub trace_chrome: bool,
        /// Stream monitor snapshot JSONL to this path.
        pub metrics_out: Option<String>,
    }

    /// Parse a full argument vector.
    pub fn parse(args: &[String]) -> Result<Command, String> {
        let mut it = args.iter();
        match it.next().map(String::as_str) {
            None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
            Some("list") => Ok(Command::List),
            Some("run") => parse_run(&args[1..]),
            Some("figures") => parse_figures(&args[1..]),
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

    /// The `run` flags that only the churn scenario takes, besides
    /// [`OVERLOAD_FLAGS`].
    const CHURN_FLAGS: [&str; 4] = [
        "--churn-rate",
        "--churn-mode",
        "--churn-conns",
        "--rpc-size-dist",
    ];

    /// The churn scenario's overload-model flags; any of them switches the
    /// model on.
    const OVERLOAD_FLAGS: [&str; 5] = [
        "--admission",
        "--accept-queue",
        "--mem-budget-kb",
        "--idle-timeout-ms",
        "--slow-prob",
    ];

    /// A `run` flag's edit of the stack config, applied after `--level`.
    type StackEdit = Box<dyn Fn(&mut StackConfig)>;

    fn parse_run(args: &[String]) -> Result<Command, String> {
        use hostnet::building_blocks::conn::{AdmissionPolicy, OverloadConfig};
        use hostnet::building_blocks::faults::{
            CoreStall, LatencySpike, LossModel, PhaseSchedule, PoolPressure, RingExhaust,
        };
        use hostnet::building_blocks::monitor::MonitorConfig;
        use hostnet::building_blocks::workload;

        let scenario_name = args
            .first()
            .ok_or_else(|| "run: missing scenario".to_string())?
            .clone();

        // Settings land in `exp` as they are parsed. Only what needs more
        // than one flag waits for the end: the scenario and its churn
        // workload, the stack overrides (applied after `--level`, whatever
        // the flag order) and the fault durations (which share the
        // `--fault-at-ms` window).
        let mut exp = Experiment::new(ScenarioKind::Single);
        let mut out = Output::default();
        let mut flows = 8u16;
        let mut clients = 16u16;
        let mut size = 4096u32;
        let mut shorts = 16u16;
        let mut remote_server = false;
        let mut churn_rate = 100_000.0f64;
        let mut churn_mode = String::from("handshake");
        let mut churn_conns = 100_000u32;
        let mut rpc_size_dist = None;
        let mut overload = OverloadConfig::default();
        // Churn-only flags actually given, so a non-churn scenario can
        // reject them instead of silently ignoring them.
        let mut churn_flags: Vec<&'static str> = Vec::new();
        let mut level = None;
        let mut stack: Vec<StackEdit> = Vec::new();
        let (mut fault_at_ms, mut burst_loss, mut burst_len) = (30.0f64, 0.0f64, 8.0f64);
        let (mut flap_ms, mut spike_ms, mut ring_ms, mut pool_ms, mut stall_ms) =
            (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);

        let mut it = args[1..].iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{name}: missing value"))
            };
            if let Some(f) = CHURN_FLAGS
                .iter()
                .chain(&OVERLOAD_FLAGS)
                .find(|f| *f == flag)
            {
                churn_flags.push(f);
            }
            overload.enabled |= OVERLOAD_FLAGS.contains(&flag.as_str());
            match flag.as_str() {
                "--flows" => flows = parse_num(value("--flows")?, "--flows")?,
                "--clients" => clients = parse_num(value("--clients")?, "--clients")?,
                "--size" => size = parse_num(value("--size")?, "--size")?,
                "--shorts" => shorts = parse_num(value("--shorts")?, "--shorts")?,
                "--remote-server" => remote_server = true,
                "--churn-rate" => churn_rate = parse_num(value("--churn-rate")?, "--churn-rate")?,
                "--churn-mode" => churn_mode = value("--churn-mode")?.clone(),
                "--churn-conns" => {
                    churn_conns = parse_num(value("--churn-conns")?, "--churn-conns")?
                }
                "--rpc-size-dist" => {
                    rpc_size_dist = Some(parse_rpc_size_dist(value("--rpc-size-dist")?)?)
                }
                "--admission" => {
                    let p = value("--admission")?;
                    overload.policy = AdmissionPolicy::parse(p).ok_or_else(|| {
                        format!("--admission: expected drop|queue|shed, got `{p}`")
                    })?;
                }
                "--accept-queue" => {
                    overload.accept_queue = parse_num(value("--accept-queue")?, "--accept-queue")?
                }
                "--mem-budget-kb" => {
                    overload.mem_budget = parse_kib(value("--mem-budget-kb")?, "--mem-budget-kb")?
                }
                "--idle-timeout-ms" => {
                    let ms: f64 = parse_num(value("--idle-timeout-ms")?, "--idle-timeout-ms")?;
                    if !ms.is_finite() || ms < 0.0 {
                        return Err("--idle-timeout-ms: must be a non-negative number".into());
                    }
                    overload.idle_timeout = Duration::from_nanos((ms * 1e6) as u64);
                }
                "--slow-prob" => {
                    overload.slow_prob = parse_num(value("--slow-prob")?, "--slow-prob")?
                }
                "--level" => {
                    level = Some(match value("--level")?.as_str() {
                        "no-opt" => OptLevel::NoOpt,
                        "tso-gro" => OptLevel::TsoGro,
                        "jumbo" => OptLevel::Jumbo,
                        "arfs" => OptLevel::Arfs,
                        x => return Err(format!("--level: unknown level `{x}`")),
                    })
                }
                "--cc" => {
                    let cc = match value("--cc")?.as_str() {
                        "cubic" => CcAlgo::Cubic,
                        "bbr" => CcAlgo::Bbr,
                        "dctcp" => CcAlgo::Dctcp,
                        "reno" => CcAlgo::Reno,
                        x => return Err(format!("--cc: unknown algorithm `{x}`")),
                    };
                    stack.push(Box::new(move |s| s.cc = cc));
                }
                "--loss" => {
                    let p: f64 = value("--loss")?
                        .parse()
                        .map_err(|_| "--loss: expected a probability".to_string())?;
                    if !(0.0..1.0).contains(&p) {
                        return Err("--loss: must be in [0, 1)".into());
                    }
                    exp.cfg.link.loss = LossModel::uniform(p);
                }
                "--mtu" => {
                    let mtu = parse_num(value("--mtu")?, "--mtu")?;
                    stack.push(Box::new(move |s| s.mtu = mtu));
                }
                "--ring" => {
                    let ring = parse_num(value("--ring")?, "--ring")?;
                    stack.push(Box::new(move |s| s.rx_descriptors = ring));
                }
                "--rcvbuf-kb" => {
                    let bytes = parse_kib(value("--rcvbuf-kb")?, "--rcvbuf-kb")?;
                    stack.push(Box::new(move |s| s.rcvbuf = RcvBufPolicy::Fixed(bytes)));
                }
                "--no-dca" => stack.push(Box::new(|s| s.dca = false)),
                "--iommu" => stack.push(Box::new(|s| s.iommu = true)),
                "--zerocopy-tx" => stack.push(Box::new(|s| s.zerocopy_tx = true)),
                "--zerocopy-rx" => stack.push(Box::new(|s| s.zerocopy_rx = true)),
                "--datapath" => {
                    let v = value("--datapath")?;
                    exp.cfg.datapath = DatapathKind::parse(v).ok_or_else(|| {
                        format!("--datapath: unknown backend `{v}` (inkernel | toe | bypass)")
                    })?;
                }
                "--fault-at-ms" => {
                    fault_at_ms = parse_num(value("--fault-at-ms")?, "--fault-at-ms")?
                }
                "--fault-burst-loss" => {
                    burst_loss = parse_num(value("--fault-burst-loss")?, "--fault-burst-loss")?;
                    if !(0.0..1.0).contains(&burst_loss) {
                        return Err("--fault-burst-loss: must be in [0, 1)".into());
                    }
                }
                "--fault-burst-len" => {
                    burst_len = parse_num(value("--fault-burst-len")?, "--fault-burst-len")?
                }
                "--fault-flap-ms" => {
                    flap_ms = parse_num(value("--fault-flap-ms")?, "--fault-flap-ms")?
                }
                "--fault-spike-ms" => {
                    spike_ms = parse_num(value("--fault-spike-ms")?, "--fault-spike-ms")?
                }
                "--fault-ring-ms" => {
                    ring_ms = parse_num(value("--fault-ring-ms")?, "--fault-ring-ms")?
                }
                "--fault-pool-ms" => {
                    pool_ms = parse_num(value("--fault-pool-ms")?, "--fault-pool-ms")?
                }
                "--fault-stall-ms" => {
                    stall_ms = parse_num(value("--fault-stall-ms")?, "--fault-stall-ms")?
                }
                "--watchdog-ms" => {
                    exp.cfg.watchdog_horizon = parse_ms(value("--watchdog-ms")?, "--watchdog-ms")?
                }
                "--max-backlog" => {
                    exp.cfg.max_backlog = parse_num(value("--max-backlog")?, "--max-backlog")?
                }
                "--trace" => exp.cfg.trace.enabled = true,
                "--trace-sample-every" => {
                    exp.cfg.trace.enabled = true;
                    exp.cfg.trace.sample_every =
                        parse_num(value("--trace-sample-every")?, "--trace-sample-every")?;
                }
                "--trace-flow" => {
                    exp.cfg.trace.enabled = true;
                    exp.cfg.trace.flow = Some(parse_num(value("--trace-flow")?, "--trace-flow")?);
                }
                "--trace-out" => {
                    exp.cfg.trace.enabled = true;
                    out.trace_out = Some(value("--trace-out")?.clone());
                }
                "--trace-format" => {
                    exp.cfg.trace.enabled = true;
                    out.trace_chrome = match value("--trace-format")?.as_str() {
                        "jsonl" => false,
                        "chrome" => true,
                        x => {
                            return Err(format!("--trace-format: expected jsonl|chrome, got `{x}`"))
                        }
                    };
                }
                "--monitor-ms" => {
                    exp.cfg.monitor = Some(MonitorConfig {
                        interval: parse_ms(value("--monitor-ms")?, "--monitor-ms")?,
                    })
                }
                "--metrics-out" => out.metrics_out = Some(value("--metrics-out")?.clone()),
                "--seed" => exp.cfg.seed = parse_num(value("--seed")?, "--seed")?,
                "--warmup-ms" => exp.warmup = parse_ms(value("--warmup-ms")?, "--warmup-ms")?,
                "--measure-ms" => exp.measure = parse_ms(value("--measure-ms")?, "--measure-ms")?,
                "--json" => out.json = true,
                x => return Err(format!("unknown flag `{x}`")),
            }
        }

        if let Some(level) = level {
            exp = exp.at_level(level);
        }
        for set in &stack {
            set(&mut exp.cfg.stack);
        }
        // A snapshot stream needs a monitor, and the monitor's sketches ride
        // the sampled lifecycle tracer.
        if out.metrics_out.is_some() && exp.cfg.monitor.is_none() {
            exp.cfg.monitor = Some(MonitorConfig::default());
        }
        if exp.cfg.monitor.is_some() {
            exp.cfg.trace.enabled = true;
        }

        // Scheduled faults share one window starting at `--fault-at-ms`;
        // resource faults target the receiver host.
        for (v, flag) in [
            (fault_at_ms, "--fault-at-ms"),
            (burst_len, "--fault-burst-len"),
            (flap_ms, "--fault-flap-ms"),
            (spike_ms, "--fault-spike-ms"),
            (ring_ms, "--fault-ring-ms"),
            (pool_ms, "--fault-pool-ms"),
            (stall_ms, "--fault-stall-ms"),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{flag}: must be a non-negative number"));
            }
        }
        let ms = |v: f64| Duration::from_nanos((v * 1e6) as u64);
        let window = |d: f64| PhaseSchedule::once(ms(fault_at_ms), ms(d));
        let c = &mut exp.cfg;
        if burst_loss > 0.0 {
            c.link.loss = LossModel::bursty(burst_loss, burst_len);
        }
        if flap_ms > 0.0 {
            c.link.flap = Some(window(flap_ms));
        }
        if spike_ms > 0.0 {
            c.link.latency_spike = Some(LatencySpike {
                window: window(spike_ms),
                extra: Duration::from_micros(100),
            });
        }
        if ring_ms > 0.0 {
            c.faults.ring_exhaust = Some(RingExhaust {
                window: window(ring_ms),
                host: 1,
            });
        }
        if pool_ms > 0.0 {
            c.faults.pool_pressure = Some(PoolPressure {
                window: window(pool_ms),
                host: 1,
            });
        }
        if stall_ms > 0.0 {
            c.faults.core_stall = Some(CoreStall {
                window: window(stall_ms),
                host: 1,
                core: 0,
            });
        }

        exp.scenario = match scenario_name.as_str() {
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
                if exp.cfg.trace.enabled {
                    churn.trace_sample = exp.cfg.trace.sample_every;
                }
                if let Some(d) = rpc_size_dist {
                    churn.rpc_size_dist = d;
                }
                churn.overload = overload;
                ScenarioKind::Churn { churn }
            }
            x => return Err(format!("unknown scenario `{x}` (see `hostnet list`)")),
        };
        if !matches!(exp.scenario, ScenarioKind::Churn { .. }) && !churn_flags.is_empty() {
            return Err(format!(
                "{}: only valid with the churn scenario (got `{scenario_name}`)",
                churn_flags.join(", ")
            ));
        }
        exp.sim_config()
            .validate()
            .map_err(|e| format!("run {scenario_name}: {}", e.detail))?;
        Ok(Command::Run(Box::new(exp), out))
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

    /// Parse whole milliseconds, rejecting counts past `Duration`'s range.
    fn parse_ms(s: &str, flag: &str) -> Result<Duration, String> {
        parse_num::<u64>(s, flag)?
            .checked_mul(1_000_000)
            .map(Duration::from_nanos)
            .ok_or_else(|| format!("{flag}: `{s}` ms is out of range"))
    }

    /// Parse a KiB count into bytes, rejecting counts that overflow.
    fn parse_kib(s: &str, flag: &str) -> Result<u64, String> {
        parse_num::<u64>(s, flag)?
            .checked_mul(1024)
            .ok_or_else(|| format!("{flag}: `{s}` KiB is out of range"))
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

        /// Parse a `run` invocation into its experiment and output choices.
        fn run(s: &str) -> (Experiment, Output) {
            match parse(&argv(s)).unwrap() {
                Command::Run(exp, out) => (*exp, out),
                _ => panic!("not a run: {s}"),
            }
        }

        /// The churn workload a `run churn …` invocation parses into.
        fn churn(s: &str) -> hostnet::building_blocks::conn::ChurnConfig {
            match run(s).0.scenario {
                ScenarioKind::Churn { churn } => churn,
                other => panic!("not a churn scenario: {other:?}"),
            }
        }

        #[test]
        fn parses_help_and_list() {
            assert!(matches!(parse(&[]).unwrap(), Command::Help));
            assert!(matches!(parse(&argv("help")).unwrap(), Command::Help));
            assert!(matches!(parse(&argv("list")).unwrap(), Command::List));
        }

        #[test]
        fn parses_simple_run() {
            let (exp, out) = run("run single --json --seed 9");
            assert_eq!(exp.scenario, ScenarioKind::Single);
            assert!(out.json);
            assert_eq!(exp.cfg.seed, 9);
        }

        #[test]
        fn parses_scenario_parameters() {
            assert_eq!(
                run("run rpc --clients 4 --size 16384 --remote-server")
                    .0
                    .scenario,
                ScenarioKind::RpcIncast {
                    clients: 4,
                    size: 16384,
                    server: Placement::NicRemote,
                }
            );
        }

        #[test]
        fn parses_churn_scenario() {
            use hostnet::building_blocks::conn::ChurnMode;
            let c = churn("run churn --churn-rate 250000 --churn-mode rpc --size 1024");
            assert_eq!(c.mode, ChurnMode::ShortRpc);
            assert!((c.rate_cps - 250_000.0).abs() < 1e-9);
            assert_eq!(c.rpc_size, 1024);
            assert_eq!(c.trace_sample, 0, "tracing off by default");

            let c = churn(
                "run churn --churn-mode pool --churn-conns 5000 --trace --trace-sample-every 4",
            );
            assert_eq!(c.mode, ChurnMode::Pool { conns: 5000 });
            assert_eq!(c.trace_sample, 4, "--trace wires the conn sampler");
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
            let ov = churn(
                "run churn --churn-mode rpc --admission shed --accept-queue 64 \
                 --mem-budget-kb 2048 --idle-timeout-ms 8 --slow-prob 0.25",
            )
            .overload;
            assert!(ov.enabled, "any overload flag enables the model");
            assert_eq!(ov.policy, AdmissionPolicy::Shed);
            assert_eq!(ov.accept_queue, 64);
            assert_eq!(ov.mem_budget, 2048 * 1024);
            assert_eq!(ov.idle_timeout, Duration::from_millis(8));
            assert!((ov.slow_prob - 0.25).abs() < 1e-12);
            // Overload stays off when no flag is given.
            assert!(!churn("run churn").overload.enabled);
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
            assert_eq!(
                churn("run churn --churn-mode rpc --rpc-size-dist pareto:512:1.2:65536")
                    .rpc_size_dist,
                RpcSizeDist::Pareto {
                    min: 512,
                    shape: 1.2,
                    cap: 65536
                }
            );
            // Spelled-out `fixed` is the default and always accepted.
            assert_eq!(
                churn("run churn --churn-mode rpc --rpc-size-dist fixed").rpc_size_dist,
                RpcSizeDist::Fixed
            );
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
            use hostnet::building_blocks::monitor::MonitorConfig;
            let (exp, out) = run("run churn --churn-mode rpc --admission queue \
                 --trace-sample-every 8 --monitor-ms 5 --metrics-out m.jsonl");
            let monitor = exp.cfg.monitor.expect("--monitor-ms turns the monitor on");
            assert_eq!(monitor.interval, Duration::from_millis(5));
            assert!(exp.cfg.trace.enabled, "the sketches ride the tracer");
            match exp.scenario {
                ScenarioKind::Churn { churn } => {
                    assert_eq!(churn.trace_sample, 8, "handshakes feed the sketches")
                }
                other => panic!("not a churn scenario: {other:?}"),
            }
            assert_eq!(out.metrics_out.as_deref(), Some("m.jsonl"));
            assert!(!out.json);

            // --monitor-ms implies --trace, so churn samples every handshake.
            assert_eq!(churn("run churn --monitor-ms 2").trace_sample, 1);
            // --metrics-out alone monitors any scenario at the default interval.
            let (exp, _) = run("run incast --flows 4 --metrics-out m.jsonl");
            assert_eq!(exp.cfg.monitor, Some(MonitorConfig::default()));
            assert!(exp.cfg.trace.enabled);
            // No monitor, and no tracing, unless asked.
            let (exp, out) = run("run single");
            assert!(exp.cfg.monitor.is_none() && !exp.cfg.trace.enabled);
            assert_eq!(out.metrics_out, None);
        }

        #[test]
        fn rejects_bad_monitor_flags() {
            assert!(parse(&argv("run single --monitor-ms 0"))
                .unwrap_err()
                .contains("monitor interval must be positive"));
            assert!(parse(&argv("run single --monitor-ms x")).is_err());
            assert!(parse(&argv("run single --monitor-ms")).is_err());
            assert!(parse(&argv("run churn --metrics-out")).is_err());
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
                let (exp, _) = run(&format!("run single --datapath {arg}"));
                assert_eq!(exp.cfg.datapath, kind);
            }
            assert_eq!(run("run single").0.cfg.datapath, DatapathKind::InKernel);
            assert!(parse(&argv("run single --datapath quic")).is_err());
        }

        #[test]
        fn parses_stack_flags() {
            use hostnet::building_blocks::faults::LossModel;
            use hostnet::building_blocks::nic::steering::SteeringMode;
            let c = run(
                "run single --level jumbo --cc bbr --loss 0.0015 --mtu 1500 \
                 --ring 2048 --rcvbuf-kb 3200 --no-dca --iommu --zerocopy-tx --zerocopy-rx",
            )
            .0
            .cfg;
            assert!(c.stack.tso && c.stack.gro, "jumbo keeps TSO/GRO");
            assert_eq!(c.stack.steering, SteeringMode::Rss, "jumbo has no aRFS");
            assert!(matches!(c.stack.cc, CcAlgo::Bbr));
            assert_eq!(c.link.loss, LossModel::Uniform { rate: 0.0015 });
            assert_eq!(c.stack.mtu, 1500);
            assert_eq!(c.stack.rx_descriptors, 2048);
            assert_eq!(c.stack.rcvbuf, RcvBufPolicy::Fixed(3200 * 1024));
            assert!(!c.stack.dca && c.stack.iommu);
            assert!(c.stack.zerocopy_tx && c.stack.zerocopy_rx);
            // Overrides given before --level win as if the level came first.
            let before = run("run single --mtu 1500 --no-dca --iommu --level jumbo").0;
            let after = run("run single --level jumbo --mtu 1500 --no-dca --iommu").0;
            assert_eq!(before.cfg.stack.mtu, 1500);
            assert!(!before.cfg.stack.dca && before.cfg.stack.iommu);
            assert_eq!(
                format!("{:?}", before.cfg.stack),
                format!("{:?}", after.cfg.stack)
            );
        }

        #[test]
        fn parses_fault_flags() {
            use hostnet::building_blocks::faults::{LossModel, PhaseSchedule};
            let c = run("run single --fault-burst-loss 0.02 --fault-burst-len 16 \
                 --fault-at-ms 22.5 --fault-flap-ms 1.5 --fault-ring-ms 2 \
                 --fault-pool-ms 3 --fault-stall-ms 4 --fault-spike-ms 0.5 \
                 --watchdog-ms 800 --max-backlog 4096")
            .0
            .cfg;
            let ms = |v: f64| Duration::from_nanos((v * 1e6) as u64);
            let window = |d: f64| PhaseSchedule::once(ms(22.5), ms(d));
            assert_eq!(c.link.loss, LossModel::bursty(0.02, 16.0));
            assert_eq!(c.link.flap, Some(window(1.5)));
            assert_eq!(c.link.latency_spike.map(|s| s.window), Some(window(0.5)));
            let ring = c.faults.ring_exhaust.unwrap();
            assert_eq!((ring.window, ring.host), (window(2.0), 1));
            let pool = c.faults.pool_pressure.unwrap();
            assert_eq!((pool.window, pool.host), (window(3.0), 1));
            let stall = c.faults.core_stall.unwrap();
            assert_eq!((stall.window, stall.host, stall.core), (window(4.0), 1, 0));
            assert_eq!(c.watchdog_horizon, Duration::from_millis(800));
            assert_eq!(c.max_backlog, 4096);
        }

        #[test]
        fn fault_defaults_are_quiet() {
            use hostnet::building_blocks::faults::{FaultConfig, LossModel};
            let c = run("run single").0.cfg;
            assert_eq!(c.faults, FaultConfig::default());
            assert_eq!(c.link.loss, LossModel::None);
            assert!(c.link.flap.is_none() && c.link.latency_spike.is_none());
            assert_eq!(c.watchdog_horizon, Duration::from_millis(5000));
            assert_eq!(c.max_backlog, 0);
        }

        #[test]
        fn parses_trace_flags() {
            let (exp, out) = run("run single --trace-sample-every 8 --trace-flow 0 \
                 --trace-out t.json --trace-format chrome");
            assert!(exp.cfg.trace.enabled, "--trace-* flags imply --trace");
            assert_eq!(exp.cfg.trace.sample_every, 8);
            assert_eq!(exp.cfg.trace.flow, Some(0));
            assert_eq!(out.trace_out.as_deref(), Some("t.json"));
            assert!(out.trace_chrome);
            let (exp, out) = run("run single --trace");
            assert!(exp.cfg.trace.enabled && !out.trace_chrome);
            assert_eq!(exp.cfg.trace.sample_every, 1);
            assert_eq!(out.trace_out, None);
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
            // SimConfig::validate owns the host sizing's range.
            assert!(parse(&argv("run single --ring 0")).is_err());
            assert!(parse(&argv("run churn --ring 0")).is_err());
            assert!(parse(&argv("run single --mtu 40")).is_err());
            assert!(parse(&argv("run single --mtu 0")).is_err());
            // SimConfig::validate owns the tracer's preflight.
            assert!(parse(&argv("run single --trace-sample-every 0"))
                .unwrap_err()
                .contains("sample_every must be at least 1"));
            assert!(parse(&argv("run single --trace-format xml")).is_err());
            // Values whose unit conversion would overflow.
            assert!(parse(&argv("run single --measure-ms 18446744073709552")).is_err());
            assert!(parse(&argv("run single --rcvbuf-kb 18446744073709552")).is_err());
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
            for cmd in ["capacity", "incast", "backend", "monitor"] {
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
            assert_eq!(
                run("run all-to-all --flows 4").0.scenario,
                ScenarioKind::AllToAll { x: 4 }
            );
        }
    }
}
