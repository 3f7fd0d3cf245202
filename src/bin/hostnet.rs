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
//! surface to the approved set): each subcommand has one `const` flag
//! table that drives its parser and its help text; see [`cli`].

#![warn(clippy::too_many_lines)]

use hostnet::building_blocks::proto::cc::CcAlgo;
use hostnet::building_blocks::sim::Duration;
use hostnet::building_blocks::stack::config::RcvBufPolicy;
use hostnet::building_blocks::stack::DatapathKind;
use hostnet::{Experiment, OptLevel, Placement, ScenarioKind};

use std::io::Write as _;
use std::process::ExitCode;

/// Write one line to stderr, as `eprintln!` does. Every stderr line of the
/// CLI goes through here: nobody reads a closed or full stderr, so a failed
/// write is dropped where `eprintln!` would panic.
macro_rules! note {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Ok(cmd) => execute(cmd),
        Err(e) => {
            note!("error: {e}\n\n{}", cli::usage());
            ExitCode::from(2)
        }
    }
}

fn execute(cmd: cli::Command) -> ExitCode {
    match cmd {
        cli::Command::Help => print_out(Ok(()), &format!("{}\n", cli::usage())),
        cli::Command::List => print_out(Ok(()), &cli::scenario_list()),
        cli::Command::Figures(sweep) => run_figures(&sweep),
        cli::Command::Audit(opts) => audit(&opts),
        cli::Command::Run(exp, out) => run(&exp, &out),
    }
}

/// `hostnet audit`: run the fuzzer; name each failing case, its minimal
/// deltas and repro file on stderr, and exit 1 if any case failed.
fn audit(opts: &hostnet::AuditOptions) -> ExitCode {
    let outcome = hostnet::run_audit(opts);
    if outcome.ok() {
        return print_out(
            Ok(()),
            &format!(
                "audit: {} runs, 0 violations (seed {})\n",
                outcome.runs, opts.seed
            ),
        );
    }
    for f in &outcome.failures {
        note!(
            "audit FAIL run {} [{}] {}: {}",
            f.run,
            f.scenario,
            f.property.name(),
            f.detail
        );
        note!(
            "  minimal deltas: {}",
            f.minimal
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        if let Some(p) = &f.repro {
            note!("  repro written to {}", p.display());
        }
    }
    note!(
        "audit: {} runs, {} violation(s) (seed {})",
        outcome.runs,
        outcome.failures.len(),
        opts.seed
    );
    ExitCode::FAILURE
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
                note!("--metrics-out: cannot create `{path}`: {e}");
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
            note!("run did not quiesce: {e}");
            return ExitCode::FAILURE;
        }
    };
    if write_failed.get() {
        note!(
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
            note!("--trace-out: cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        note!(
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
            note!("error: writing to stdout: {e}");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

/// `hostnet figures`: run the named figures (all when none is named) in
/// registry order as one batch on the sweep pool, then print one CSV of
/// every report or, per figure, its series table, the per-side cycle
/// taxonomies and every present report section. A point whose run fails
/// is named and the command exits 1.
fn run_figures(sweep: &cli::Sweep) -> ExitCode {
    use hostnet::building_blocks::{core_figures as figures, metrics};
    use hostnet::par;
    let mut points = Vec::new();
    let mut blocks = Vec::new();
    for (name, figure) in figures::FIGURES {
        if sweep.names.is_empty() || sweep.names.contains(&name) {
            let before = points.len();
            points.extend(figure().into_iter().map(|e| {
                let e = if sweep.quick { e.quick() } else { e };
                if sweep.audited {
                    e.audited()
                } else {
                    e
                }
            }));
            blocks.push((name, points.len() - before));
        }
    }
    let jobs = sweep.jobs.unwrap_or_else(par::available_jobs);
    let reports = match figures::run(jobs, &points) {
        Ok(r) => r,
        Err(e) => {
            note!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if sweep.csv {
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
    use hostnet::building_blocks::conn::{AdmissionPolicy, OverloadConfig, RpcSizeDist};
    use hostnet::building_blocks::faults::{
        CoreStall, LatencySpike, LossModel, PhaseSchedule, PoolPressure, RingExhaust,
    };
    use hostnet::building_blocks::monitor::MonitorConfig;
    use hostnet::building_blocks::workload;
    use Kind::{Choice, Frac, FracMs, Kib, Ms, Parse, Switch};
    use Scope::{Any, Churn, Overload};

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
        Figures(Sweep),
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

    /// `hostnet figures`: which registered figures to run, and how.
    #[derive(Debug, Default)]
    pub struct Sweep {
        /// Registered figures to run (empty = all), see
        /// [`hostnet::building_blocks::core_figures::FIGURES`].
        pub names: Vec<&'static str>,
        /// Emit CSV instead of tables.
        pub csv: bool,
        /// Sweep thread-pool size; `None` = auto (host parallelism).
        /// Output is byte-identical for every value.
        pub jobs: Option<usize>,
        /// Short windows (5ms + 8ms) for smoke runs.
        pub quick: bool,
        /// Run every point under the invariant auditor.
        pub audited: bool,
    }

    /// Which `run` scenarios take a flag.
    #[derive(Clone, Copy, PartialEq)]
    enum Scope {
        /// Every scenario.
        Any,
        /// The churn scenario's workload.
        Churn,
        /// The churn scenario's overload model; any such flag enables it.
        Overload,
    }

    /// How a flag reads its value, with the setter that stores it. An
    /// error names the value only; the parser prefixes the flag's name.
    enum Kind<S> {
        /// No value: the flag's presence is the setting.
        Switch(fn(&mut S)),
        /// A value the setter parses: a number into its field's type
        /// ([`num`]), a path, or a spelling of its own.
        Parse(fn(&mut S, &str) -> Result<(), String>),
        /// One of the listed words; the setter gets the word's index.
        Choice(&'static [&'static str], fn(&mut S, usize)),
        /// Whole milliseconds.
        Ms(fn(&mut S, Duration)),
        /// A non-negative finite number.
        Frac(fn(&mut S, f64)),
        /// A non-negative finite number of milliseconds, fractions allowed.
        FracMs(fn(&mut S, Duration)),
        /// A count of KiB, stored in bytes.
        Kib(fn(&mut S, u64)),
    }

    impl<S> Kind<S> {
        fn set(&self, s: &mut S, v: &str) -> Result<(), String> {
            let scaled = |unit: u64, name: &str| {
                num::<u64>(v)?
                    .checked_mul(unit)
                    .ok_or_else(|| format!("`{v}` {name} is out of range"))
            };
            match *self {
                Switch(set) => set(s),
                Parse(set) => set(s, v)?,
                Choice(words, set) => match words.iter().position(|w| *w == v) {
                    Some(i) => set(s, i),
                    None => return Err(format!("expected {}, got `{v}`", words.join("|"))),
                },
                Ms(set) => set(s, Duration::from_nanos(scaled(1_000_000, "ms")?)),
                Frac(set) => set(s, frac(v)?),
                FracMs(set) => set(s, Duration::from_nanos((frac(v)? * 1e6) as u64)),
                Kib(set) => set(s, scaled(1024, "KiB")?),
            }
            Ok(())
        }
    }

    /// One flag: the scenarios that take it, its name and the help text's
    /// placeholder for its value (`"--flows N"`), the rest of its help
    /// line, and how it reads and stores its value.
    struct Flag<S> {
        scope: Scope,
        spec: &'static str,
        help: &'static str,
        kind: Kind<S>,
    }

    const fn flag<S>(
        scope: Scope,
        spec: &'static str,
        help: &'static str,
        kind: Kind<S>,
    ) -> Flag<S> {
        Flag {
            scope,
            spec,
            help,
            kind,
        }
    }

    impl<S> Flag<S> {
        fn name(&self) -> &'static str {
            self.spec.split(' ').next().unwrap_or(self.spec)
        }
    }

    /// A block of `hostnet help`: a heading, its flags (help text from
    /// column `width`), and notes after them.
    struct Section<S: 'static> {
        heading: &'static str,
        width: usize,
        flags: &'static [Flag<S>],
        notes: &'static str,
    }

    /// `hostnet figures`'s flags.
    #[rustfmt::skip]
    const FIGURE_FLAGS: &[Section<Sweep>] = &[Section {
        heading: "\
figures (the evaluation sweeps; no names runs every figure, in the order
         above; per figure: series table, per-side cycle taxonomy, and
         every report section a point produced, e.g. figcap's admission
         control, fig05c's connection lifecycle, fig03g's stage residency):",
        width: 19,
        flags: &[
            flag(Any, "--csv", "one CSV of every report instead of tables", Switch(|f| f.csv = true)),
            flag(Any, "--jobs N|auto", "sweep thread-pool size (output identical for any value)", Parse(|f, v| {
                f.jobs = if v == "auto" { None } else { Some(num(v)?) };
                Ok(())
            })),
            flag(Any, "--quick", "short windows (5ms + 8ms) for smoke runs", Switch(|f| f.quick = true)),
            flag(Any, "--audited", "run every point under the invariant auditor", Switch(|f| f.audited = true)),
        ],
        notes: "  \
figcap             admission policy x concurrent clients at fixed cores
  figincast          switch fan-in through the shared-buffer ToR, ECN off/on
  figback            in-kernel vs TCP offload vs kernel-bypass datapaths
",
    }];

    /// `hostnet audit`'s flags.
    #[rustfmt::skip]
    const AUDIT_FLAGS: &[Section<hostnet::AuditOptions>] = &[Section {
        heading: "audit (differential config fuzzer, every run under the invariant auditor):",
        width: 19,
        flags: &[
            flag(Any, "--runs N", "fuzz cases to run                    (default 200)", Parse(|o, v| num(v).map(|n| o.runs = n))),
            flag(Any, "--seed S", "master seed; case i derives from (S, i)  (default 1)", Parse(|o, v| num(v).map(|n| o.seed = n))),
            flag(Any, "--out DIR", "directory for minimal-repro files    (default .)", Parse(|o, v| {
                o.out_dir = Some(v.into());
                Ok(())
            })),
            flag(Any, "--quiet", "suppress the per-case progress line", Switch(|o| o.progress = None)),
        ],
        notes: "  \
exits non-zero if any case fails; failures are bisected to a minimal
  delta set and written to DIR/audit-repro-s<seed>-r<run>.txt
",
    }];

    /// Everything `hostnet run`'s flags set: the experiment and the output
    /// choices, plus what builds the scenario once every flag is read.
    struct Run {
        exp: Experiment,
        out: Output,
        flows: u16,
        clients: u16,
        size: u32,
        shorts: u16,
        remote_server: bool,
        churn_rate: f64,
        /// Index of the `--churn-mode` word.
        churn_mode: usize,
        churn_conns: u32,
        rpc_size_dist: RpcSizeDist,
        overload: OverloadConfig,
        fault_at: Duration,
        burst_loss: f64,
        burst_len: f64,
    }

    impl Run {
        fn new() -> Self {
            Run {
                exp: Experiment::new(ScenarioKind::Single),
                out: Output::default(),
                flows: 8,
                clients: 16,
                size: 4096,
                shorts: 16,
                remote_server: false,
                churn_rate: 100_000.0,
                churn_mode: 0,
                churn_conns: 100_000,
                rpc_size_dist: RpcSizeDist::Fixed,
                overload: OverloadConfig::default(),
                fault_at: Duration::from_millis(30),
                burst_loss: 0.0,
                burst_len: 8.0,
            }
        }

        /// A scheduled fault's window: `d` long from `--fault-at-ms` (which
        /// the table applies first), none for a zero `d`.
        fn window(&self, d: Duration) -> Option<PhaseSchedule> {
            (!d.is_zero()).then_some(PhaseSchedule::once(self.fault_at, d))
        }

        /// The churn scenario's workload.
        fn churn(&self) -> ScenarioKind {
            // In `--churn-mode`'s word order.
            let mut churn = [
                workload::churn_open_loop(self.churn_rate),
                workload::churn_short_rpc(self.churn_rate, self.size),
                workload::churn_pool(self.churn_conns, self.churn_rate),
            ][self.churn_mode];
            // Sample handshakes into the lifecycle tracer at the same rate
            // as data skbs.
            if self.exp.cfg.trace.enabled {
                churn.trace_sample = self.exp.cfg.trace.sample_every;
            }
            churn.rpc_size_dist = self.rpc_size_dist;
            churn.overload = self.overload;
            ScenarioKind::Churn { churn }
        }
    }

    /// A `hostnet run` scenario: its name, its `hostnet list` line, and
    /// the scenario the flags build.
    type Scenario = (&'static str, &'static str, fn(&Run) -> ScenarioKind);

    /// `hostnet run`'s scenarios, in `hostnet list` order.
    #[rustfmt::skip]
    const SCENARIOS: &[Scenario] = &[
        ("single", "one long flow (paper §3.1)", |_| ScenarioKind::Single),
        ("numa-remote", "one long flow on a NIC-remote node (Fig. 4)", |_| ScenarioKind::SingleNicRemote),
        ("one-to-one", "n flows, one per core pair (§3.2)     [--flows]", |r| ScenarioKind::OneToOne { flows: r.flows }),
        ("incast", "n sender cores → 1 receiver core (§3.3) [--flows]", |r| ScenarioKind::Incast { flows: r.flows }),
        ("outcast", "1 sender core → n receiver cores (§3.4) [--flows]", |r| ScenarioKind::Outcast { flows: r.flows }),
        ("all-to-all", "x·x flows (§3.5)                       [--flows = x]", |r| ScenarioKind::AllToAll { x: r.flows }),
        ("rpc", "ping-pong RPC incast (§3.7)  [--clients --size --remote-server]", |r| ScenarioKind::RpcIncast {
            clients: r.clients,
            size: r.size,
            server: if r.remote_server { Placement::NicRemote } else { Placement::NicLocalFirst },
        }),
        ("mixed", "1 long + n short flows on one core (§3.7) [--shorts --size]", |r| ScenarioKind::Mixed { shorts: r.shorts, size: r.size }),
        ("churn", "connection-lifecycle churn (hns-conn)  [--churn-rate --churn-mode --churn-conns --size]", Run::churn),
    ];

    /// `hostnet run`'s flags. They apply in table order, whatever their
    /// order on the command line: `--level`, which replaces the whole stack
    /// config, before the stack flags that edit it, and `--fault-at-ms`
    /// before the fault windows that start there.
    #[rustfmt::skip]
    const RUN_FLAGS: &[Section<Run>] = &[
        Section { heading: "options:", width: 19, notes: "", flags: &[
            flag(Any, "--flows N", "flow count / matrix dimension        (default 8)", Parse(|r, v| num(v).map(|n| r.flows = n))),
            flag(Any, "--clients N", "RPC clients                          (default 16)", Parse(|r, v| num(v).map(|n| r.clients = n))),
            flag(Any, "--size BYTES", "RPC request/response size            (default 4096)", Parse(|r, v| num(v).map(|n| r.size = n))),
            flag(Any, "--shorts N", "short flows in the mixed scenario    (default 16)", Parse(|r, v| num(v).map(|n| r.shorts = n))),
            flag(Any, "--remote-server", "place the RPC server on a NIC-remote node", Switch(|r| r.remote_server = true)),
            flag(Any, "--level L", "no-opt | tso-gro | jumbo | arfs      (default arfs)",
                Choice(&["no-opt", "tso-gro", "jumbo", "arfs"], |r, i| r.exp = r.exp.clone().at_level(OptLevel::ALL[i]))),
            flag(Any, "--cc ALGO", "cubic | bbr | dctcp | reno           (default cubic)",
                Choice(&["cubic", "bbr", "dctcp", "reno"], |r, i| r.exp.cfg.stack.cc = [CcAlgo::Cubic, CcAlgo::Bbr, CcAlgo::Dctcp, CcAlgo::Reno][i])),
            flag(Any, "--loss P", "in-network loss probability          (default 0)", Parse(|r, v| num(v).map(|p| r.exp.cfg.link.loss = LossModel::uniform(p)))),
            flag(Any, "--mtu BYTES", "1500..9000                           (default 9000)", Parse(|r, v| num(v).map(|n| r.exp.cfg.stack.mtu = n))),
            flag(Any, "--ring N", "NIC Rx descriptors                   (default 512)", Parse(|r, v| num(v).map(|n| r.exp.cfg.stack.rx_descriptors = n))),
            flag(Any, "--rcvbuf-kb N", "pin the receive buffer (default: Linux auto-tuning)", Kib(|r, b| r.exp.cfg.stack.rcvbuf = RcvBufPolicy::Fixed(b))),
            flag(Any, "--no-dca", "disable DDIO", Switch(|r| r.exp.cfg.stack.dca = false)),
            flag(Any, "--iommu", "enable the IOMMU", Switch(|r| r.exp.cfg.stack.iommu = true)),
            flag(Any, "--zerocopy-tx", "MSG_ZEROCOPY sender path (§4)", Switch(|r| r.exp.cfg.stack.zerocopy_tx = true)),
            flag(Any, "--zerocopy-rx", "TCP mmap receive path (§4)", Switch(|r| r.exp.cfg.stack.zerocopy_rx = true)),
            flag(Any, "--datapath B", "inkernel | toe | bypass datapath backend (§4, default\n\
                                        inkernel; toe = on-NIC protocol, bypass = busy-poll)", Parse(|r, v| {
                r.exp.cfg.datapath = DatapathKind::parse(v).ok_or_else(|| format!("unknown backend `{v}` (inkernel | toe | bypass)"))?;
                Ok(())
            })),
            flag(Any, "--seed N", "RNG seed                             (default 1)", Parse(|r, v| num(v).map(|n| r.exp.cfg.seed = n))),
            flag(Any, "--warmup-ms N", "warmup window                        (default 20)", Ms(|r, d| r.exp.warmup = d)),
            flag(Any, "--measure-ms N", "measurement window                   (default 30)", Ms(|r, d| r.exp.measure = d)),
            flag(Any, "--json", "emit the full report as JSON (and no live monitor lines)", Switch(|r| r.out.json = true)),
            flag(Churn, "--churn-rate CPS", "connection arrivals per second       (default 100000)", Parse(|r, v| num(v).map(|n| r.churn_rate = n))),
            flag(Churn, "--churn-mode M", "handshake | rpc | pool               (default handshake)", Choice(&["handshake", "rpc", "pool"], |r, i| r.churn_mode = i)),
            flag(Churn, "--churn-conns N", "pool population for --churn-mode pool (default 100000)", Parse(|r, v| num(v).map(|n| r.churn_conns = n))),
            flag(Churn, "--rpc-size-dist D", "per-request size for --churn-mode rpc:\n\
                                              fixed | pareto:<min>:<shape>:<cap>   (default fixed)", Parse(|r, v| parse_rpc_size_dist(v).map(|d| r.rpc_size_dist = d))),
        ]},
        Section { heading: "overload model (churn scenario only; any flag enables it):", width: 19, notes: "", flags: &[
            flag(Overload, "--admission P", "accept-path policy: drop | queue | shed  (default drop)",
                Choice(&["drop", "queue", "shed"], |r, i| r.overload.policy = [AdmissionPolicy::Drop, AdmissionPolicy::Queue, AdmissionPolicy::Shed][i])),
            flag(Overload, "--accept-queue N", "listen/accept queue depth            (default 128)", Parse(|r, v| num(v).map(|n| r.overload.accept_queue = n))),
            flag(Overload, "--mem-budget-kb N", "connection memory budget (0 = unlimited, default 0)", Kib(|r, b| r.overload.mem_budget = b)),
            flag(Overload, "--idle-timeout-ms T", "reap established conns idle longer than T (0 = off)", FracMs(|r, d| r.overload.idle_timeout = d)),
            flag(Overload, "--slow-prob P", "fraction of clients with heavy-tailed think times", Parse(|r, v| num(v).map(|p| r.overload.slow_prob = p))),
        ]},
        Section { heading: "tracing (any --trace-* flag implies --trace):", width: 25, notes: "", flags: &[
            flag(Any, "--trace", "trace every skb through the 14 pipeline stages", Switch(|r| r.exp.cfg.trace.enabled = true)),
            flag(Any, "--trace-sample-every N", "trace every Nth skb                  (default 1)", Parse(|r, v| {
                r.exp.cfg.trace.enabled = true;
                num(v).map(|n| r.exp.cfg.trace.sample_every = n)
            })),
            flag(Any, "--trace-flow F", "only trace flow id F", Parse(|r, v| {
                r.exp.cfg.trace.enabled = true;
                num(v).map(|n| r.exp.cfg.trace.flow = Some(n))
            })),
            flag(Any, "--trace-out PATH", "write the per-skb trace to PATH", Parse(|r, v| {
                r.exp.cfg.trace.enabled = true;
                r.out.trace_out = Some(v.into());
                Ok(())
            })),
            flag(Any, "--trace-format F", "jsonl | chrome (Perfetto)       (default jsonl)", Choice(&["jsonl", "chrome"], |r, i| {
                r.exp.cfg.trace.enabled = true;
                r.out.trace_chrome = i == 1;
            })),
        ]},
        Section { heading: "\
monitoring (any scenario: a live line per snapshot interval, per-stage
            quantile sketches fed by the sampled lifecycle tracer):", width: 19, notes: "", flags: &[
            flag(Any, "--monitor-ms N", "snapshot interval in ms; implies --trace   (default 10)", Ms(|r, interval| r.exp.cfg.monitor = Some(MonitorConfig { interval }))),
            flag(Any, "--metrics-out PATH", "stream snapshot JSONL to PATH; implies --monitor-ms", Parse(|r, v| {
                r.out.metrics_out = Some(v.into());
                Ok(())
            })),
        ]},
        Section { heading: "fault injection (all deterministic; scheduled faults share one window):", width: 23, notes: "", flags: &[
            flag(Any, "--fault-at-ms T", "fault window start in ms             (default 30)", FracMs(|r, d| r.fault_at = d)),
            flag(Any, "--fault-burst-loss P", "Gilbert-Elliott wire loss, long-run rate P", Parse(|r, v| num(v).map(|p| r.burst_loss = p))),
            flag(Any, "--fault-burst-len B", "mean loss-burst length in frames     (default 8)", Frac(|r, frames| r.burst_len = frames)),
            flag(Any, "--fault-flap-ms D", "link flap (total outage) for D ms", FracMs(|r, d| r.exp.cfg.link.flap = r.window(d))),
            flag(Any, "--fault-spike-ms D", "+100us one-way latency for D ms", FracMs(|r, d| {
                r.exp.cfg.link.latency_spike = r.window(d).map(|window| LatencySpike { window, extra: Duration::from_micros(100) })
            })),
            // Resource faults hit the receiver host.
            flag(Any, "--fault-ring-ms D", "receiver Rx rings withhold descriptors for D ms", FracMs(|r, d| {
                r.exp.cfg.faults.ring_exhaust = r.window(d).map(|window| RingExhaust { window, host: 1 })
            })),
            flag(Any, "--fault-pool-ms D", "receiver page-pool allocations fail for D ms", FracMs(|r, d| {
                r.exp.cfg.faults.pool_pressure = r.window(d).map(|window| PoolPressure { window, host: 1 })
            })),
            flag(Any, "--fault-stall-ms D", "receiver core 0 executes nothing for D ms", FracMs(|r, d| {
                r.exp.cfg.faults.core_stall = r.window(d).map(|window| CoreStall { window, host: 1, core: 0 })
            })),
            flag(Any, "--watchdog-ms N", "stall watchdog horizon (0 = off)     (default 5000)", Ms(|r, d| r.exp.cfg.watchdog_horizon = d)),
            flag(Any, "--max-backlog N", "per-core softirq backlog cap (0 = off)", Parse(|r, v| num(v).map(|n| r.exp.cfg.max_backlog = n))),
        ]},
    ];

    /// The registered figure names as `hostnet help`'s synopsis lists them.
    const FIGURE_NAMES: &str = "\
[fig03|fig03e|fig03f|fig03g|fig04|fig05|fig06|fig07|
                   fig08|fig09|fig09b|fig05c|fig10|fig11|fig12|fig13|figcap|
                   figincast|figback|ablations]...";

    /// `hostnet help`: the synopsis, then every subcommand's flags from its
    /// table, and the scenario names.
    pub fn usage() -> String {
        let names: Vec<&str> = SCENARIOS.iter().map(|s| s.0).collect();
        let scenarios: Vec<String> = names.chunks(5).map(|line| line.join(" | ")).collect();
        format!(
            "usage:\n  hostnet run <scenario> [options]\n  hostnet figures {FIGURE_NAMES}\n\
             \x20                 {}\n  hostnet audit {}\n  hostnet list\n  hostnet help\n\
             {}{}\nscenarios: {}   (see `hostnet list`)\n{}",
            synopsis(FIGURE_FLAGS),
            synopsis(AUDIT_FLAGS),
            help(FIGURE_FLAGS),
            help(AUDIT_FLAGS),
            scenarios.join(" |\n           "),
            help(RUN_FLAGS),
        )
    }

    /// A table's flags as the synopsis lists them: `[--flag ARG] …`.
    fn synopsis<S>(table: &[Section<S>]) -> String {
        let specs = table
            .iter()
            .flat_map(|s| s.flags)
            .map(|f| format!("[{}]", f.spec));
        specs.collect::<Vec<_>>().join(" ")
    }

    /// A table's sections, each after a blank line. A help text's lines
    /// start at the section's column, or two spaces after a longer spec.
    fn help<S>(table: &[Section<S>]) -> String {
        let mut text = String::new();
        for section in table {
            let w = section.width;
            text += &format!("\n{}\n", section.heading);
            for f in section.flags {
                let gap = w.checked_sub(f.spec.len()).filter(|&g| g > 0).unwrap_or(2);
                let help = f.help.replace('\n', &format!("\n{:1$}", "", w + 2));
                text += &format!("  {}{:gap$}{help}\n", f.spec, "");
            }
            text += section.notes;
        }
        text
    }

    /// `hostnet list`: each scenario and the flags it takes.
    pub fn scenario_list() -> String {
        let mut text = String::from("scenarios:\n");
        for (name, about, _) in SCENARIOS {
            text += &format!("  {name:<12} {about}\n");
        }
        text
    }

    /// Parse a full argument vector.
    pub fn parse(args: &[String]) -> Result<Command, String> {
        use hostnet::building_blocks::core_figures::FIGURES;
        let rest = args.get(1..).unwrap_or_default();
        match args.first().map(String::as_str) {
            None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
            Some("list") => Ok(Command::List),
            Some("run") => parse_run(rest),
            Some("figures") => {
                let mut sweep = Sweep::default();
                for x in parse_flags("figures", FIGURE_FLAGS, rest, &mut sweep, true)?.0 {
                    let Some((name, _)) = FIGURES.iter().find(|(name, _)| *name == x) else {
                        let valid: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
                        return Err(format!(
                            "figures: unknown figure `{x}` (one of: {})",
                            valid.join(", ")
                        ));
                    };
                    sweep.names.push(*name);
                }
                Ok(Command::Figures(sweep))
            }
            Some("audit") => {
                let mut opts = hostnet::AuditOptions::new(200, 1);
                opts.progress = Some(|line| note!("{line}"));
                parse_flags("audit", AUDIT_FLAGS, rest, &mut opts, false)?;
                Ok(Command::Audit(opts))
            }
            Some(other) => Err(format!("unknown command `{other}`")),
        }
    }

    /// Read `args` against a subcommand's flag table and apply each flag to
    /// `state` in table order (a repeated flag's last value wins). Returns
    /// the words that are not flags, if the subcommand `takes_words`, and
    /// the flags given.
    fn parse_flags<'t, 'a, S>(
        cmd: &str,
        table: &'t [Section<S>],
        args: &'a [String],
        state: &mut S,
        takes_words: bool,
    ) -> Result<(Vec<&'a str>, Vec<&'t Flag<S>>), String> {
        let flags: Vec<&Flag<S>> = table.iter().flat_map(|s| s.flags).collect();
        let (mut words, mut given) = (Vec::new(), Vec::new());
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if takes_words && !a.starts_with("--") {
                words.push(a.as_str());
                continue;
            }
            let i = flags
                .iter()
                .position(|f| f.name() == a.as_str())
                .ok_or_else(|| format!("{cmd}: unknown flag `{a}`"))?;
            let value = match flags[i].kind {
                Switch(_) => "",
                _ => it
                    .next()
                    .ok_or_else(|| format!("{}: missing value", flags[i].name()))?,
            };
            given.push((i, value));
        }
        given.sort_by_key(|&(i, _)| i);
        for &(i, value) in &given {
            let f = flags[i];
            f.kind
                .set(state, value)
                .map_err(|e| format!("{}: {e}", f.name()))?;
        }
        Ok((words, given.iter().map(|&(i, _)| flags[i]).collect()))
    }

    fn parse_run(args: &[String]) -> Result<Command, String> {
        let name = args.first().ok_or("run: missing scenario")?;
        let mut r = Run::new();
        let (_, given) = parse_flags("run", RUN_FLAGS, &args[1..], &mut r, false)?;
        r.overload.enabled = given.iter().any(|f| f.scope == Overload);
        if r.burst_loss != 0.0 {
            r.exp.cfg.link.loss = LossModel::bursty(r.burst_loss, r.burst_len);
        }
        // A snapshot stream needs a monitor, and the monitor's sketches ride
        // the sampled lifecycle tracer.
        if r.out.metrics_out.is_some() && r.exp.cfg.monitor.is_none() {
            r.exp.cfg.monitor = Some(MonitorConfig::default());
        }
        if r.exp.cfg.monitor.is_some() {
            r.exp.cfg.trace.enabled = true;
        }
        let (_, _, build) = SCENARIOS
            .iter()
            .find(|s| s.0 == name.as_str())
            .ok_or_else(|| format!("unknown scenario `{name}` (see `hostnet list`)"))?;
        r.exp.scenario = build(&r);
        let scoped: Vec<&str> = given
            .iter()
            .filter(|f| f.scope != Any)
            .map(|f| f.name())
            .collect();
        if !matches!(r.exp.scenario, ScenarioKind::Churn { .. }) && !scoped.is_empty() {
            return Err(format!(
                "{}: only valid with the churn scenario (got `{name}`)",
                scoped.join(", ")
            ));
        }
        r.exp
            .validate()
            .map_err(|e| format!("run {name}: {}", e.detail))?;
        Ok(Command::Run(Box::new(r.exp), r.out))
    }

    /// Parse `fixed` or `pareto:<min>:<shape>:<cap>` into an [`RpcSizeDist`].
    fn parse_rpc_size_dist(s: &str) -> Result<RpcSizeDist, String> {
        fn part<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
            num(v).map_err(|e| format!("pareto {name}: {e}"))
        }
        if s == "fixed" {
            return Ok(RpcSizeDist::Fixed);
        }
        let parts: Vec<&str> = s
            .strip_prefix("pareto:")
            .map_or(vec![], |p| p.split(':').collect());
        match parts[..] {
            [min, shape, cap] => Ok(RpcSizeDist::Pareto {
                min: part("min", min)?,
                shape: part("shape", shape)?,
                cap: part("cap", cap)?,
            }),
            _ => Err(format!(
                "expected fixed|pareto:<min>:<shape>:<cap>, got `{s}`"
            )),
        }
    }

    /// Parse a number into the setter's field type.
    fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("invalid number `{s}`"))
    }

    /// Parse a non-negative finite number.
    fn frac(s: &str) -> Result<f64, String> {
        let v: f64 = num(s)?;
        if v.is_finite() && v >= 0.0 {
            Ok(v)
        } else {
            Err("must be a non-negative number".into())
        }
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
            // The windows start at --fault-at-ms wherever it is given.
            let last =
                run("run single --fault-flap-ms 1.5 --fault-stall-ms 4 --fault-at-ms 22.5").0;
            assert_eq!(last.cfg.link.flap, Some(window(1.5)));
            assert_eq!(
                last.cfg.faults.core_stall.map(|s| s.window),
                Some(window(4.0))
            );
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
            assert!(parse(&argv("run single --loss -0.1")).is_err());
            assert!(parse(&argv("run single --loss NaN")).is_err());
            assert!(parse(&argv("run single --fault-burst-loss NaN")).is_err());
            assert!(parse(&argv("run single --fault-burst-len -1")).is_err());
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
            // Experiment::validate refuses a scenario with nothing to measure.
            for args in [
                "run one-to-one --flows 0",
                "run incast --flows 0",
                "run outcast --flows 0",
                "run all-to-all --flows 0",
                "run rpc --clients 0",
                "run rpc --size 0",
            ] {
                let err = parse(&argv(args)).unwrap_err();
                assert!(err.contains("to measure"), "{args}: {err}");
            }
        }

        #[test]
        fn parses_figures_command() {
            match parse(&argv("figures fig06 fig12 --csv")).unwrap() {
                Command::Figures(Sweep {
                    names, csv, jobs, ..
                }) => {
                    assert_eq!(names, vec!["fig06", "fig12"]);
                    assert!(csv);
                    assert_eq!(jobs, None);
                }
                _ => panic!("not figures"),
            }
            match parse(&argv("figures")).unwrap() {
                Command::Figures(Sweep {
                    names,
                    csv,
                    jobs,
                    quick,
                    audited,
                }) => {
                    assert!(names.is_empty());
                    assert!(!csv && !quick && !audited);
                    assert_eq!(jobs, None);
                }
                _ => panic!("not figures"),
            }
            match parse(&argv("figures ablations")).unwrap() {
                Command::Figures(Sweep { names, .. }) => assert_eq!(names, vec!["ablations"]),
                _ => panic!("not figures"),
            }
            match parse(&argv("figures figcap --csv --jobs 4 --quick --audited")).unwrap() {
                Command::Figures(Sweep {
                    names,
                    csv,
                    jobs,
                    quick,
                    audited,
                }) => {
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
                Command::Figures(Sweep {
                    names,
                    csv,
                    jobs,
                    quick,
                    audited,
                }) => {
                    assert_eq!(names, vec!["figcap"]);
                    assert!(csv && quick && audited);
                    assert_eq!(jobs, Some(4));
                }
                _ => panic!("not figures"),
            }
            match parse(&argv("figures figcap")).unwrap() {
                Command::Figures(Sweep {
                    names,
                    csv,
                    jobs,
                    quick,
                    audited,
                }) => {
                    assert_eq!(names, vec!["figcap"]);
                    assert!(!csv && !quick && !audited);
                    assert_eq!(jobs, None);
                }
                _ => panic!("not figures"),
            }
            match parse(&argv("figures figcap --jobs auto")).unwrap() {
                Command::Figures(Sweep { jobs, .. }) => assert_eq!(jobs, None),
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
            let usage = usage();
            let start = usage.find("hostnet figures [").unwrap() + "hostnet figures [".len();
            let end = start + usage[start..].find(']').unwrap();
            let listed: Vec<&str> = usage[start..end]
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
                Command::Figures(Sweep { jobs, .. }) => assert_eq!(jobs, Some(4)),
                _ => panic!("not figures"),
            }
            match parse(&argv("figures --jobs auto")).unwrap() {
                Command::Figures(Sweep { jobs, .. }) => assert_eq!(jobs, None),
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
                    assert!(o.progress.is_none());
                }
                _ => panic!("not audit"),
            }
            match parse(&argv("audit")).unwrap() {
                Command::Audit(o) => {
                    assert_eq!(o.runs, 200);
                    assert_eq!(o.seed, 1);
                    assert!(o.progress.is_some());
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
