"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the experiment harness::

    python -m repro table1
    python -m repro fig10  [--requests N]
    python -m repro fig11  [--apps travel-reservation retwis] [--duration MS]
    python -m repro fig12  [--size BYTES] [--gc MS]
    python -m repro fig13  [--rates 150 350]
    python -m repro fig14  [--rates 300 600]
    python -m repro recovery [--f 0.0 0.2 0.4]
    python -m repro chaos  [--fault-rates 0.0 0.05 0.1] [--brownout]
    python -m repro failover [--leases 250 1000 4000] [--crash-at MS]
    python -m repro storagechaos [--components metalog partition]
                                 [--replications 1 3] [--crash-at MS]
                                 [--sequencers monolith batched leased-ranges]
    python -m repro live   [--workers N] [--kills K] [--requests N]
                           [--admission N] [--flightrec-dir DIR]
                           [--no-telemetry] [--prom-out PATH]
    python -m repro top    [--gateway PATH] [--interval S] [--once]
    python -m repro trace  [--protocol P] [--crash-at MS] [--out PATH]
    python -m repro shards [--shards 1 2 4 8] [--rates 150 300 600]
    python -m repro scale  [--sequencers monolith batched leased-ranges]
                           [--rates 400 800 1200 1600] [--users 100000]
                           [--diurnal BASE_RATE]
    python -m repro profile [--target shards] [--top 25]
    python -m repro advise --read-ratio 0.8 --rate 300

Each command is one row of :data:`COMMANDS`: the harness driver it
calls, named ``"package.module:function"`` and imported when the
command runs — ``python -m repro table1`` loads ``harness.micro``, not
the sixteen other drivers — and, per flag, the driver parameter the flag
feeds.  A flag's type, default and ``nargs`` are read from that
parameter's declaration, so a default is written once, in the harness
(DESIGN.md, "Per-experiment index", has the rule).

Every experiment command also parses the shared flags: ``--seed N``
(reseed the whole run), ``--fault-rate R`` (transient infrastructure
faults on every log/store operation; :mod:`repro.faults`), the
storage-plane flags ``--storage-backend`` / ``--log-shards`` /
``--kv-partitions`` (:mod:`repro.storageplane`) and
``--sequencer`` / ``--sequencer-batch`` / ``--sequencer-hold`` /
``--sequencer-block`` (:mod:`repro.storageplane.sequencer`), ``--jobs N``
(fan a sweep's cells over N worker processes) and ``--trace-out PATH``
(write a Perfetto-loadable Chrome trace of the run).  The defaults —
1×1 ``auto`` topology, ``monolith`` sequencer, any job count, tracing
on or off — print bit-identical tables.  A command honours a shared
flag or exits 2 naming it, never drops it: ``chaos --fault-rate`` (use
``--fault-rates``), ``storagechaos --storage-backend`` (it picks its
own), ``table1 --jobs`` (no pool), ``table1 --trace-out`` (no
tracer).

``chaos``, ``failover``, ``storagechaos`` and ``live`` end with the
verdict of the exactly-once audit (:mod:`repro.harness.audit`):
``exactly-once audit: PASS (...)``, or one ``AUDIT FAILURE: ...`` line
per failure and exit 1.

Each command prints the same table the corresponding benchmark saves.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import signal
import sys
import typing
from collections import abc
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from . import analysis, harness, observe
from .config import SystemConfig
from .errors import ConfigError
from .harness.parallel import SweepInterrupted, cell_config, default_jobs


def _resolve(ref: str) -> Any:
    """The object a ``"package.module:name"`` reference names, imported
    now."""
    module, _, name = ref.partition(":")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


class Flag(NamedTuple):
    """One flag of a command: its spelling, the driver parameter it
    feeds (``None``: only the command's ``render`` reads it) and its
    help.  ``spec`` overrides what the parameter would derive — the
    deliberate CLI defaults of the paper figures, ``choices`` (a
    :func:`_resolve` reference to the table whose keys they are),
    ``metavar``.  A ``--no-…`` spelling passes ``False`` when given."""

    spelling: str
    param: Optional[str]
    help: Optional[str]
    spec: Dict[str, Any]

    @property
    def dest(self) -> str:
        return self.spelling.lstrip("-").replace("-", "_")


def _flag(spelling: str, param: Optional[str], help: Optional[str] = None,
          **spec: Any) -> Flag:
    return Flag(spelling, param, help, spec)


def _parameters(driver: Callable[..., Any]) -> Dict[str, Tuple[Any, Any]]:
    """``{name: (default, type hint)}`` of every keyword the driver
    accepts.  A sweep's ``**kwargs`` stand for the parameters of its
    point function (``sweep_of``), minus the point's required ones —
    those are the sweep's axes; the sweep's own declarations win."""
    found: Dict[str, Tuple[Any, Any]] = {}
    fn: Optional[Callable[..., Any]] = driver
    while fn is not None:
        hints = typing.get_type_hints(fn)
        forwards = False
        for name, parameter in inspect.signature(fn).parameters.items():
            if parameter.kind is parameter.VAR_KEYWORD:
                forwards = True
            elif fn is driver or parameter.default is not parameter.empty:
                found.setdefault(name, (parameter.default, hints.get(name)))
        fn = getattr(fn, "point_fn", None) if forwards else None
    return found


def _argument_spec(flag: Flag,
                   parameters: Dict[str, Tuple[Any, Any]]) -> Dict[str, Any]:
    """``add_argument`` keywords for ``flag``, derived from its driver
    parameter: ``Sequence[T]`` → ``nargs="+"``, ``bool`` → a switch,
    ``Optional[T]`` → ``T``, no default → required."""
    if flag.param is None:
        return dict(flag.spec)
    default, hint = parameters[flag.param]
    inner = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if len(inner) < len(typing.get_args(hint)):  # Optional[T]
        hint = inner[0]
    if hint is bool:
        spec: Dict[str, Any] = dict(action="store_true")
    elif typing.get_origin(hint) is abc.Sequence:
        spec = dict(nargs="+", type=typing.get_args(hint)[0],
                    default=list(default))
    elif default is inspect.Parameter.empty and "default" not in flag.spec:
        spec = dict(type=hint, required=True)
    else:
        spec = dict(type=hint, default=default)
    if flag.param == "protocol":
        spec["choices"] = "protocols.registry:SYSTEMS"
    spec.update(flag.spec)
    if "choices" in spec:
        spec["choices"] = list(_resolve(spec["choices"]))
    return spec


# -- renders: only where printing is not "print the table(s)" ---------------

def _print_result(result: Any, args=None, shared=None) -> None:
    """A report string, one table, or a dict of tables (each followed by
    a blank line)."""
    if isinstance(result, dict):
        for table in result.values():
            print(table.render())
            print()
    elif isinstance(result, str):
        print(result)
    else:
        print(result.render())


def _call(fn: Callable[..., Any], shared: Dict[str, Any], **kwargs: Any):
    """Call ``fn`` with ``kwargs`` plus whatever of ``shared`` (config,
    seed, tracer, jobs, forwarded shared flags) it accepts."""
    accepted = _parameters(fn)
    kwargs.update(
        (name, value) for name, value in shared.items()
        if name in accepted and value is not None
    )
    return fn(**kwargs)


def _write_trace(tracer: Any, path: str) -> None:
    trace_json = observe.write_chrome_trace(tracer, path)
    print(
        f"trace written to {path} "
        f"({trace_json['otherData']['spans']} spans, "
        f"{len(trace_json['traceEvents'])} events)"
    )


def _render_fig10(tables, args, shared) -> None:
    print("\n\n".join(table.render() for table in tables.values()))


def _render_fig13(tables, args, shared) -> None:
    _print_result(tables)
    # Where the milliseconds go at the first swept rate: the mechanism
    # behind the crossover the tables above show.
    _print_result(_call(
        harness.run_latency_breakdown, shared,
        rate_per_s=args.rates[0], duration_ms=args.duration,
    ))


def _render_chaos(table, args, shared) -> None:
    _print_result(table)
    print()
    # Cells run in the order the rates were given, so each system's
    # last point is the one kept.
    _print_result(observe.breakdown_table(
        {point.protocol: point.breakdown for point in table.points},
        f"Latency breakdown at fault rate {max(args.fault_rates)}",
    ))
    if args.brownout:
        print()
        _print_result(_call(harness.run_brownout_comparison, shared))


def _render_failover(table, args, shared) -> None:
    _print_result(table)
    print()
    # The first (shortest) lease: where takeover-gap and detection
    # stages are easiest to compare.
    breakdowns: Dict[str, Any] = {}
    for point in table.points:
        breakdowns.setdefault(point.protocol, point.result.breakdown)
    _print_result(observe.breakdown_table(
        breakdowns, f"Latency breakdown at lease {args.leases[0]:.0f}ms"
    ))


def _render_live(table, args, shared) -> None:
    _print_result(table)
    if args.prom_out is not None:
        for point in table.points:
            path = f"{args.prom_out}.{point.protocol}"
            observe.write_prom_text(point.result.metrics, path)
            print(f"prometheus snapshot written to {path}")


def _render_trace(outcome, args, shared) -> None:
    result, run_tracer = outcome
    _print_result(harness.trace_summary_table(result))
    print()
    _print_result(harness.trace_breakdown_table(result))
    out = args.out if args.out is not None else args.trace_out
    if run_tracer is not None and out is not None:
        _write_trace(run_tracer, out)


def _advise(read_ratio: float, arrival_rate_per_s: float = 100.0,
            value_bytes: int = 256) -> str:
    advisor = analysis.ProtocolAdvisor(value_bytes=value_bytes)
    recommendation = advisor.recommend(
        analysis.WorkloadProfile(
            p_read=read_ratio,
            p_write=1.0 - read_ratio,
            arrival_rate_per_s=arrival_rate_per_s,
        )
    )
    return (f"{recommendation.explain()}\n"
            f"recommended protocol: {recommendation.protocol}")


class Command(NamedTuple):
    help: str
    #: A :func:`_resolve` reference.
    driver: str
    flags: Tuple[Flag, ...]
    #: ``render(result, args, shared)`` prints the driver's result and
    #: may return the exit code.
    render: Callable[[Any, argparse.Namespace, Dict[str, Any]],
                     Optional[int]] = _print_result
    #: The result is a table of audited points: the command ends with
    #: the exactly-once verdict and exits by it.
    audited: bool = False


#: The paper-figure commands whose CLI default is deliberately smaller
#: or larger than the library's carry it as an explicit ``default=``:
#: ``table1 --samples``, ``fig10 --requests``, ``fig11``/``fig12
#: --duration``, ``fig13 --rates``, ``recovery --requests``.
COMMANDS: Dict[str, Command] = {
    "table1": Command("primitive op latencies", "harness.micro:run_table1", (
        _flag("--samples", "samples", default=10_000),
    )),
    "fig10": Command(
        "read/write latency, 4 systems", "harness.micro:run_fig10", (
            _flag("--requests", "requests", default=1_500),
            _flag("--keys", "num_keys"),
        ), _render_fig10),
    "fig11": Command("apps: latency vs throughput", "harness.apps:run_fig11", (
        _flag("--apps", "apps", choices="harness.apps:APP_FACTORIES"),
        _flag("--duration", "duration_ms", default=5_000.0),
    )),
    "fig12": Command("storage vs read ratio", "harness.overhead:run_fig12", (
        _flag("--size", "value_bytes"),
        _flag("--gc", "gc_interval_ms"),
        _flag("--duration", "duration_ms", default=25_000.0),
    )),
    "fig13": Command("latency vs read ratio", "harness.overhead:run_fig13", (
        _flag("--rates", "rates", default=[150.0, 350.0]),
        _flag("--duration", "duration_ms"),
    ), _render_fig13),
    "fig14": Command(
        "protocol switching delay", "harness.switching_exp:run_fig14", (
            _flag("--rates", "rates"),
        )),
    "recovery": Command(
        "cost under failures", "harness.recovery_exp:run_recovery_sweep", (
            _flag("--f", "f_values"),
            _flag("--requests", "requests", default=300),
        )),
    "chaos": Command(
        "crashes × infra faults: goodput, p99, exactly-once audit",
        "harness.chaos:run_chaos_sweep", (
            _flag("--fault-rates", "fault_rates"),
            _flag("--requests", "requests"),
            _flag("--crash-f", "crash_f"),
            _flag("--brownout", None,
                  "also run the log brown-out fallback ablation",
                  action="store_true"),
        ), _render_chaos, audited=True),
    "failover": Command(
        "node crash under load: lease detection, orphan takeover, "
        "exactly-once audit",
        "harness.failover:run_failover_sweep", (
            _flag("--leases", "lease_values",
                  "lease durations (ms) to sweep"),
            _flag("--crash-at", "crash_at_ms",
                  "simulated time (ms) of the node crash"),
            _flag("--rate", "rate_per_s",
                  "offered load (requests per second)"),
            _flag("--duration", "duration_ms", "arrival window (ms)"),
            _flag("--systems", "systems", "protocols to sweep"),
        ), _render_failover, audited=True),
    "storagechaos": Command(
        "storage components killed under load: metalog failover, "
        "shard loss, partition rebuild; exactly-once + "
        "consistency audits",
        "harness.storagechaos:run_storagechaos_sweep", (
            _flag("--components", "components",
                  "storage components to kill (one cell each)",
                  choices="harness.storagechaos:DEFAULT_COMPONENTS"),
            _flag("--systems", "systems", "protocols to sweep"),
            _flag("--replications", "replications",
                  "log-shard replication factors to sweep "
                  "(1 is the paper-faithful default)"),
            _flag("--sequencers", "sequencers",
                  "metalog sequencing strategies to chaos-test (the "
                  "default keeps the historical grid; add "
                  "batched/leased-ranges to prove group commit and "
                  "leased blocks survive failover)",
                  choices="harness.scale_exp:DEFAULT_SEQUENCERS"),
            _flag("--crash-at", "crash_at_ms",
                  "simulated time (ms) of the kill"),
            _flag("--recover-after", "recover_after_ms",
                  "delay (ms) from kill to failover/repair/rebuild"),
            _flag("--rate", "rate_per_s",
                  "offered load (requests per second)"),
            _flag("--duration", "duration_ms", "arrival window (ms)"),
            _flag("--crash-f", "crash_f",
                  "instance crash probability per operation boundary "
                  "(the unsafe control needs it to violate)"),
        ), audited=True),
    "trace": Command(
        "one traced DES run: latency breakdown + Chrome trace export",
        "harness.trace_exp:run_trace", (
            _flag("--protocol", "protocol"),
            _flag("--rate", "rate_per_s",
                  "offered load (requests per second)"),
            _flag("--duration", "duration_ms", "arrival window (ms)"),
            _flag("--read-ratio", "read_ratio"),
            _flag("--crash-node", "crash_node",
                  "function node to crash (default 0 when --crash-at "
                  "is given)"),
            _flag("--crash-at", "crash_at_ms",
                  "simulated time (ms) of a node crash; enables "
                  "lease-based recovery"),
            _flag("--out", None,
                  "write the Chrome trace-event JSON here (same as "
                  "--trace-out)", type=str, metavar="PATH"),
            _flag("--no-trace", "tracing",
                  "run without a tracer attached (results are "
                  "identical; used by the determinism check)"),
        ), _render_trace),
    "shards": Command(
        "storage-plane scaling: p99 vs load by log-shard count",
        "harness.shards_exp:run_shard_sweep", (
            _flag("--shards", "shard_counts", "log-shard counts to sweep"),
            _flag("--rates", "rates",
                  "offered loads (requests per second)"),
            _flag("--protocol", "protocol"),
            _flag("--read-ratio", "read_ratio"),
            _flag("--duration", "duration_ms", "arrival window (ms)"),
        )),
    "scale": Command(
        "sequencer scaling: p99 + sequencer occupancy vs offered "
        "load per sequencing strategy, Zipf-skewed users",
        "harness.scale_exp:run_scale_sweep", (
            _flag("--sequencers", "sequencers",
                  "sequencing strategies to sweep"),
            _flag("--rates", "rates",
                  "offered loads (requests per second)"),
            _flag("--users", "num_users",
                  "Zipf user population (10^5-10^6)"),
            _flag("--ops", "ops_per_request",
                  "write+read pairs per request"),
            _flag("--protocol", "protocol"),
            _flag("--duration", "duration_ms", "arrival window (ms)"),
            _flag("--diurnal", "diurnal_base",
                  "replace --rates with samples of a day-shaped load "
                  "curve around BASE_RATE req/s", metavar="BASE_RATE"),
            _flag("--diurnal-points", "diurnal_points",
                  "rate samples along the diurnal curve"),
        )),
    "live": Command(
        "live compute plane: real worker processes over a unix "
        "socket, seeded mid-invocation SIGKILLs, wall-clock lease "
        "recovery, exactly-once audit (exits nonzero on failure)",
        "harness.live_exp:run_live", (
            _flag("--workers", "workers", "worker processes in the pool"),
            _flag("--kills", "kills",
                  "mid-invocation SIGKILLs to deliver"),
            _flag("--rate", "rate_per_s",
                  "offered load (requests per second)"),
            _flag("--requests", "requests",
                  "total invocations to issue"),
            _flag("--lease", "lease_ms",
                  "wall-clock lease duration (ms)"),
            _flag("--crash-f", "crash_f",
                  "worker-internal instance crash probability "
                  "(soft failures, composable with SIGKILLs)"),
            _flag("--admission", "max_inflight",
                  "bound gateway admission at N in-flight invocations; "
                  "excess arrivals are shed deterministically and "
                  "counted in the admission_rejections metric "
                  "(default: unbounded)", metavar="N"),
            _flag("--deadline", "deadline_s",
                  "abort the run after this many wall seconds"),
            _flag("--systems", "systems",
                  "protocols to audit (unsafe is the must-violate "
                  "control)"),
            _flag("--no-telemetry", "telemetry",
                  "disable worker telemetry shipping even when traced "
                  "(default: telemetry is on iff --trace-out is "
                  "given)"),
            _flag("--flightrec-dir", "flightrec_dir",
                  "directory for flight-recorder dumps and the "
                  "repro-top discovery file (default: none — no "
                  "artifacts)", metavar="DIR"),
            _flag("--prom-out", None,
                  "write the final metrics snapshot in Prometheus "
                  "text format (one file per audited system: "
                  "PATH.<system>)", type=str, metavar="PATH"),
        ), _render_live, audited=True),
    "top": Command(
        "poll a running live gateway's STATUS endpoint and render "
        "run state (workers, chaos, latency) until it exits",
        "compute.status:top_loop", (
            _flag("--gateway", "target",
                  "gateway socket, discovery file, or the "
                  "--flightrec-dir of the run (default: results/)",
                  default="results", metavar="PATH"),
            _flag("--interval", "interval_s", "poll interval in seconds"),
            _flag("--once", "once",
                  "take one snapshot and exit (scriptable)"),
        ), lambda exit_code, args, shared: exit_code),
    "profile": Command(
        "cProfile hotspot report for one canonical cell",
        "harness.profile_exp:profile_report", (
            _flag("--target", "target",
                  choices="harness.profile_exp:PROFILE_TARGETS"),
            _flag("--top", "top", "number of hotspots to print"),
            _flag("--sort", "sort", choices="harness.profile_exp:SORT_KEYS"),
        )),
    "advise": Command("recommend a protocol", "cli:_advise", (
        _flag("--read-ratio", "read_ratio"),
        _flag("--rate", "arrival_rate_per_s"),
        _flag("--value-bytes", "value_bytes"),
    )),
}


#: The experiment flags every config-taking command inherits, so they
#: can be given after the command name.  ``param`` is the
#: ``SystemConfig.with_storage_plane`` keyword a storage-plane flag sets.
SHARED_FLAGS: Tuple[Flag, ...] = (
    _flag("--seed", None,
          "master RNG seed (non-negative; default: config seed)",
          type=int),
    _flag("--fault-rate", None,
          "per-operation infrastructure fault rate in [0, 1)",
          type=float),
    _flag("--jobs", None,
          "worker processes for sweep cells (default: cores - 1; "
          "output is bit-identical at every job count)",
          type=int, metavar="N"),
    _flag("--trace-out", None,
          "write a Chrome trace-event JSON of the run to PATH "
          "(Perfetto-loadable; invocation-executing commands only)",
          type=str, metavar="PATH"),
    _flag("--storage-backend", "backend",
          "storage-plane backend (auto, single or sharded; "
          "default: auto)", type=str, metavar="NAME"),
    _flag("--log-shards", "log_shards",
          "number of log shards behind the metalog (default: 1)",
          type=int, metavar="N"),
    _flag("--kv-partitions", "kv_partitions",
          "number of KV-store hash partitions (default: 1)",
          type=int, metavar="M"),
    _flag("--sequencer", "sequencer",
          "sequencing strategy (monolith, batched or leased-ranges; "
          "default: monolith)", type=str, metavar="NAME"),
    _flag("--sequencer-batch", "sequencer_batch",
          "group-commit size for --sequencer batched (default: 8)",
          type=int, metavar="K"),
    _flag("--sequencer-hold", "sequencer_hold_ms",
          "group-commit hold window in ms for --sequencer batched "
          "(default: 0.2)", type=float, metavar="MS"),
    _flag("--sequencer-block", "sequencer_block",
          "leased seqnum block size for --sequencer leased-ranges "
          "(default: 64)", type=int, metavar="B"),
)


def _build_parser(
    argv: Optional[Sequence[str]] = None
) -> argparse.ArgumentParser:
    """The parser for ``argv``.  Deriving a command's flags imports its
    driver, so it is done for the command ``argv`` names and, when it
    names none (``--help``, a misspelling, no ``argv`` at all), for
    every command."""
    named = argv[0] if argv and argv[0] in COMMANDS else None
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Halfmoon (SOSP 2023) reproduction experiments",
    )
    common = argparse.ArgumentParser(add_help=False)
    for flag in SHARED_FLAGS:
        common.add_argument(flag.spelling, help=flag.help, **flag.spec)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        if named not in (None, name):
            sub.add_parser(name, help=command.help)
            continue
        parameters = _parameters(_resolve(command.driver))
        subparser = sub.add_parser(
            name, help=command.help,
            parents=[common] if "config" in parameters else [],
        )
        for flag in command.flags:
            subparser.add_argument(
                flag.spelling, help=flag.help,
                **_argument_spec(flag, parameters),
            )
    return parser


def _rejection(name: str, command: Command,
               parameters: Dict[str, Tuple[Any, Any]]) -> Optional[str]:
    """Why ``command`` cannot honour shared flag ``name`` (``None``: it
    can — by its own parameter of that name, or on the config)."""
    if name == "trace_out":
        if "tracer" in parameters or "tracing" in parameters:
            return None
        return "its driver attaches no tracer"
    if name == "jobs":
        return (None if "jobs" in parameters
                else "it does not fan cells over a pool")
    pins = getattr(_resolve(command.driver), "pins", {})
    if name not in pins:
        return None
    if pins[name] is None:
        return "the experiment sets it itself"
    axis = next(flag.spelling for flag in command.flags
                if flag.param == pins[name])
    return f"the experiment sweeps it: use {axis}"


def _experiment_config(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> Optional[SystemConfig]:
    """Build the shared config from ``--seed`` / ``--fault-rate`` and
    the storage-plane flags.

    Returns ``None`` when none was given so each experiment keeps its
    own defaults.  The two checks the CLI tests spell by flag stay
    here; every other bad value (an unknown backend or sequencer name,
    a zero shard count) is the ``ConfigError`` of whoever validates it,
    which ``main`` turns into the same exit 2.
    """
    seed, fault_rate = args.seed, args.fault_rate
    if seed is not None and seed < 0:
        parser.error(f"--seed must be non-negative, got {seed}")
    if fault_rate is not None and not (0.0 <= fault_rate < 1.0):
        parser.error(
            f"--fault-rate must be in [0, 1), got {fault_rate}"
        )
    plane = {
        flag.param: getattr(args, flag.dest)
        for flag in SHARED_FLAGS
        if flag.param is not None and getattr(args, flag.dest) is not None
    }
    if seed is None and fault_rate is None and not plane:
        return None
    return (
        cell_config(None, seed, fault_rate or 0.0)
        .with_storage_plane(**plane)
        .validate()
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: dispatch plus the typed failures of the edge.

    An interrupt mid-sweep drains in-flight cells, prints a
    partial-result summary instead of a stacked traceback, and exits
    nonzero (130, the conventional fatal-signal code).  An invalid
    configuration — wherever it is detected — is a ``repro: error:``
    line and exit 2, and a reader that went away (``| head``) ends the
    run quietly with 141 (128 + SIGPIPE; 1 would read as an audit
    failure).
    """
    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(
            signal.SIGTERM, _sigterm_to_interrupt
        )
    except ValueError:  # not the main thread: leave handlers alone
        pass
    try:
        exit_code = _dispatch(argv)
        # A closed pipe must surface here, not at interpreter exit.
        sys.stdout.flush()
        return exit_code
    except SweepInterrupted as exc:
        print(f"\n{exc}; partial results above", file=sys.stderr)
        return 130
    except KeyboardInterrupt:
        print("\ninterrupted before results were ready", file=sys.stderr)
        return 130
    except ConfigError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        try:
            # The interpreter flushes stdout once more on exit.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass
        return 141
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)


def _sigterm_to_interrupt(signum, frame):
    """Route SIGTERM through the same drain path as ctrl-C."""
    raise KeyboardInterrupt


def _dispatch(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    args = parser.parse_args(argv)
    command = COMMANDS[args.command]
    driver = _resolve(command.driver)
    parameters = _parameters(driver)

    kwargs: Dict[str, Any] = {}
    for flag in command.flags:
        value = getattr(args, flag.dest)
        if flag.param is None:
            continue
        if not flag.spelling.startswith("--no-"):
            kwargs[flag.param] = value
        elif value:
            kwargs[flag.param] = False
    admission = kwargs.get("max_inflight")
    if admission is not None and admission < 1:
        parser.error(f"--admission must be >= 1, got {admission}")

    shared: Dict[str, Any] = {}
    if "config" in parameters:
        if args.jobs is not None and args.jobs < 1:
            parser.error(f"--jobs must be >= 1, got {args.jobs}")
        for flag in SHARED_FLAGS:
            if getattr(args, flag.dest) is None:
                continue
            reason = _rejection(flag.dest, command, parameters)
            if reason is not None:
                parser.error(
                    f"{flag.spelling} is not supported by "
                    f"{args.command!r}: {reason}"
                )
            shared[flag.dest] = getattr(args, flag.dest)
        shared["config"] = _experiment_config(parser, args)
        if shared.get("jobs") is None:
            shared["jobs"] = default_jobs()
        if args.trace_out is not None and "tracer" in parameters:
            shared["tracer"] = observe.Tracer()

    result = _call(driver, shared, **kwargs)
    exit_code = command.render(result, args, shared)
    if command.audited:
        exit_code, verdict = harness.audit_verdict(result.points)
        print("\n".join(verdict))
    if "tracer" in shared:
        _write_trace(shared["tracer"], args.trace_out)
    return exit_code or 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
