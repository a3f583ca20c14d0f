"""The CLI's contract with the harness drivers.

``cli.py`` derives every flag's type, default and ``nargs`` from the
signature of the driver it calls, so these tests pin what a derivation
must not be able to move (the parser, flag by flag, captured before the
derivation existed), the rule for the shared flags (honoured or
rejected, never dropped), the typed failures at the edge, and the exit
code the audited commands end with.
"""

import argparse

import pytest

from repro.cli import _build_parser, main
from repro.config import FaultConfig, SystemConfig
from repro.harness import seed_for
from repro.harness.audit import GroundTruth

# ----------------------------------------------------------------------
# The derivation cannot move a default.
# ----------------------------------------------------------------------

SYSTEMS = ["unsafe", "boki", "halfmoon-read", "halfmoon-write"]
LOGGED = ["boki", "halfmoon-read", "halfmoon-write"]
COMPONENTS = ["metalog", "shard-replica", "partition", "netsplit"]
SEQUENCERS = ["monolith", "batched", "leased-ranges"]
APPS = ["travel-reservation", "movie-review", "retwis"]
SWITCH = (None, False, 0, None)

#: ``flag: (type, default, nargs, choices)``, inherited by every command
#: but ``top`` and ``advise``.
SHARED_FLAGS = {
    "--seed": ("int", None, None, None),
    "--fault-rate": ("float", None, None, None),
    "--jobs": ("int", None, None, None),
    "--trace-out": ("str", None, None, None),
    "--storage-backend": ("str", None, None, None),
    "--log-shards": ("int", None, None, None),
    "--kv-partitions": ("int", None, None, None),
    "--sequencer": ("str", None, None, None),
    "--sequencer-batch": ("int", None, None, None),
    "--sequencer-hold": ("float", None, None, None),
    "--sequencer-block": ("int", None, None, None),
}

#: Each command's own flags as the hand-written parser declared them,
#: captured from ``_build_parser()`` at the last commit that had one.
#: Six defaults deliberately differ from the driver's: ``table1
#: --samples``, ``fig10 --requests``, ``fig11``/``fig12 --duration``,
#: ``fig13 --rates``, ``recovery --requests``.
OWN_FLAGS = {
    "table1": {"--samples": ("int", 10_000, None, None)},
    "fig10": {"--requests": ("int", 1_500, None, None),
              "--keys": ("int", 2_000, None, None)},
    "fig11": {"--apps": ("str", APPS, "+", APPS),
              "--duration": ("float", 5_000.0, None, None)},
    "fig12": {"--size": ("int", 256, None, None),
              "--gc": ("float", 10_000.0, None, None),
              "--duration": ("float", 25_000.0, None, None)},
    "fig13": {"--rates": ("float", [150.0, 350.0], "+", None),
              "--duration": ("float", 8_000.0, None, None)},
    "fig14": {"--rates": ("float", [300.0, 600.0], "+", None)},
    "recovery": {"--f": ("float", [0.0, 0.1, 0.2, 0.3, 0.4], "+", None),
                 "--requests": ("int", 300, None, None)},
    "chaos": {"--fault-rates": ("float", [0.0, 0.02, 0.05, 0.1], "+",
                                None),
              "--requests": ("int", 200, None, None),
              "--crash-f": ("float", 0.15, None, None),
              "--brownout": SWITCH},
    "failover": {"--leases": ("float", [250.0, 1_000.0, 4_000.0], "+",
                              None),
                 "--crash-at": ("float", 1_500.0, None, None),
                 "--rate": ("float", 600.0, None, None),
                 "--duration": ("float", 4_000.0, None, None),
                 "--systems": ("str", LOGGED, "+", None)},
    "storagechaos": {"--components": ("str", COMPONENTS, "+", COMPONENTS),
                     "--systems": ("str", SYSTEMS, "+", None),
                     "--replications": ("int", [1, 3], "+", None),
                     "--sequencers": ("str", ["monolith"], "+",
                                      SEQUENCERS),
                     "--crash-at": ("float", 1_000.0, None, None),
                     "--recover-after": ("float", 400.0, None, None),
                     "--rate": ("float", 400.0, None, None),
                     "--duration": ("float", 3_000.0, None, None),
                     "--crash-f": ("float", 0.1, None, None)},
    "trace": {"--protocol": ("str", "halfmoon-read", None, SYSTEMS),
              "--rate": ("float", 150.0, None, None),
              "--duration": ("float", 5_000.0, None, None),
              "--read-ratio": ("float", 0.5, None, None),
              "--crash-node": ("int", None, None, None),
              "--crash-at": ("float", None, None, None),
              "--out": ("str", None, None, None),
              "--no-trace": SWITCH},
    "shards": {"--shards": ("int", [1, 2, 4, 8], "+", None),
               "--rates": ("float", [150.0, 300.0, 600.0], "+", None),
               "--protocol": ("str", "boki", None, SYSTEMS),
               "--read-ratio": ("float", 0.5, None, None),
               "--duration": ("float", 8_000.0, None, None)},
    "scale": {"--sequencers": ("str", SEQUENCERS, "+", None),
              "--rates": ("float", [400.0, 800.0, 1200.0, 1600.0], "+",
                          None),
              "--users": ("int", 100_000, None, None),
              "--ops": ("int", 4, None, None),
              "--protocol": ("str", "boki", None, SYSTEMS),
              "--duration": ("float", 3_000.0, None, None),
              "--diurnal": ("float", None, None, None),
              "--diurnal-points": ("int", 6, None, None)},
    "live": {"--workers": ("int", 4, None, None),
             "--kills": ("int", 3, None, None),
             "--rate": ("float", 400.0, None, None),
             "--requests": ("int", 250, None, None),
             "--lease": ("float", 400.0, None, None),
             "--crash-f": ("float", 0.0, None, None),
             "--admission": ("int", None, None, None),
             "--deadline": ("float", 120.0, None, None),
             "--systems": ("str", SYSTEMS, "+", None),
             "--no-telemetry": SWITCH,
             "--flightrec-dir": ("str", None, None, None),
             "--prom-out": ("str", None, None, None)},
    "top": {"--gateway": ("str", "results", None, None),
            "--interval": ("float", 1.0, None, None),
            "--once": SWITCH},
    "profile": {"--target": ("str", "shards", None,
                             ["shards", "fig10", "chaos"]),
                "--top": ("int", 25, None, None),
                "--sort": ("str", "cumulative", None,
                           ["cumulative", "tottime", "ncalls"])},
    "advise": {"--read-ratio": ("float", None, None, None),
               "--rate": ("float", 100.0, None, None),
               "--value-bytes": ("int", 256, None, None)},
}


def _subparsers():
    parser = _build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flag_table(subparser):
    table = {}
    for action in subparser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        takes_value = action.nargs != 0
        table[action.option_strings[0]] = (
            # argparse's default converter *is* str.
            (action.type or str).__name__ if takes_value else None,
            action.default,
            action.nargs,
            list(action.choices) if action.choices is not None else None,
        )
    return table


def test_all_seventeen_commands_are_declared():
    assert list(_subparsers()) == list(OWN_FLAGS)
    assert len(OWN_FLAGS) == 17


@pytest.mark.parametrize("command", list(OWN_FLAGS))
def test_derived_parser_equals_the_hand_written_one(command):
    expected = {} if command in ("top", "advise") else dict(SHARED_FLAGS)
    expected.update(OWN_FLAGS[command])
    derived = _flag_table(_subparsers()[command])
    assert derived == expected
    # Same flags in the same --help order.
    assert list(derived) == list(expected)


def test_advise_still_requires_its_read_ratio():
    actions = {a.option_strings[0]: a
               for a in _subparsers()["advise"]._actions}
    assert actions["--read-ratio"].required
    assert not actions["--rate"].required


# ----------------------------------------------------------------------
# A shared flag is honoured or rejected, never dropped.
# ----------------------------------------------------------------------


class _Stop(Exception):
    """Raised in place of building the runtime: the config the point
    validated is all these tests need."""


def _stop(*args, **kwargs):
    raise _Stop


#: Audited command → the smallest single-cell invocation of it.
AUDITED = {
    "chaos": ["--fault-rates", "0.1", "--requests", "5"],
    "failover": ["--leases", "250", "--systems", "boki"],
    "storagechaos": ["--components", "metalog", "--systems", "boki",
                     "--replications", "1"],
    "live": ["--systems", "boki", "--workers", "1", "--kills", "0",
             "--requests", "5"],
}

#: Where each audited point builds what it runs on, right after it
#: validated its config.
BUILD_SITES = [
    "repro.harness.chaos.LocalRuntime",
    "repro.harness.failover.SimPlatform",
    "repro.harness.storagechaos.SimPlatform",
    "repro.harness.live_exp.build_compute_plane",
]

#: Shared flag → (value, what the validated config must then satisfy).
CONFIG_FLAGS = {
    "--seed": ("5", None),  # cells derive their seed: see below
    "--fault-rate": ("0.25",
                     lambda c: c.faults == FaultConfig.uniform(0.25)),
    "--storage-backend": ("sharded",
                          lambda c: c.storage.backend == "sharded"),
    "--log-shards": ("4", lambda c: c.storage.log_shards == 4),
    "--kv-partitions": ("4", lambda c: c.storage.kv_partitions == 4),
    # Removed with the ``first_seen`` policy: rejected by name, like any
    # flag no command declares — never accepted and ignored.
    "--placement": ("first_seen", None),
    "--sequencer": ("batched", lambda c: c.storage.sequencer == "batched"),
    "--sequencer-batch": ("3", lambda c: c.storage.sequencer_batch == 3),
    "--sequencer-hold": ("0.5",
                         lambda c: c.storage.sequencer_hold_ms == 0.5),
    "--sequencer-block": ("7", lambda c: c.storage.sequencer_block == 7),
}

#: The seed the single cell of each command runs under for ``--seed 5``.
CELL_SEEDS = {
    "chaos": 5,
    "failover": 5,
    "storagechaos": seed_for(5, ("storagechaos", "boki", "metalog", 1)),
    "live": seed_for(5, ("live", "boki")),
}

#: The flags a command cannot honour, and the hint its error carries.
REJECTED = {
    ("chaos", "--fault-rate"): "use --fault-rates",
    ("storagechaos", "--sequencer"): "use --sequencers",
    ("storagechaos", "--storage-backend"): "sets it itself",
    ("live", "--storage-backend"): "sets it itself",
}


@pytest.fixture
def validated(monkeypatch):
    """Every ``SystemConfig`` validated while a command runs — up to the
    point where the audited cell would build its runtime."""
    configs = []
    validate = SystemConfig.validate

    def spy(self):
        configs.append(self)
        return validate(self)

    monkeypatch.setattr(SystemConfig, "validate", spy)
    for site in BUILD_SITES:
        monkeypatch.setattr(site, _stop)
    return configs


def _single_cell(command, *extra):
    # `live` runs its cells serially and says so when handed --jobs.
    jobs = [] if command == "live" else ["--jobs", "1"]
    return [command, *AUDITED[command], *jobs, *extra]


@pytest.mark.parametrize("flag", list(CONFIG_FLAGS))
@pytest.mark.parametrize("command", list(AUDITED))
def test_shared_flag_is_honoured_or_rejected(validated, capsys, command,
                                             flag):
    value, holds = CONFIG_FLAGS[flag]
    argv = _single_cell(command, flag, value)
    if flag == "--placement":
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert ("unrecognized arguments: --placement first_seen"
                in capsys.readouterr().err)
        return
    hint = REJECTED.get((command, flag))
    if hint is not None:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert f"{flag} is not supported by '{command}'" in error
        assert hint in error
        return
    with pytest.raises(_Stop):
        main(argv)
    # The last config validated is the one the point is about to run.
    config = validated[-1]
    if flag == "--seed":
        assert config.seed == CELL_SEEDS[command]
    else:
        assert holds(config), (command, flag, config.storage)


@pytest.mark.parametrize("command", ["storagechaos", "live"])
def test_own_topology_defaults_are_unchanged(validated, command):
    """``storagechaos`` and ``live`` take ``--log-shards`` /
    ``--kv-partitions`` as their own parameters; absent, 2 x 2."""
    with pytest.raises(_Stop):
        main(_single_cell(command))
    storage = validated[-1].storage
    assert (storage.log_shards, storage.kv_partitions,
            storage.backend) == (2, 2, "sharded")


@pytest.mark.parametrize("argv, reason", [
    (["table1", "--jobs", "2"], "does not fan cells over a pool"),
    (["table1", "--trace-out", "t.json"], "attaches no tracer"),
    (["live", "--jobs", "2"], "does not fan cells over a pool"),
    (["shards", "--log-shards", "4"], "use --shards"),
    (["scale", "--sequencer", "batched"], "use --sequencers"),
])
def test_the_rule_covers_every_command(capsys, argv, reason):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    error = capsys.readouterr().err
    assert f"{argv[1]} is not supported by '{argv[0]}'" in error
    assert reason in error


# ----------------------------------------------------------------------
# Typed failure at the CLI edge.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    (["failover", "--systems", "foo", "--jobs", "1"],
     "unknown protocol 'foo'"),
    (["shards", "--shards", "0", "--rates", "100", "--jobs", "1"],
     "log_shards must be positive"),
    (["fig10", "--sequencer-batch", "0"],
     "sequencer_batch must be positive"),
    (["fig10", "--requests", "5", "--storage-backend", "bogus"],
     "unknown storage backend 'bogus'"),
    (["table1", "--samples", "5", "--sequencer", "bogus"],
     "unknown sequencer 'bogus'"),
])
def test_config_error_is_an_error_line_and_exit_two(capsys, argv,
                                                    message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro: error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_closed_stdout_is_a_quiet_nonzero_exit(monkeypatch, capsys):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    exit_code = main(["table1", "--samples", "50"])
    monkeypatch.undo()
    assert exit_code == 141
    assert capsys.readouterr().err == ""


# ----------------------------------------------------------------------
# Verdict by exit code.
# ----------------------------------------------------------------------

#: Small grids in which the seeded unsafe control violates.
VERDICT_RUNS = {
    "chaos": ["--fault-rates", "0.1", "--requests", "150", "--seed", "5"],
    "failover": ["--systems", "unsafe", "boki", "--leases", "250",
                 "--crash-at", "400", "--rate", "800", "--duration",
                 "800", "--seed", "2"],
    "storagechaos": ["--components", "metalog", "--replications", "1",
                     "--systems", "unsafe", "boki", "--rate", "250",
                     "--duration", "1500", "--seed", "11"],
}


@pytest.mark.parametrize("command", list(VERDICT_RUNS))
def test_audited_command_passes_with_the_control_violating(capsys,
                                                           command):
    assert main([command, *VERDICT_RUNS[command], "--jobs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("exactly-once audit: PASS (")
    assert "control violated in 1 of 1 cells" in lines[-1]
    assert not any("AUDIT FAILURE" in line for line in lines)


@pytest.mark.parametrize("command", list(VERDICT_RUNS))
def test_audited_command_exits_one_on_a_boki_violation(monkeypatch,
                                                       capsys, command):
    probe_pass = GroundTruth.violations

    def misreport_one_key_under_boki(self, runtime):
        if runtime.router.control_protocol().name == "boki":
            self.count(next(iter(self.expected)))  # never ran
        return probe_pass(self, runtime)

    monkeypatch.setattr(GroundTruth, "violations",
                        misreport_one_key_under_boki)
    assert main([command, *VERDICT_RUNS[command], "--jobs", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "AUDIT FAILURE: boki: 1 exactly-once violations"
    assert not any("audit: PASS" in line for line in lines)
