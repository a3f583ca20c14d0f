"""Unit tests for the command-line interface."""

import os
import runpy
import sys

import pytest

from repro.cli import main


def test_table1_command(capsys):
    assert main(["table1", "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "median" in out


def test_fig10_command(capsys):
    assert main(["fig10", "--requests", "100", "--keys", "100"]) == 0
    out = capsys.readouterr().out
    assert "Figure 10 (a) Read latency" in out
    assert "Figure 10 (b) Write latency" in out
    assert "halfmoon-read" in out


def test_advise_read_heavy(capsys):
    assert main(["advise", "--read-ratio", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "halfmoon-read" in out


def test_advise_write_heavy(capsys):
    assert main(["advise", "--read-ratio", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "halfmoon-write" in out


def test_recovery_command(capsys):
    assert main(["recovery", "--f", "0.0", "--requests", "30"]) == 0
    out = capsys.readouterr().out
    assert "recovery cost" in out
    assert "boki" in out


def test_chaos_command(capsys):
    assert main(["chaos", "--fault-rates", "0.0", "0.1",
                 "--requests", "40", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "Chaos" in out
    assert "violations" in out
    assert "unsafe" in out


def test_seed_and_fault_rate_accepted_everywhere(capsys):
    assert main(["table1", "--samples", "200", "--seed", "7",
                 "--fault-rate", "0.05"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_seed_makes_output_deterministic(capsys):
    main(["chaos", "--fault-rates", "0.05", "--requests", "30",
          "--seed", "9"])
    first = capsys.readouterr().out
    main(["chaos", "--fault-rates", "0.05", "--requests", "30",
          "--seed", "9"])
    assert capsys.readouterr().out == first


def test_negative_seed_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["table1", "--seed", "-1"])
    assert "--seed must be non-negative" in capsys.readouterr().err


def test_fault_rate_out_of_range_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["fig10", "--fault-rate", "1.5"])
    assert "--fault-rate must be in [0, 1)" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["fig10", "--fault-rate", "-0.2"])
    assert "--fault-rate must be in [0, 1)" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_missing_required_argument():
    with pytest.raises(SystemExit):
        main(["advise"])  # --read-ratio is required


@pytest.mark.parametrize("caller", [None, "3"])
def test_entry_point_pins_one_blas_thread_unless_the_caller_sets_it(
        monkeypatch, caller, capsys):
    # ``python -m repro`` sets the pair before anything imports numpy;
    # an explicit value in the caller's environment wins.
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = caller
    monkeypatch.setattr(os, "environ", env)
    monkeypatch.setattr(sys, "argv",
                        ["repro", "advise", "--read-ratio", "0.5"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("repro", run_name="__main__")
    assert exit_info.value.code == 0
    expected = caller or "1"
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == expected
