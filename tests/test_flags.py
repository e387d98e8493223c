"""Numeric CLI flags: every bad value is a usage error naming the flag.

A value outside a flag's bound, or one that is not a number at all, makes
``mhi`` exit 1 with ``argument --FLAG: <reason>`` on stderr; the reason never
shows an internal function name. A value the parser accepts lies inside the
bound that README's exit-code paragraph documents, and a flag's default is
the one README's Commands table gives. These tests only parse: no command
runs.
"""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhi import cli
from mhi.cli import main
from mhi.temporal import MAX_TAU

TRAIN = ["train", "--features", "f.csv", "--classifier", "mlp", "--out", "m.json"]
PREDICT = ["predict", "--model", "m.json", "--frames", "clip"]


def _integer(low, high=math.inf):
    return lambda value: type(value) is int and low <= value <= high


# Each numeric flag: the command line it is added to, and whether a parsed
# value lies inside its documented bound.
FLAGS = {
    "--k": (TRAIN, _integer(1)),
    "--tau": (TRAIN, _integer(1, MAX_TAU)),
    "--epochs": (TRAIN, _integer(1)),
    "--batch": (TRAIN, _integer(1)),
    "--seed": (TRAIN, _integer(0)),
    "--lr": (TRAIN, lambda value: 0 < value < math.inf),
    "--theta": (TRAIN, lambda value: 0 <= value < math.inf),
    "--window": (PREDICT, _integer(2)),
    "--stride": (PREDICT, _integer(1)),
    "--hidden": (TRAIN, lambda value: len(value) > 0 and all(map(_integer(1), value))),
}


def _usage_error(flag: str, stderr: str) -> None:
    assert f"argument {flag}: " in stderr
    assert "invalid _" not in stderr


@pytest.mark.parametrize("flag", sorted(FLAGS))
def test_a_value_that_is_not_a_number_names_the_flag(capsys, flag):
    argv, _ = FLAGS[flag]
    with pytest.raises(SystemExit) as info:
        main([*argv, flag, "x"])
    assert info.value.code == 1
    _usage_error(flag, capsys.readouterr().err)


@pytest.mark.parametrize("flag, value, reason", [
    ("--k", "0", "value must be >= 1, got 0"),
    ("--tau", "0", "value must be >= 1, got 0"),
    ("--tau", str(MAX_TAU + 1), f"value must be <= {MAX_TAU}, got {MAX_TAU + 1}"),
    ("--epochs", "-3", "value must be >= 1, got -3"),
    ("--batch", "0", "value must be >= 1, got 0"),
    ("--seed", "-1", "value must be >= 0, got -1"),
    ("--window", "1", "value must be >= 2, got 1"),
    ("--stride", "0", "value must be >= 1, got 0"),
    ("--k", "x", "invalid integer value: 'x'"),
    ("--lr", "abc", "not a number: 'abc'"),
])
def test_integer_and_rate_messages(capsys, flag, value, reason):
    argv, _ = FLAGS[flag]
    with pytest.raises(SystemExit) as info:
        main([*argv, flag, value])
    assert info.value.code == 1
    assert f"argument {flag}: {reason}\n" in capsys.readouterr().err


@pytest.mark.parametrize("flag", sorted(FLAGS))
@settings(max_examples=200, deadline=None)
@given(value=st.text())
def test_a_flag_value_parses_inside_its_bound_or_is_a_usage_error(flag, value):
    argv, inside = FLAGS[flag]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            args = cli.build_parser().parse_args([*argv, f"{flag}={value}"])
        except SystemExit as exc:
            assert exc.code == 1
            _usage_error(flag, stderr.getvalue())
            return
    assert inside(getattr(args, flag[2:]))


def _readme_defaults() -> list[tuple[str, str, str]]:
    """Each ``--flag`` (value) of README's Commands table as (command, flag,
    value), for the values that are numbers or hidden sizes."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Commands"):]
    section = section[:section.index("\n\n", section.index("| command |"))]
    entries = []
    for command, flags in re.findall(r"^\| `mhi (\w+)` \|.*\| (.*) \|$", section, re.M):
        for flag, value in re.findall(r"`(--[\w-]+)` \(([^)]*)\)", flags):
            # Entries such as "(model tau)" or "(window/2)" are not numbers.
            if re.fullmatch(r"[0-9.]+(,[0-9]+)*", value):
                entries.append((command, flag, value))
    return entries


def test_readme_commands_table_lists_the_numeric_defaults():
    assert {(command, flag) for command, flag, _ in _readme_defaults()} >= {
        ("extract", "--theta"), ("extract", "--tau"), ("train", "--hidden"),
        ("train", "--batch"), ("train", "--lr"), ("render", "--tau"),
    }


@pytest.mark.parametrize("command, flag, value", _readme_defaults())
def test_readme_commands_table_defaults_match_the_parser(command, flag, value):
    default = cli.build_parser().commands[command].get_default(flag[2:])
    documented = cli._hidden_sizes(value) if flag == "--hidden" else float(value)
    assert documented == default
