"""Structured argv fuzzing of the scc-forge command, in process through cli.main.

Each example starts from one valid argv per command and replaces or adds one
or two value options, each with an edge value drawn for that option's
converter. Every run must end in a documented exit code within a deadline:
a non-zero exit prints one stderr line and no traceback, and a run that
prints results prints no nan or inf. The resource limits (_SIM_SLOT_LIMIT,
_REQ_TABLE_LIMIT) bound the cost of one run.

The argv fuzz in test_cli.py draws whole argv from value pools, with choice
options, switches and --trace/--locus files, and checks the exit code alone.
"""

import contextlib
import io
import re
import signal

from hypothesis import given, seed, settings, strategies as st

from sccforge import _si, cli

# the README's argv, one per command; --flag=value keeps a value that starts
# with '-' from reading as an option
BASE = {
    "codes": {"ratio": "3/8"},
    "solve": {"ratio": "3/8"},
    "simulate": {"ratio": "3/8", "vin": "8", "caps": "4.7u,4.7u,4.7u", "cout": "470u"},
    "req": {"fs": "100k", "c": "4.7u", "ron": "1.2", "switches": "4"},
    "dither": {"target": "0.4"},
    "ldo": {"vin": "10", "vout": "3.3", "dropout": "0.3"},
}
SWITCHES = {"codes": ["--check"], "solve": ["--stepup", "--eliminate"], "ldo": ["--no-step-up"]}

# "nan" reads as n(ano) times "na", so NaN is spelled in capitals
QUANTITY = [
    "0", "-0", "-1", "-8", "8", "4.7uF", "NaN", "-NaN", "inf", "-inf", "Infinity", "1e400",
    "-1e400", "1e-320", "-1e-320", "1e-400", "1e308", "1e-300", "1e300", "", "k", "1e",
]
HUGE = "9" * 400
INT = ["0", "-1", "1", "2", "3", "16", HUGE, "-" + HUGE, "9" * 5000, "1.5", "1e3", "", "x"]
# --n: the req table's limit is 10; ldo and dither take up to 1000
RESOLUTION = ["0", "-1", "1", "10", "11", "1000", "1001", HUGE]
# 300,001 periods of the 5-code 3/8 family is one period past the slot limit
PERIODS = [*INT, "300001"]
RATIO = [
    "0/8", "8/8", "9/8", "-3/8", "3/-8", "3/0", "0/0", "3/7", "3", "3/8/1", "a/b", "",
    "3.0/8", "4/8", "1/2", "65535/65536", "1/131072", "1/" + str(2**400),
]
SLOT = [
    "Ts/0", "Ts/-1", "Ts/1", "Ts/4", "ts/2", "Ts/x", "Ts/", "Ts/" + HUGE,
    "0", "-2u", "2u", "1", "NaN", "inf", "-inf", "Infinity", "1e400", "1e-320", "1e-400",
]
FRACTION = [
    "0", "1", "-0.4", "0.4", "2/5", "1/0", "0/0", "nan", "NaN", "inf", "-inf",
    "1e-9999", "1e-999", "1e-320", "1e400", "0.999999", "abc", "",
]
# a list is the base list with one item an edge quantity, or a list of the wrong length
LISTS = {"caps": ("4.7u", 3), "init": ("0", 4)}
BAD_LISTS = ["", ",", " , ", "1u", "1u,1u,1u,1u,1u"]

EDGES = {
    _si.parse_quantity: QUANTITY,
    cli._int: INT,
    _si.parse_slot: SLOT,
    _si.parse_fraction: FRACTION,
    str: RATIO,
}
SPECIAL = {"n": RESOLUTION, "max_periods": PERIODS}

DEADLINE_S = 10.0
NON_FINITE = re.compile(r"(?<![a-z])(nan|inf|infinity)(?![a-z])", re.IGNORECASE)


def option_values(name):
    """Edge values for one option, drawn for its converter."""
    if name in LISTS:
        item, width = LISTS[name]
        one_edge = st.tuples(st.integers(0, width - 1), st.sampled_from(QUANTITY)).map(
            lambda edit: ",".join(edit[1] if k == edit[0] else item for k in range(width))
        )
        return st.sampled_from(BAD_LISTS) | one_edge
    return st.sampled_from(SPECIAL.get(name) or EDGES[cli._OPTIONS[name][0]])


def fuzzed_options(command):
    # argparse itself checks the choice options, so their edges are argparse's
    options = cli._COMMANDS[command][1]
    return [name for name in options if not isinstance(cli._OPTIONS[name][0], cli._Choice)]


# the first edit is drawn per (command, option) pair, so each option, not each
# command, gets about the same share of the examples
TARGETS = st.sampled_from([(command, name) for command in BASE for name in fuzzed_options(command)])
SECOND = {command: st.sampled_from(fuzzed_options(command)) for command in BASE}
VALUES = {name: option_values(name) for command in BASE for name in fuzzed_options(command)}
FORMATS = st.sampled_from(["text", "csv", "json"])


@st.composite
def perturbed_argv(draw):
    """A command's argv with one value option, or two, replaced or added."""
    command, name = draw(TARGETS)
    values = BASE[command] | {name: draw(VALUES[name])}
    if draw(st.booleans()):
        name = draw(SECOND[command])  # the first one again leaves one edit
        values[name] = draw(VALUES[name])
    values["format"] = draw(FORMATS)
    argv = [command, *(f"{cli._flag(name)}={value}" for name, value in values.items())]
    return argv + [flag for flag in SWITCHES.get(command, []) if draw(st.booleans())]


class Overran(Exception):
    pass


def _overran(signum, frame):
    raise Overran(f"no exit within {DEADLINE_S} s")


def run_main(argv):
    """cli.main(argv) under a wall-clock deadline: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(perturbed_argv())
def test_perturbed_argv_ends_in_a_documented_exit(argv):
    code, out, err = run_main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, argv
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    if code in (0, 4):
        assert not NON_FINITE.search(out), (argv, out)
