"""Structured argv fuzzing of the scc-forge command, in process through cli.main.

Each example starts from one valid argv per command and replaces or adds one
to three value options, each with an edge value drawn for that option's
converter, choice options included. Some examples also drop a required
option, set switches, move options into a --config file (sometimes beside a
key that no config file may set, or repeating one of them in another
spelling), have simulate write its trace and locus files, one of them perhaps
into a directory that does not exist, or run again with stdout closed.

Every run must end in a documented exit code within a deadline: a non-zero
exit prints no traceback and one stderr line, or for argparse's own errors
its usage and then one error line; a refused or repeated config key is named
in a usage error; a run that prints results prints no nan or inf; and a
closed stdout changes neither the exit code nor stderr. The resource limits
(_SIM_SLOT_LIMIT, _REQ_TABLE_LIMIT) bound the cost of one run.
"""

import contextlib
import errno
import io
import re
import signal

from hypothesis import example, given, seed, settings, strategies as st

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
SWITCHES = {"codes": ["--check"], "solve": ["--stepup"], "ldo": ["--no-step-up"]}

QUANTITY = [
    "0", "-0", "-1", "-8", "8", "4.7uF", "nan", "NaN", "-NaN", "inf", "-inf", "Infinity", "1e400",
    "-1e400", "1e-320", "-1e-320", "1e-400", "1e308", "1e-300", "1e300", "", "k", "1e",
]
HUGE = "9" * 400
INT = ["0", "-1", "1", "2", "3", "16", HUGE, "-" + HUGE, "9" * 5000, "1.5", "1e3", "", "x"]
# --n: the req table's limit is 10 (1,023 rows, about half a second), refused
# at 11; ldo and dither take up to 1000
RESOLUTION = ["0", "-1", "1", "10", "11", "1000", "1001", HUGE]
# 300,001 periods of the 5-code 3/8 family is one period past the slot limit
PERIODS = [*INT, "300001"]
# well-formed families beside 3/8, one of them radix 3, then malformed or edge ratios
RATIO = [
    "5/8", "7/8", "4/8", "1/2", "5/16", "21/64", "63/64", "4/9",
    "0/8", "8/8", "9/8", "-3/8", "3/-8", "3/0", "0/0", "3/7", "3", "3/8/1", "a/b", "",
    "3.0/8", "65535/65536", "1/131072", "1/" + str(2**400),
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
# names that a choice option does not take, or no longer takes
CHOICE_EXTRAS = ["enumerate", "sorted", "xml", ""]
# config keys that must be refused: no option at all, or set on the command line only
REFUSED_KEYS = ["slots", "eliminate", "topologies", "trace", "locus", "check", "stepup", "no_step_up", "config"]

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
    conv = cli._OPTIONS[name][0]
    if isinstance(conv, cli._Choice):
        return st.sampled_from(list(dict.fromkeys([*conv, *CHOICE_EXTRAS])))
    return st.sampled_from(SPECIAL.get(name) or EDGES[conv])


def one_in(k):
    # sampled_from draws near-uniformly; integers and booleans lean to their ends
    return st.sampled_from(range(k)).map(lambda i: i == 0)


# the first edit is drawn per (command, option) pair, so each option, not each
# command, gets about the same share of the examples; --format, which every
# command takes, is left to the later edits
TARGETS = st.sampled_from([(command, name) for command in BASE for name in cli._COMMANDS[command][1]])
SECOND = {command: st.sampled_from([*cli._COMMANDS[command][1], "format"]) for command in BASE}
VALUES = {name: option_values(name) for command in BASE for name in (*cli._COMMANDS[command][1], "format")}
FORMATS = st.sampled_from(["text", "csv", "json"])
DROPPED = {command: st.sampled_from(list(options)) for command, options in BASE.items()}
REFUSED = st.sampled_from(REFUSED_KEYS)
# stands for the test's output directory in a drawn --trace or --locus path;
# "missing" is never made, so a path in it cannot be opened
OUT_DIR = "<out>"
WHERE = st.sampled_from([OUT_DIR, f"{OUT_DIR}/missing"])


@st.composite
def perturbed_argv(draw):
    """(argv, config lines, the config key a usage error must name or None, close stdout)."""
    command, name = draw(TARGETS)
    values = BASE[command] | {"format": draw(FORMATS), name: draw(VALUES[name])}
    edited = {name}
    for _ in range(draw(st.sampled_from(range(3)))):
        name = draw(SECOND[command])  # an option edited before leaves one edit fewer
        values[name] = draw(VALUES[name])
        edited.add(name)
    if draw(one_in(8)):
        del values[draw(DROPPED[command])]
    config, named = [], None
    if draw(one_in(4)):
        # the edited options come from the file instead
        config = [f"{cli._flag(name)[2:]} = {values.pop(name)}" for name in edited if name in values]
        if draw(st.booleans()):
            named = draw(REFUSED)
            config.append(f"{named} = 1")
        if config and draw(one_in(3)):
            # a repeat is refused as the file is read, before any key is checked
            line = draw(st.sampled_from(config))
            key = line.split(" = ")[0]
            spelling = draw(st.sampled_from(sorted({key.upper(), key.title(), key.replace("-", "_")} - {key})))
            config.append(line.replace(key, spelling, 1))
            named = key.replace("-", "_")
    argv = [command, *(f"{cli._flag(name)}={value}" for name, value in values.items())]
    argv += [flag for flag in SWITCHES.get(command, []) if draw(st.booleans())]
    if command == "simulate":
        for name in ("trace", "locus"):
            if draw(st.booleans()):
                argv.append(f"--{name}={draw(WHERE)}/{name}.csv")
    return argv, config, named, draw(one_in(4))


class Overran(Exception):
    pass


def _overran(signum, frame):
    raise Overran(f"no exit within {DEADLINE_S} s")


class ClosedStdout:
    """A stdout whose reader has gone: every write and flush is a broken pipe, and no fileno."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def run_main(argv, stdout=None):
    """cli.main(argv) under a wall-clock deadline: (exit code, stdout, stderr).

    stdout, if given, stands in for the real one; what it takes is not returned.
    """
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with contextlib.redirect_stdout(stdout or out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


# well-formed runs that set three or more options, which one or two edits
# rarely reach: radix 3 with a generator or the step-up solve, another family
# simulated in every order with its files, the req table at its limit; and
# --slot=NaN, the one non-finite quantity that only parse_quantity stops,
# which the draws reach in about 2 of 300 examples
SIMULATE_5_8 = ["simulate", "--ratio=5/8", "--vin=8", "--caps=4.7u,4.7u,4.7u", "--cout=470u"]
SIMULATE_21_64 = ["simulate", "--ratio=21/64", "--vin=8", "--caps=1u,2u,3u,4u,5u,6u", "--cout=47u"]


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(case=perturbed_argv())
@example(case=(["codes", "--ratio=4/9", "--radix=3", "--generator=balanced", "--format=json"], [], None, False))
@example(case=(["codes", "--ratio=4/9", "--radix=3", "--generator=spawn", "--check"], [], None, True))
@example(case=(["solve", "--ratio=4/9", "--radix=3", "--format=csv", "--stepup"], [], None, False))
@example(case=([*SIMULATE_5_8, "--order=sorted", f"--trace={OUT_DIR}/t.csv", f"--locus={OUT_DIR}/l.csv"], [], None, True))
@example(case=([*SIMULATE_21_64, "--init=0,0,0,0,0,0,1", "--order=balanced", "--format=json"], [], None, False))
@example(case=(["req", "--fs=1e300", "--c=4.7u", "--ron=1.2", "--switches=4", "--n=10", "--format=json"], [], None, False))
@example(case=(["req", "--fs=100k", "--c=4.7u", "--ron=1.2", "--switches=4", "--slot=NaN"], [], None, True))
def test_perturbed_argv_ends_in_a_documented_exit(tmp_path_factory, case):
    out_dir = tmp_path_factory.getbasetemp() / "argv-fuzz"
    out_dir.mkdir(exist_ok=True)
    argv, config, named, closed = case
    argv = [arg.replace(OUT_DIR, str(out_dir)) for arg in argv]
    if config:
        path = out_dir / "board.cfg"
        path.write_text("".join(line + "\n" for line in config))
        argv.append(f"--config={path}")
    code, out, err = run_main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, argv
    usage = err.startswith("usage: ")
    if usage:
        # argparse's own error: its usage, perhaps wrapped, then one error line
        assert code == 2 and err.endswith("\n"), (argv, err)
        assert err.splitlines()[-1].startswith(f"scc-forge {argv[0]}: error: "), (argv, err)
    elif code:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    if named and not usage:
        assert code == 2 and f"key {named!r}" in err, (argv, config, err)
    if code in (0, 4):
        assert not NON_FINITE.search(out), (argv, out)
    if closed:
        closed_code, _, closed_err = run_main(argv, ClosedStdout())
        assert (closed_code, closed_err) == (code, err), argv
