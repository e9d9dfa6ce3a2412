"""A contract fuzzer for the CLI.

``solve``, ``simulate``, ``kernel`` and ``verify`` run in-process on random
problems of 2-7 vertices whose numbers span 10^-300 .. 10^300, mixed with
zeros, subnormals, 1.7e308, NaN and inf spellings, CRLF line ends and bytes
that are not UTF-8.  Each run must end in one of two ways:

- exit 0, with no NaN or infinity in any output file;
- exit 1, with exactly one JSON error object of a known code on stderr
  and no output directory.  A ``verify`` whose suites fail may instead
  exit 1 with a strict-JSON report.

The examples are derandomized, so every run draws the same ones.
"""

import contextlib
import io
import json
import math
import signal
import tempfile
from itertools import combinations
from pathlib import Path

from hypothesis import assume, currently_in_test_context, event, given, settings
from hypothesis import strategies as st

from gneumann import cli, errors

CODES = {c.code for c in vars(errors).values()
         if isinstance(c, type) and issubclass(c, errors.GneumannError)} | {"OutOfMemory"}
SPECIAL = ("0", "0.0", "-0.0", "5e-324", "1e-310", "2.2250738585072014e-308", "1.7e308",
           "-1.7e308", "1e400", "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "+inf")
# each example runs one command on a tiny problem, in about 5-50 ms
FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None)
HOLDS = 2e4  # the most holds a fuzzed simulate may expect to walk


@st.composite
def numbers(draw, decades: float, signed: bool = False, special: bool = True) -> str:
    """A number's spelling: one of SPECIAL (one time in eight, if
    ``special``), or 10^U(-decades, decades), of either sign if ``signed``."""
    if special and draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(SPECIAL))
    x = 10.0 ** draw(st.floats(-decades, decades))
    return repr(-x if signed and draw(st.booleans()) else x)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


@st.composite
def problems(draw, closure=st.booleans()) -> dict:
    """Input files (as bytes) of a random problem, a closure if ``closure``
    draws True, and the facts a simulate job needs to bound its walk."""
    n = draw(st.integers(2, 7))
    names = [f"v{i}" for i in range(n)]
    special = draw(st.integers(0, 2)) == 0
    num = numbers(draw(st.sampled_from([0.5, 4.0, 300.0])), special=special)
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs += [p for p in combinations(range(n), 2) if p not in pairs and draw(st.integers(0, 3)) == 0]
    if draw(st.integers(0, 9)) == 0:  # most likely a disconnected graph
        pairs.pop(draw(st.integers(0, len(pairs) - 1)))
    weights = [draw(num) for _ in pairs]
    masses = [draw(num) for _ in names]
    whole = draw(st.integers(0, 9)) == 0
    interior = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n if whole else n - 1))
    closure = draw(closure)
    if closure:
        boundary = sorted({y for p in pairs for x, y in (p, p[::-1]) if x in interior} - interior)
        mu = [masses[y] for y in boundary]
        pairs_walked = [p for p in pairs if p[0] in interior or p[1] in interior]
    else:
        boundary = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        mu = [draw(num) for _ in boundary]
        pairs_walked = pairs
    phi = [draw(numbers(300.0 if draw(st.booleans()) else 4.0, signed=True, special=special))
           for _ in boundary]
    if phi and draw(st.booleans()):  # centered up to rounding, where the sums allow
        with contextlib.suppress(ZeroDivisionError):
            rest = sum(_float(v) * _float(w) for v, w in zip(phi[:-1], mu[:-1]))
            phi[-1] = repr(-rest / _float(mu[-1]))
    lines = {
        "graph": [f"{names[x]}\t{names[y]}\t{w}" for (x, y), w in zip(pairs, weights)],
        "measure": [f"{x}\t{m}" for x, m in zip(names, masses)],
        "interior": [names[x] for x in sorted(interior)],
        "boundary": [names[y] for y in boundary],
        "mu": [f"{names[y]}\t{v}" for y, v in zip(boundary, mu)],
        "phi": [f"{names[y]}\t{v}" for y, v in zip(boundary, phi)],
    }
    eol = "\r\n" if draw(st.integers(0, 3)) == 0 else "\n"
    files = {k: "".join(line + eol for line in v).encode() for k, v in lines.items()}
    bad = draw(st.sampled_from([None] * 50 + sorted(files)))
    if bad is not None and files[bad]:  # a byte that UTF-8 never uses
        at = draw(st.integers(0, len(files[bad]) - 1))
        files[bad] = files[bad][:at] + b"\xff" + files[bad][at:]
    # the largest holding rate deg/m of the walked graph, where every
    # number the walk reads is finite and positive
    walked = [_float(w) for w in weights] + [_float(m) for m in masses]
    rate = None
    if all(0.0 < v < math.inf for v in walked):
        deg = [0.0] * n
        for (x, y), w in zip(pairs, weights):
            if (x, y) in pairs_walked:
                deg[x] += float(w)
                deg[y] += float(w)
        rate = max(d / float(m) for d, m in zip(deg, masses))
    return {"files": files, "names": names, "closure": closure, "num": num, "rate": rate}


class _Stalled(BaseException):
    """A run that outlived its deadline; no ``except`` of the CLI takes it."""


@contextlib.contextmanager
def _deadline(seconds: int):
    def expire(signum, frame):
        raise _Stalled(f"no outcome within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _refuse(constant):
    raise AssertionError(f"{constant} in JSON")


def _assert_finite_file(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        cells, stack = [], [json.loads(text, parse_constant=_refuse)]
        while stack:
            obj = stack.pop()
            if isinstance(obj, dict):
                stack.extend(obj.values())
            elif isinstance(obj, list):
                stack.extend(obj)
            else:
                cells.append(str(obj))
    else:
        cells = [c.strip('"') for line in text.splitlines() for c in line.split(",")]
    for c in cells:
        with contextlib.suppress(ValueError):
            assert math.isfinite(float(c)), f"{path.name} holds {c!r}"


def _run(command: str, problem: dict, args: list[str]) -> str:
    """Run ``command`` on the problem's files with ``args``, check that it
    ends in one of the two outcomes the module docstring names, and return
    its stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, data in problem["files"].items():
            (d / f"{name}.tsv").write_bytes(data)
        argv = [command, "--graph", str(d / "graph.tsv"), "--measure", str(d / "measure.tsv")]
        if command != "kernel":
            argv += ["--interior", str(d / "interior.tsv")] if problem["closure"] else \
                ["--boundary", str(d / "boundary.tsv"), "--mu", str(d / "mu.tsv")]
            argv += ["--phi", str(d / "phi.tsv")] if "phi" in problem["files"] else []
        out, err = d / "out", io.StringIO()
        with _deadline(20), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + args + ["--out", str(out)])
        stderr = err.getvalue()
        if currently_in_test_context():
            event(f"exit {rc} {stderr[stderr.find('code'):][:30]}")
        assert rc in (0, 1)
        if rc == 0:
            assert stderr == ""
            for path in out.iterdir():
                _assert_finite_file(path)
        elif command == "verify" and not stderr:  # suites failed
            report = json.loads((out / "report.json").read_text(encoding="utf-8"),
                                parse_constant=_refuse)
            assert report["passed"] is False
        else:
            [line] = stderr.splitlines()
            error = json.loads(line, parse_constant=_refuse)
            assert error["code"] in CODES, error
            assert not out.exists()
        return stderr


@FUZZ
@given(problems(), st.data())
def test_solve_contract(problem, data):
    args = ["--method", data.draw(st.sampled_from(["direct", "green", "heat-integral"]))]
    if data.draw(st.booleans()):
        args += ["--tol", data.draw(problem["num"])]
    if data.draw(st.booleans()):
        args.append("--project")
    _run("solve", problem, args)


@FUZZ
@given(problems(), st.data())
def test_simulate_contract(problem, data):
    draw = data.draw
    N = draw(st.one_of(st.integers(2, 40).map(str), st.sampled_from(["1", "0", "-3", "2.5"])))
    kind, rate = draw(st.integers(0, 3)), problem["rate"]
    if kind == 0:
        T = draw(st.sampled_from(SPECIAL + ("-1.0",)))
    elif kind == 1 or not rate or rate == math.inf:
        T = repr(10.0 ** draw(st.floats(-300, 300)))
    else:  # about 10^-3 .. 10^3 holds at the fastest vertex
        T = repr(10.0 ** draw(st.floats(-3, 3)) / rate)
    # a job this test may walk: refused (the horizon, N, the rates, or T
    # times the largest rate at 2^52 or above), or of at most HOLDS holds
    load = _float(T) * rate if rate and 0 < _float(T) < math.inf else 0.0
    assume(load >= 2.0**53 or _float(N) * (1 + load) <= HOLDS)
    start = draw(st.sampled_from(problem["names"] + ["nowhere"]))
    args = ["--start", start, "--T", T, "--N", N, "--seed", str(draw(st.integers(-2**63, 2**64)))]
    if draw(st.booleans()):
        args.append("--dump-paths")
    _run("simulate", problem, args)


@FUZZ
@given(problems(), st.data())
def test_kernel_contract(problem, data):
    times = data.draw(st.lists(numbers(300.0, signed=data.draw(st.booleans())), min_size=1,
                               max_size=3))
    _run("kernel", problem, ["--times", ",".join(times)])


@settings(FUZZ, max_examples=50)  # its suites take longer
@given(problems(closure=st.just(True)), st.data())
def test_verify_contract(problem, data):
    if data.draw(st.booleans()):  # verify without boundary data
        problem = {**problem, "files": {k: v for k, v in problem["files"].items() if k != "phi"}}
    _run("verify", problem, ["--seed", str(data.draw(st.integers(0, 2**32)))])


def _refused(command: str, files: dict, args: list[str]) -> dict:
    """The one JSON error of ``command`` on ``files``, which must exit 1
    and leave no output directory."""
    problem = {"files": {k: v.encode() for k, v in files.items()}, "closure": True}
    [line] = _run(command, problem, args).splitlines()
    return json.loads(line)


def test_an_exact_zero_pivot_of_the_dense_lu_is_ill_conditioned():
    # the weights' ratio 3e233 puts an exact zero pivot in the augmented
    # system, which LAPACK's dgesv refuses with numpy's LinAlgError
    files = {"graph": "v0\tv2\t1.0\nv1\tv2\t3.254503246070292e+233\n",
             "measure": "v0\t1e-162\nv1\t1e-53\nv2\t1e-55\n",
             "interior": "v0\nv1\n", "phi": "v2\t1.0\n"}
    error = _refused("solve", files, ["--method", "direct"])
    assert error["code"] == "IllConditioned"
    assert error["message"].startswith("the dense LU failed")


def test_a_kernel_past_the_float_range_is_ill_conditioned():
    # the Green kernel at a is near 1/m(a) = 2e323, past 1.7e308
    files = {"graph": "a\tb\t5e-324\n", "measure": "a\t5e-324\nb\t1\n"}
    error = _refused("kernel", files, ["--times", "1"])
    assert error == {"code": "IllConditioned", "context": {},
                     "message": "a table value is not finite: it overflows the float range"}
