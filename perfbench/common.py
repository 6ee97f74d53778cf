"""Shared pieces of the benchmark: jobs, oracle failures, digests, loading
drplane from the checkout's ``src/`` and running its CLI."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from tracing import MODULES

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "problems"
DIGESTS = BENCH_DIR / "digests.json"

class OracleError(Exception):
    """A job's result was rejected by its oracle."""


@dataclass
class Job:
    """One public call or one CLI invocation.

    ``call`` runs the job and returns its result; ``check`` is the oracle.
    It returns the number of orbit indices the job delivered and raises
    OracleError on a wrong result.  CLI jobs set ``argv`` (the arguments
    after ``python -m drplane``) and leave ``call`` to the runner.
    ``expect_exc`` names an exception type whose raising is the expected,
    correct refusal.
    """

    kind: str
    check: Callable[[Any], int]
    call: Callable[[], Any] | None = None
    argv: list[str] | None = None
    expect_exc: type | None = None


class FirstRun:
    """Full oracle on a job's first result; later passes over the same
    inputs must reproduce that result exactly (compared by fingerprint),
    which keeps the expensive reference checks out of every pass."""

    def __init__(self):
        self.seen: dict = {}

    def check(self, key, fingerprint, full_check: Callable[[], int]) -> int:
        if key in self.seen:
            want, delivered = self.seen[key]
            require(fingerprint == want, f"{key}: result differs from its verified first run")
            return delivered
        delivered = full_check()
        self.seen[key] = (fingerprint, delivered)
        return delivered


def require(cond: bool, what: str) -> None:
    if not cond:
        raise OracleError(what)


def load_drplane() -> SimpleNamespace:
    """Import drplane afresh from src/ and return its modules.

    Earlier imports are dropped from sys.modules first, so each set-up pays
    the import again; callers must use only the returned modules.
    """
    if not (SRC / "drplane" / "__init__.py").is_file():
        raise SystemExit(f"drplane sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "drplane" or n.startswith("drplane.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("drplane")
    mods = {m: importlib.import_module(f"drplane.{m}") for m in MODULES}
    mods["errors"] = importlib.import_module("drplane.errors")
    return SimpleNamespace(pkg=pkg, **mods)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PERFBENCH_SPANS", None)
    return env


def run_cli(argv: list[str], env: dict, spans_file: str | None = None):
    """Run one drplane CLI child to completion; traced runs go through
    child.py, which records spans into ``spans_file``.

    Children start with -S: drplane needs only the standard library, and
    the host's site-packages hooks (.pth files) would otherwise add tens of
    milliseconds of unrelated, noisy work to every job."""
    if spans_file is None:
        cmd = [sys.executable, "-S", "-m", "drplane", *argv]
    else:
        env = dict(env, PERFBENCH_SPANS=spans_file)
        cmd = [sys.executable, "-S", str(BENCH_DIR / "child.py"), *argv]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)


# -- canonical encodings and digests ----------------------------------------


def encode(value) -> str:
    """Benchmark-owned text form of a drplane scalar, for digests."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (int, Fraction)):
        f = Fraction(value)
        return f"{f.numerator}/{f.denominator}"
    return f"{encode(value.a)}+{encode(value.b)}r{value.d}"


def sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def trace_digest(result) -> str:
    h = hashlib.sha256()
    for rec in result.trace:
        x = "" if rec.x is None else ",".join(encode(c) for c in rec.x)
        h.update(f"{rec.n};{rec.selector_k};{encode(rec.inner)};{x}\n".encode())
    return h.hexdigest()


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fp:
        return json.load(fp)


def canonical_wire(name: str) -> dict:
    with open(PROBLEMS / f"{name}.json", encoding="utf-8") as fp:
        return json.load(fp)


def fraction_text(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def surd_wire(a: Fraction, b: Fraction) -> dict:
    return {"a": fraction_text(Fraction(a)), "b": fraction_text(Fraction(b))}


def write_problem(path: Path, wire: dict) -> str:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(wire, fp, indent=2)
        fp.write("\n")
    return str(path)
