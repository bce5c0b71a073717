"""The output corpus: what ``uqc`` writes for a fixed set of invocations.

Each case is one ``uqc`` command line, run in-process through
:func:`uqc.cli.main` in a directory that holds its input documents.  Its
record keeps the exit code, stdout, stderr and the sha256 of the ``--out``
file.  ``tests/test_corpus.py`` runs every case again and compares.

The cases, by group (one file under ``expected/`` each):

- ``check_large``, ``check_scan``, ``oracle``, ``repair``: every seed-1
  document of that benchmark workload, rebuilt by
  ``bench/workloads.make_doc``, through ``check``, ``check --text``,
  ``epsilon`` and ``epsilon --text``; the ``oracle`` documents also through
  ``check --oracle`` and ``oracle``, each with and without ``--text``, the
  ``repair``
  documents through ``repair --out`` in both styles and both selections,
  with and without ``--text``.  The sha256 of each document is kept too,
  so that a change in the document generator is reported as such;
- ``construct``: d in {1, 2, 7, 64}, u and su, both styles, with and
  without ``--text``, and dimensions that must exit 2;
- ``odd``: the small documents of ``documents/`` (the ends of float64,
  subnormal couplings, a document only json reads, malformed input that
  must exit 2 with a located message, the equally spaced ladders of u(12)
  and su(11), whose closures are 79 and 55, Hermitian roundoff that
  validation lets pass) through every command, and the tolerance profile,
  the ``--tau-edge`` flag and unreadable or unwritable paths.

Help and argparse usage errors are left out: their wording changes between
Python versions.

A case's output matches its record when the exit code, stderr and
``--out`` sha256 are equal and so is its stdout, byte for byte, with one
exception on a line of its own in a JSON report (:func:`mismatch`):
``epsilon_max``, ``operator_norm`` and the general direction's
``residual`` may move by up to :data:`ULPS` units in the last place: a
LAPACK SVD moves by as much when the BLAS thread count changes (17 ulps
were seen on one ``check_large`` generator).

Regenerate every expected file (a change that alters an expected output
lists each changed case, with the reason, in CHANGES.md)::

    PYTHONPATH=src python tests/corpus/regenerate.py

A case whose output matches its record keeps the record as it is, so that
on an unchanged tree no byte of ``expected/`` changes, at any BLAS thread
count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import struct
import sys
import tempfile
from pathlib import Path

from uqc.cli import main as uqc_main

CORPUS = Path(__file__).resolve().parent
DOCUMENTS = CORPUS / "documents"
EXPECTED = CORPUS / "expected"
SEED = 1
OUT = "out.json"
PROFILE = "UQC_TOLERANCE_PROFILE"

sys.path.insert(0, str(CORPUS.parents[1] / "bench"))
from workloads import WORKLOADS, make_doc  # noqa: E402

GROUPS = (*WORKLOADS, "construct", "odd")

#: how far, in units in the last place, a LAPACK-derived float may move
ULPS = 64

_ULP_LINE = re.compile(r'^(\s*"(?:epsilon_max|operator_norm|residual)": )(\S+?)(,?)$')

_STYLES = ("antisym", "sym")
_SELECTIONS = ("smallest", "paper-example")
_FORMATS = ((), ("--text",))


def documents(group: str) -> dict:
    """The input documents of ``group``, file name to bytes."""
    if group in WORKLOADS:
        workload = WORKLOADS[group]
        return {
            f"{group}-{i:02d}.json": make_doc(workload, SEED, i).text.encode()
            for i in range(len(workload.block))
        }
    if group == "odd":
        return {path.name: path.read_bytes() for path in sorted(DOCUMENTS.glob("*.json"))}
    return {}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cases(group: str, names) -> list:
    """The cases of ``group`` on its documents ``names``: (argv, env) pairs,
    ``env`` the value of UQC_TOLERANCE_PROFILE or None for unset."""
    reads = [["check"], ["check", "--text"], ["epsilon"], ["epsilon", "--text"]]
    if group in ("oracle", "odd"):
        reads += [
            ["check", "--oracle"], ["check", "--oracle", "--text"], ["oracle"], ["oracle", "--text"]
        ]
    if group in ("repair", "odd"):
        reads += [
            ["repair", "--style", style, "--selection", selection, "--out", OUT, *fmt]
            for style in _STYLES for selection in _SELECTIONS for fmt in _FORMATS
        ]
    if group == "construct":
        argvs = [
            ["construct", "--dim", str(d), "--algebra", algebra, "--style", style, "--out", OUT, *fmt]
            for d in (1, 2, 7, 64) for algebra in ("u", "su") for style in _STYLES for fmt in _FORMATS
        ]
        argvs += [["construct", "--dim", d, "--out", OUT] for d in ("0", "-3", "1025")]
        return [(argv, None) for argv in argvs]
    out = [(argv[:1] + [name] + argv[1:], None) for name in names for argv in reads]
    if group == "odd":
        out += [
            (["check", "u3.json", "--tau-edge", "1e-9"], None),
            (["check", "u3.json", "--tau-edge", "2"], None),
            (["oracle", "u3.json", "--tau-edge", "nan"], None),
            (["check", "u3.json"], "loose"),
            (["check", "u3.json", "--text"], "strict"),
            *((argv, "bogus") for argv in (
                ["check", "u3.json"], ["epsilon", "u3.json"], ["oracle", "u3.json"],
                ["repair", "u3.json", "--out", OUT],
            )),
            # Hermitian roundoff that validation lets pass couples nothing,
            # at a cutoff below the entry too
            *((argv + flag, env)
              for flag, env in ((["--tau-edge", "1e-13"], None), ([], "strict"))
              for argv in (
                  ["check", "hermitian-roundoff-edge.json"],
                  ["check", "hermitian-roundoff-edge.json", "--text"],
                  ["check", "hermitian-roundoff-edge.json", "--oracle"],
                  ["oracle", "hermitian-roundoff-edge.json"],
                  ["repair", "hermitian-roundoff-edge.json", "--out", OUT],
              )),
            (["check", "missing.json"], None),
            (["epsilon", "missing.json", "--text"], None),
            (["repair", "u3.json", "--out", "missing/out.json"], None),
            (["construct", "--dim", "3", "--out", "missing/out.json"], None),
        ]
    return out


def command_of(argv: list) -> str:
    """The command line of a case less its document and ``--out`` path: the
    name under which its cases are tested together."""
    words = [w for w in argv if not w.endswith(".json")]
    return " ".join(w for w in words if w != "--out")


def run(argv: list, env) -> dict:
    """The record of one case, run in the current directory."""
    saved = os.environ.pop(PROFILE, None)
    if env is not None:
        os.environ[PROFILE] = env
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = uqc_main(argv)
    finally:
        os.environ.pop(PROFILE, None)
        if saved is not None:
            os.environ[PROFILE] = saved
    out_sha256 = None
    if os.path.exists(OUT):
        with open(OUT, "rb") as fh:
            out_sha256 = sha256(fh.read())
        os.remove(OUT)
    return {
        "argv": argv,
        "env": env,
        "exit": code,
        "stdout": stdout.getvalue().split("\n"),
        "stderr": stderr.getvalue().split("\n"),
        "out_sha256": out_sha256,
    }


def _ordered(x: float) -> int:
    """``x``'s place among the float64 values, in units in the last place."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _line_differs(want: str, got: str) -> bool:
    w, g = _ULP_LINE.match(want), _ULP_LINE.match(got)
    if not (w and g and (w[1], w[3]) == (g[1], g[3])) or "null" in (w[2], g[2]):
        return True
    b = float(g[2])
    return not (math.isfinite(b) and abs(_ordered(float(w[2])) - _ordered(b)) <= ULPS)


def mismatch(want: dict, got: dict) -> str | None:
    """How ``got`` differs from the record ``want``, or None."""
    for field in ("exit", "stderr", "out_sha256"):
        if got[field] != want[field]:
            return f"{field}: {got[field]!r}, recorded {want[field]!r}"
    if len(got["stdout"]) != len(want["stdout"]):
        return f"stdout has {len(got['stdout'])} lines, recorded {len(want['stdout'])}"
    for n, (w, g) in enumerate(zip(want["stdout"], got["stdout"]), 1):
        if w != g and _line_differs(w, g):
            return f"stdout line {n}: {g!r}, recorded {w!r}"
    return None


@contextlib.contextmanager
def written(docs: dict, where: Path):
    """``where``, holding ``docs``, as the current directory."""
    where.mkdir(parents=True, exist_ok=True)
    for name, data in docs.items():
        (where / name).write_bytes(data)
    cwd = os.getcwd()
    os.chdir(where)
    try:
        yield
    finally:
        os.chdir(cwd)


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for group in GROUPS:
            path = EXPECTED / f"{group}.json"
            recorded = {}
            if path.exists():
                recorded = {
                    (tuple(case["argv"]), case["env"]): case
                    for case in json.loads(path.read_text())["cases"]
                }
            docs = documents(group)
            records, kept = [], 0
            with written(docs, Path(tmp) / group):
                for argv, env in cases(group, docs):
                    new = run(argv, env)
                    old = recorded.get((tuple(argv), env))
                    if old is not None and mismatch(old, new) is None:
                        new, kept = old, kept + 1
                    records.append(new)
            expected = {
                "seed": SEED,
                "documents": {name: sha256(data) for name, data in docs.items()},
                "cases": records,
            }
            path.write_text(json.dumps(expected, indent=1) + "\n")
            print(f"{path}: {len(records)} cases, {kept} kept as recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
