"""CLI golden digest: stdout and exit code of every `eval` and `verify`
subcommand, in every output format, hashed into one pinned SHA-256.

The digest pins the CLI's observable behaviour byte for byte: a change to
how arguments are declared, parsed or echoed into `params` must leave it
unchanged. A usage error contributes only its exit code (and its empty
stdout): argparse's stderr wording differs across Python versions. A domain
error also contributes its stderr line, which the package writes. The
floats in the output assume the numpy build of the pinned SHA-256s in
`tests/test_blocks.py`.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from ellded.cli import main

EVAL = [
    ["eval", "bernoulli", "-k", "12"],
    ["eval", "apostol-sum", "-k", "3", "-q", "2", "-p", "7"],
    ["eval", "g-poly", "-w", "4"],
    ["eval", "eisenstein", "-n", "2", "--tau", "0.3+1.1i"],
    ["eval", "eisenstein", "-n", "3", "--tau", "0.3+1.1i", "--kind", "g"],
    ["eval", "eisenstein", "-n", "1", "--tau", "0.3+1.1i", "--kind", "deriv"],
    ["eval", "elliptic-bernoulli", "-m", "3", "--x", "0.2", "--y", "0.3",
     "--tau", "0.3+1.1i"],
    ["eval", "zeta-w", "--z", "0.21+0.11i", "--tau", "0.3+1.1i"],
    ["eval", "zeta-w", "--z", "0.21+0.11i", "--tau", "0.3+1.1i",
     "--order", "2"],
    ["eval", "elliptic-sum", "-n", "2", "-p", "7", "-q", "3",
     "--tau", "0.3+1.1i"],
    ["eval", "elliptic-sum", "-n", "2", "-p", "7", "-q", "3",
     "--tau", "0.3+1.1i", "--route", "bernoulli_product"],
    ["eval", "reciprocity-rhs", "-n", "1", "-p", "5", "-q", "3",
     "--tau", "0.3+1.1i"],
    ["eval", "generating", "--which", "d", "-p", "5", "-q", "3",
     "--x", "0.01", "--tau", "0.3+1.1i"],
    ["eval", "generating", "--which", "r", "-p", "5", "-q", "3",
     "--x", "0.01", "--tau", "0.3+1.1i"],
    ["eval", "machide", "-m", "1", "-n", "1",
     "--vec-a", "1,1", "--vec-b", "3,3", "--vec-c", "2,2",
     "--vec-x", "0.013,0", "--vec-y", "0.021,0", "--vec-z=-0.014,0",
     "--tau", "1i"],
    ["eval", "period-data", "-n", "2"],
    ["eval", "elliptic-sum", "-n", "1", "-p", "3", "-q", "2",
     "--tau", "0.3+1.1i", "--max-terms", "40"],
]

VERIFY = [
    ["verify", "apostol-reciprocity", "--w-max", "4", "--pq-max", "5"],
    ["verify", "thm11", "-n", "1", "-p", "5", "-q", "3", "--tau", "0.3+1.1i"],
    ["verify", "thm13", "-p", "5", "-q", "3", "--tau", "0.3+1.1i"],
    ["verify", "prop31", "-p", "5", "-q", "3", "--tau", "0.3+1.1i"],
    ["verify", "prop31", "-p", "3", "-q", "2", "--tau", "1i",
     "--s1", "0.004", "--s2", "0.008"],
    ["verify", "lemma32", "-p", "3", "-q", "2", "--tau", "0.3+1.1i"],
    ["verify", "eq73", "-n", "2", "--tau", "0.3+1.1i"],
    ["verify", "three-term", "-n", "2", "-p", "3", "-q", "2",
     "--tau", "0.3+1.1i"],
    ["verify", "eq64", "-w", "4", "--tau", "0.2+1.2i"],
    ["verify", "basis-rank", "-w", "10", "--num-tau", "4", "--seed", "7"],
    ["verify", "limit", "-n", "1", "-p", "5", "-q", "3"],
]

# (ELLDED_TOL or None, argv)
CASES = (
    [(None, argv + ["--format", fmt])
     for fmt in ("json", "csv", "pretty") for argv in EVAL + VERIFY]
    + [
        # tolerance resolution: flag, environment, both, and eval ignoring it
        (None, ["verify", "eq73", "-n", "1", "--tau", "0.3+1i",
                "--tol", "1e-30"]),
        ("1e-30", ["verify", "eq73", "-n", "1", "--tau", "0.3+1i"]),
        ("1e-30", ["verify", "eq73", "-n", "1", "--tau", "0.3+1i",
                   "--tol", "1e-6"]),
        ("1e-4", ["verify", "thm11", "-n", "1", "-p", "3", "-q", "2",
                  "--tau", "1i"]),
        ("1e-4", ["verify", "apostol-reciprocity", "--w-max", "2",
                  "--pq-max", "3"]),
        (None, ["verify", "basis-rank", "-w", "14", "--num-tau", "5",
                "--seed", "3", "--tol", "1e-3"]),
        ("1e-30", ["eval", "bernoulli", "-k", "4"]),
        # domain errors (exit 3 with an `error:` line)
        (None, ["verify", "thm11", "-n", "1", "-p", "4", "-q", "2",
                "--tau", "1i"]),
        (None, ["eval", "eisenstein", "-n", "1", "--tau=-1i"]),
        (None, ["verify", "eq73", "-n", "1", "--tau", "0.3+1.1i",
                "--max-terms", "3"]),
        # usage error (exit 2)
        (None, ["verify", "thm11", "-n", "1", "-p", "3"]),
    ]
)

GOLDEN_SHA256 = (
    "e4488163554e3e6a2fb6b50b5be3e612e0e9d7e86ec72c0e5ecbbd72a30b0cc6")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_digest(monkeypatch) -> str:
    h = hashlib.sha256()
    for env_tol, argv in CASES:
        if env_tol is None:
            monkeypatch.delenv("ELLDED_TOL", raising=False)
        else:
            monkeypatch.setenv("ELLDED_TOL", env_tol)
        code, out, err = _run(argv)
        h.update(repr((env_tol, argv, code, out)).encode())
        if code == 3:
            h.update(err.encode())
    return h.hexdigest()


def test_cli_golden_digest(monkeypatch):
    assert cli_digest(monkeypatch) == GOLDEN_SHA256
