"""The three workloads: inputs drawn from the seed, the op, and its output checks.

Every workload is a closed loop with one client, this process, and one op in
flight.  ``inputs(i)`` draws op ``i`` from ``(seed, i)`` alone, so a traced
replay of an op sees the same matrices.  ``run`` makes only the program's
calls and records each result or exception; ``check`` judges them afterwards,
outside the timed region, and returns the set of failure kinds.  A failure
never aborts the run.

The timed ops stay inside the domain where socaut is documented to be
correct, so every failure is a regression.  The inputs that reach socaut's
known defects are run apart, by ``defect_probes``, and reported as measured.

Failure kinds:

``rejected``             a member rejected by ``check_automorphism`` / ``socaut check``
``raised``               a member refused by a factorization (``NotAutomorphismError``, exit 1)
``verify_rejected``      a member failing the ``verify`` gates
``residual``             a composition off S by more than ``compose_bound``
``nonmember_accepted``   a non-member accepted by ``check_automorphism``
``nonmember_factored``   a non-member factored without an error
``spin``                 a spin-algebra result that disagrees with its definition
``roundtrip``            ``parse_matrix(dumps_matrix(S))`` not bit-exact, or a document not reproduced
``exit_code``            a CLI exit code or report outside the 0/1/2 contract
``error``                any other exception
"""

from __future__ import annotations

import compileall
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from . import ROOT, SRC
from .layers import SUBCOMMANDS

EPS = float(np.finfo(float).eps)
#: Composition error allowed, in units of n * eps * a^2 (a^2 = 1 + alpha^2).
#: The largest ratio measured over 3000 members is about 3.
COMPOSE_SLACK = 64.0
#: ``property_report`` evaluates S verbatim, without dividing by nu, when
#: |mu - 1| <= 0.1; timed members keep |mu - 1| above this.
NEAR_ONE_MU = 0.15
#: ``householder_to_direction`` has no sign choice and loses accuracy when the
#: boost direction nears e1; timed members keep 1 - cos(angle) above this
#: (an angle of 1e-2 rad).
NEAR_E1 = 5e-5


def compose_bound(n: int, a2: float) -> float:
    return COMPOSE_SLACK * n * EPS * a2


def rel_diff(A: np.ndarray, B: np.ndarray) -> float:
    return float(np.linalg.norm(A - B) / np.linalg.norm(B))


def attempt(out: dict, key: str, fn, *args, **kwargs):
    """Call ``fn`` and store its result, or the exception it raised, under ``key``."""
    try:
        out[key] = fn(*args, **kwargs)
    except Exception as exc:  # judged by check(); a failing op never ends the run
        out[key] = exc
    return out[key]


def failed(value) -> bool:
    return isinstance(value, Exception)


def haar(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar orthogonal m x m matrix, drawn independently of socaut's kernels."""
    Q, R = np.linalg.qr(rng.standard_normal((m, m)))
    return Q * np.where(np.diagonal(R) < 0.0, -1.0, 1.0)


def compact_product(nu: float, c: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``nu * [[a, c^T], [c, sqrt(I + c c^T)]] @ diag(1, U)`` as a dense matmul."""
    m = c.size
    a = np.sqrt(1.0 + c @ c)
    M = np.empty((m + 1, m + 1))
    M[0, 0] = a
    M[0, 1:] = c
    M[1:, 0] = c
    M[1:, 1:] = np.eye(m) + np.outer(c, c) / (1.0 + a)
    E = np.eye(m + 1)
    E[1:, 1:] = U
    return nu * (M @ E)


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return float(np.median(times))


_SMALL = np.random.default_rng(0).standard_normal((6, 6))
_LARGE = np.random.default_rng(0).standard_normal((500, 500))


def interpreter_kernel() -> float:
    """Fixed single-threaded mix of bytecode and small-array NumPy calls."""
    total = 0.0
    for _ in range(40):
        total += float(np.linalg.norm(_SMALL @ _SMALL.T))
        total += sum({j: j * j for j in range(20)}.values())
    return total


#: Seconds ``interpreter_kernel`` takes on the reference host: a 2-vCPU
#: x86-64 VM, Python 3.11, NumPy 2.4 with OpenBLAS 0.3.31, uncontended.
INTERPRETER_REFERENCE_S = 0.18e-3


def calibrate_all_cpus() -> float:
    """``interpreter_kernel`` on each CPU this process may use, averaged.

    A child process can run on any of them, and on a shared host they need
    not be equally fast.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(median_time(interpreter_kernel, 15))
    finally:
        os.sched_setaffinity(0, cpus)
    return float(np.mean(times))


def blas_kernel() -> float:
    """Fixed multi-threaded dense work: one QR and one matmul at n = 500."""
    Q, _ = np.linalg.qr(_LARGE)
    return float(np.linalg.norm(Q @ _LARGE))


class Workload:
    """One workload; subclasses define inputs, the op, and its checks."""

    name = ""
    #: The traced run replays ``run`` itself unless ``unit`` is overridden.
    in_process = True

    def __init__(self, seed: int, workdir: Path) -> None:
        import socaut.automorphism
        import socaut.fileio
        import socaut.spin

        self.seed = seed
        self.workdir = workdir
        self.au = socaut.automorphism
        self.fileio = socaut.fileio
        self.spin = socaut.spin
        self.tol = socaut.DEFAULT_TOL

    def rng(self, i: int, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream, i])

    def setup(self) -> None:
        """Warm caches and lazy set-up with ``warm_ops`` unchecked ops."""
        for i in range(self.warm_ops):
            self.run(self.inputs(i, stream=1))

    warm_ops = 1
    #: Seconds ``calibrate`` measures on the reference host.
    reference_s = INTERPRETER_REFERENCE_S

    def calibrate(self) -> float:
        """Time one burst of the workload's calibration kernel, in seconds."""
        raise NotImplementedError

    def inputs(self, i: int, stream: int = 0) -> dict:
        raise NotImplementedError

    def run(self, inp: dict) -> dict:
        raise NotImplementedError

    def check(self, inp: dict, out: dict) -> set[str]:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # -- shared checks --------------------------------------------------------

    def _failure(self, exc: Exception) -> str:
        return "raised" if isinstance(exc, self.au.NotAutomorphismError) else "error"

    def check_member_chain(self, out: dict, S: np.ndarray, bound: float, kinds: set[str]):
        """check accepts S; both factorizations succeed and compose back to S."""
        chk = out["check"]
        if failed(chk):
            kinds.add("error")
        elif not chk.is_automorphism:
            kinds.add("rejected")
        for fac, comp in (
            ("factor_canonical", "compose_canonical"),
            ("factor_compact", "compose_compact"),
        ):
            if failed(out[fac]):
                kinds.add(self._failure(out[fac]))
            elif failed(out[comp]):
                kinds.add("error")
            elif not rel_diff(out[comp], S) <= bound:
                kinds.add("residual")

    def run_member_chain(self, out: dict, S: np.ndarray) -> None:
        au = self.au
        attempt(out, "check", au.check_automorphism, S)
        if not failed(attempt(out, "factor_canonical", au.factor_canonical, S)):
            attempt(out, "compose_canonical", au.compose_canonical, out["factor_canonical"])
        if not failed(attempt(out, "factor_compact", au.factor_compact, S)):
            attempt(out, "compose_compact", au.compose_compact, out["factor_compact"])


def in_timed_domain(S: np.ndarray) -> bool:
    """False when member S reaches a known defect: mu near 1, or c near e1."""
    col = S[:, 0]
    mu = float(col[0] ** 2 - col[1:] @ col[1:])
    cos_e1 = float(col[1] / np.linalg.norm(col[1:]))
    return abs(mu - 1.0) > NEAR_ONE_MU and 1.0 - cos_e1 > NEAR_E1


def tiny_gaussian(trial: int) -> np.ndarray:
    """Trial ``trial`` of 3 x 3 Gaussians scaled by 10^U(-6, -3), G[0, 0] >= 0,
    drawn from ``default_rng(0)``: ROADMAP item 5's false-accept recipe."""
    rng = np.random.default_rng(0)
    for _ in range(trial + 1):
        G = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-6.0, -3.0)
    G[0, 0] = abs(G[0, 0])
    return G


class SmallBatch(Workload):
    """Matrices of n in {3, 4, 5, 8} through every library entry point.

    Each op draws S from ``sample_automorphism`` with alpha in [0, 10] and nu
    in [0.5, 2], redrawing the seed while S is outside ``in_timed_domain``.
    It also carries one non-member, alternately S with its (0, 0) entry moved
    by 1e-3 ||S||_F or a unit-scale Gaussian with G[0, 0] >= 0.
    ``defect_probes`` runs the inputs the timed ops leave out.
    """

    name = "small_batch"
    SIZES = (3, 4, 5, 8)
    ALPHA_MAX = 10.0
    NU_RANGE = (0.5, 2.0)
    REPORT_SAMPLES = 64
    PROBES = 64
    #: The first tiny Gaussian that check_automorphism accepts.
    FALSE_ACCEPT_TRIAL = 19580
    warm_ops = 16

    def calibrate(self) -> float:
        return median_time(interpreter_kernel, 15)

    def inputs(self, i: int, stream: int = 0) -> dict:
        rng = self.rng(i, stream)
        n = int(rng.choice(self.SIZES))
        while True:
            sample_seed = int(rng.integers(2**31))
            S = self.au.sample_automorphism(n, self.ALPHA_MAX, self.NU_RANGE, sample_seed)
            if in_timed_domain(S):
                break
        if i % 2 == 0:
            nonmember = "perturbed"
            B = S.copy()
            B[0, 0] += rng.choice((-1.0, 1.0)) * 1e-3 * np.linalg.norm(S)
        else:
            nonmember = "gaussian"
            B = rng.standard_normal((n, n))
            B[0, 0] = abs(B[0, 0])
        return {
            "n": n,
            "a2": 1.0 + self.ALPHA_MAX**2,
            "sample_seed": sample_seed,
            "x": rng.standard_normal(n),
            "y": rng.standard_normal(n),
            "report_seed": int(rng.integers(2**31)),
            "nonmember": nonmember,
            "B": B,
        }

    def run(self, inp: dict) -> dict:
        au, spin = self.au, self.spin
        out: dict = {}
        S = attempt(
            out, "S", au.sample_automorphism, inp["n"], self.ALPHA_MAX, self.NU_RANGE,
            inp["sample_seed"],
        )
        if failed(S):
            return out
        self.run_member_chain(out, S)
        x = attempt(out, "x", spin.SpinVector.from_array, inp["x"])
        y = attempt(out, "y", spin.SpinVector.from_array, inp["y"])
        if not failed(x):
            attempt(out, "apply", au.apply, S, x)
            attempt(out, "region", spin.cone_classify, x)
            if not failed(y):
                attempt(out, "jordan", spin.jordan_product, x, y)
        self.run_report(out, S, inp["report_seed"])
        attempt(out, "nm_check", au.check_automorphism, inp["B"])
        attempt(out, "nm_factor", au.factor_compact, inp["B"])
        return out

    def run_report(self, out: dict, S: np.ndarray, seed: int) -> None:
        attempt(out, "report", self.au.property_report, S, n_samples=self.REPORT_SAMPLES, seed=seed)

    def check(self, inp: dict, out: dict) -> set[str]:
        S = out["S"]
        if failed(S):
            return {"error"}
        kinds: set[str] = set()
        self.check_member_chain(out, S, compose_bound(inp["n"], inp["a2"]), kinds)
        self._check_verify(out, kinds)
        self._check_spin(inp, out, S, kinds)
        if failed(out["nm_check"]):
            kinds.add("error")
        elif out["nm_check"].is_automorphism:
            kinds.add("nonmember_accepted")
        if not failed(out["nm_factor"]):
            kinds.add("nonmember_factored")
        elif self._failure(out["nm_factor"]) == "error":
            kinds.add("error")
        return kinds

    def _check_verify(self, out: dict, kinds: set[str]) -> None:
        """The verdict ``socaut verify`` would give, from the same gates."""
        chk, rep, tol = out["check"], out["report"], self.tol
        if failed(rep):
            kinds.add("verify_rejected" if self._failure(rep) == "raised" else "error")
            return
        ok = (
            not failed(chk)
            and chk.is_automorphism
            and rep.max_identity_residual() <= tol
            and rep.cone_violation_max <= tol
            and rep.boundary_drift_max <= tol
        )
        if not ok:
            kinds.add("verify_rejected")

    def _check_spin(self, inp: dict, out: dict, S: np.ndarray, kinds: set[str]) -> None:
        xa, ya = inp["x"], inp["y"]
        results = [out.get(k) for k in ("x", "y", "apply", "region", "jordan")]
        if any(r is None or failed(r) for r in results):
            kinds.add("error")
            return
        _, _, applied, region, jordan = results
        tol = 1e-12
        want = S @ xa
        got = np.concatenate(([applied.x0], applied.xbar))
        ok = np.linalg.norm(got - want) <= tol * np.linalg.norm(S) * np.linalg.norm(xa)
        head = xa[0] * ya[0] + xa[1:] @ ya[1:]
        tail = xa[0] * ya[1:] + ya[0] * xa[1:]
        scale = tol * np.linalg.norm(xa) * np.linalg.norm(ya)
        ok = ok and abs(jordan.x0 - head) <= scale and np.linalg.norm(jordan.xbar - tail) <= scale
        slack = xa[0] - np.linalg.norm(xa[1:])
        margin = self.tol * max(1.0, float(np.linalg.norm(xa)))
        want_region = (
            "interior" if slack > margin else "boundary" if abs(slack) <= margin else "outside"
        )
        if not (ok and region.value == want_region):
            kinds.add("spin")

    def member_fails(self, S: np.ndarray, a2: float, seed: int) -> bool:
        """True when member S fails check, a factorization round trip or verify."""
        out: dict = {}
        self.run_member_chain(out, S)
        self.run_report(out, S, seed)
        kinds: set[str] = set()
        self.check_member_chain(out, S, compose_bound(S.shape[0], a2), kinds)
        self._check_verify(out, kinds)
        return bool(kinds)

    def defect_probes(self) -> dict[str, float]:
        """Measure ROADMAP item 5's defects, and the e1 one, on the inputs the
        timed ops leave out.  Neither timed nor counted as ops.

        - ``automorphism.defect.wide_refused``: share of wide-conditioned
          members (alpha log-uniform in [1, 1e6], nu log-uniform in
          [1e-3, 1e3], built with ``compose_compact``) that fail a check:
          the gates are absolute, the rounding floor grows as eps * a^2;
        - ``automorphism.defect.near_one_rejected``: share of members with
          nu in [0.96, 1.04] that verify rejects: property_report evaluates
          them without dividing by nu;
        - ``automorphism.defect.tiny_gaussian_accepted``: 1 when
          check_automorphism accepts ``tiny_gaussian(FALSE_ACCEPT_TRIAL)``;
        - ``kernels.defect.householder_e1``: canonical round-trip error of an
          n = 3 member whose c is 1e-6 rad from e1, over ``compose_bound``.
        """
        au = self.au
        wide = near_one = 0
        for i in range(self.PROBES):
            rng = self.rng(i, stream=2)
            n = int(rng.choice(self.SIZES))
            alpha = float(10.0 ** rng.uniform(0.0, 6.0))
            nu = float(10.0 ** rng.uniform(-3.0, 3.0))
            v = rng.standard_normal(n - 1)
            c = alpha * v / np.linalg.norm(v)
            try:
                S = au.compose_compact(au.CompactFactorization(nu, c, haar(rng, n - 1)))
            except Exception:  # a refused wide member is one of the defects counted
                wide += 1
            else:
                wide += self.member_fails(S, 1.0 + alpha**2, i)
            S = au.sample_automorphism(n, self.ALPHA_MAX, (0.96, 1.04), int(rng.integers(2**31)))
            near_one += self.member_fails(S, 1.0 + self.ALPHA_MAX**2, i)
        accepted = au.check_automorphism(tiny_gaussian(self.FALSE_ACCEPT_TRIAL)).is_automorphism
        theta = 1e-6
        S = compact_product(1.0, 2.0 * np.array([np.cos(theta), np.sin(theta)]), np.eye(2))
        error = rel_diff(au.compose_canonical(au.factor_canonical(S)), S)
        return {
            "automorphism.defect.wide_refused": wide / self.PROBES,
            "automorphism.defect.near_one_rejected": near_one / self.PROBES,
            "automorphism.defect.tiny_gaussian_accepted": float(accepted),
            "kernels.defect.householder_e1": error / compose_bound(3, 5.0),
        }


class DenseN1000(Workload):
    """One n = 1000 member (alpha in [0, 10], nu in [0.5, 2]) through
    sample -> check -> factor_canonical -> compose_canonical -> factor_compact
    -> compose_compact."""

    name = "dense_n1000"
    N = 1000
    ALPHA_MAX = 10.0
    NU_RANGE = (0.5, 2.0)
    reference_s = 17e-3  # blas_kernel on the reference host, two BLAS threads

    def calibrate(self) -> float:
        return median_time(blas_kernel, 3)

    def inputs(self, i: int, stream: int = 0) -> dict:
        return {"sample_seed": int(self.rng(i, stream).integers(2**31))}

    def run(self, inp: dict) -> dict:
        out: dict = {}
        S = attempt(
            out, "S", self.au.sample_automorphism, self.N, self.ALPHA_MAX, self.NU_RANGE,
            inp["sample_seed"],
        )
        if not failed(S):
            self.run_member_chain(out, S)
        return out

    def check(self, inp: dict, out: dict) -> set[str]:
        S = out["S"]
        if failed(S):
            return {"error"}
        kinds: set[str] = set()
        self.check_member_chain(out, S, compose_bound(self.N, 1.0 + self.ALPHA_MAX**2), kinds)
        return kinds


@dataclass
class Call:
    """One finished CLI subprocess."""

    code: int
    wall_s: float
    maxrss_kb: int
    stdout: str


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict, workdir: Path) -> Call:
    """Run ``argv`` to completion; return its exit code, wall time, peak RSS and stdout."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return Call(proc.returncode, wall, usage.ru_maxrss, out.read().decode())


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "socaut", *args]


def report_fields(text: str) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in text.splitlines() if " " in line)


class CliFiles(Workload):
    """One n = 300 document through five ``python -m socaut`` subprocesses:
    sample (writes), check and verify (read), factor and compose (read and write).
    """

    name = "cli_files"
    in_process = False
    N = 300
    ALPHA_MAX = 10.0  # the CLI's default --alpha-max; nu is 1

    def calibrate(self) -> float:
        return calibrate_all_cpus()

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        import socaut.cli

        self.cli = socaut.cli
        self.env = cli_env()
        self.child_rss_kb = 0
        self.call_walls: dict[str, list[float]] = {sub: [] for sub in SUBCOMMANDS}

    def setup(self) -> None:
        """Compile socaut's bytecode, then warm the interpreter and document generation."""
        compileall.compile_dir(str(SRC / "socaut"), quiet=1)
        warm = self.workdir / "warm"
        _, sample = self.chain(self.inputs(0, stream=1), warm)[0]
        call = run_child(cli_argv(sample), self.env, self.workdir)
        if call.code != 0:
            raise RuntimeError(f"socaut sample exited {call.code} during set-up")
        shutil.rmtree(warm)

    def inputs(self, i: int, stream: int = 0) -> dict:
        return {"sample_seed": int(self.rng(i, stream).integers(2**31 - 1)), "op": i}

    def chain(self, inp: dict, where: Path) -> list[tuple[str, list[str]]]:
        matrix = str(where / "automorphism_0000.json")
        factors = str(where / "factorization.json")
        composed = str(where / "composed.json")
        return [
            ("sample", ["sample", str(self.N), "1", "--seed", str(inp["sample_seed"]),
                        "--output", str(where)]),
            ("check", ["check", matrix]),
            ("factor", ["factor", matrix, "--output", factors]),
            ("compose", ["compose", factors, "--output", composed]),
            ("verify", ["verify", matrix]),
        ]

    def op_dir(self, inp: dict, kind: str) -> Path:
        return self.workdir / f"{kind}{inp['op']}"

    def run(self, inp: dict) -> dict:
        where = self.op_dir(inp, "op")
        out = {}
        for sub, args in self.chain(inp, where):
            out[sub] = run_child(cli_argv(args), self.env, self.workdir)
        for sub, call in out.items():
            self.call_walls[sub].append(call.wall_s)
            self.child_rss_kb = max(self.child_rss_kb, call.maxrss_kb)
        return out

    def call_medians_ms(self) -> dict[str, float]:
        """Median wall ms of each subcommand over the ops run so far."""
        return {
            sub: 1e3 * float(np.median(walls)) if walls else 0.0
            for sub, walls in self.call_walls.items()
        }

    def unit(self, inp: dict) -> dict[str, int]:
        """The same chain through ``socaut.cli.main`` in this process; exit codes."""
        where = self.op_dir(inp, "inproc")
        codes = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for sub, args in self.chain(inp, where):
                codes[sub] = self.cli.main(args)
        shutil.rmtree(where, ignore_errors=True)
        return codes

    def check(self, inp: dict, out: dict) -> set[str]:
        kinds: set[str] = set()
        refusal = {"check": "rejected", "factor": "raised", "verify": "verify_rejected"}
        for sub, call in out.items():
            if sub == "unit":
                if any(code != 0 for code in call.values()):
                    kinds.add("exit_code")
            elif call.code == 1 and sub in refusal:
                kinds.add(refusal[sub])
            elif call.code != 0:
                kinds.add("exit_code")
        if report_fields(out["check"].stdout).get("is_automorphism") != "true":
            kinds.add("exit_code" if out["check"].code == 0 else "rejected")
        if report_fields(out["verify"].stdout).get("all_within_tol") != "true":
            kinds.add("exit_code" if out["verify"].code == 0 else "verify_rejected")
        where = self.op_dir(inp, "op")
        try:
            kinds |= self._check_documents(where)
        except (OSError, ValueError, KeyError, TypeError):
            kinds.add("error")
        finally:
            shutil.rmtree(where, ignore_errors=True)
        return kinds

    def _check_documents(self, where: Path) -> set[str]:
        kinds = set()
        text = (where / "automorphism_0000.json").read_text()
        S = np.array(json.loads(text)["data"], dtype=float)
        dumped = self.fileio.dumps_matrix(S)
        if dumped != text or self.fileio.parse_matrix(dumped).tobytes() != S.tobytes():
            kinds.add("roundtrip")
        bound = compose_bound(self.N, 1.0 + self.ALPHA_MAX**2)
        factors = json.loads((where / "factorization.json").read_text())
        if not factors["reconstruction_residual"] <= bound:
            kinds.add("residual")
        composed = np.array(
            json.loads((where / "composed.json").read_text())["data"], dtype=float
        )
        if not rel_diff(composed, S) <= bound:
            kinds.add("residual")
        return kinds

    def peak_rss_kb(self) -> int:
        return self.child_rss_kb


WORKLOADS = {w.name: w for w in (SmallBatch, DenseN1000, CliFiles)}
