"""The three benchmark workloads: how one op calls the lsar CLI, and how its
outputs are checked.

An op is a fixed sequence of ``lsar`` commands.  ``argvs`` gives their
arguments for one op (without the program name); ``check`` reads the op's
outputs and returns a list of problems, empty when every check passed.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import inputs

LSAR_HEADER = "p,window,s,clamp_count,residual_norm,pacf,bandwidth"
LAG_HEADER = "p,mpre,bound_linear,bound_log,time_exact,time_approx"
SIZE_HEADER = "s,scheme,rel_param_err,resid_ratio,excluded"
RATIO_SIZES = (200, 300, 400, 500, 600, 700, 800, 900, 1000)

# Largest allowed |phi_hat - phi| over the selected fit's coefficients
# (coefficients past the generating order count against 0).  Fixed from a
# sweep of 3 input seeds x 40 sampler seeds (ingest_long) and 3 x 25
# (deep_order): mean/sd/max error 0.031/0.015/0.072 and 0.071/0.023/0.132.
# Each tolerance sits more than 7 sd above the mean; not tuned to one run.
PHI_TOLERANCE = {"ingest_long": 0.15, "deep_order": 0.25}
# With bandwidth multiplier 2 a true-zero lag estimate reaches the band
# with probability ~1e-4 (|pacf|/band has sd ~0.26 in the sweep above, whose
# largest value past the generating order was 0.90), so over 38-80 zero lags
# about 1 op in 100-200 selects a higher order by design of the rule.  Such
# an op passes while every lag past the generating order stays below this
# multiple of its band (a ~6 sd event); under-selection always fails.
OVERSELECT_RATIO = 1.5
BOUND_RTOL = 1e-6


def read_report(path: str):
    """(metadata, header, rows, body) of a CSV report; body excludes the
    ``#`` metadata lines, which may hold wall-clock values."""
    meta, body = {}, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                meta[key] = value
            else:
                body.append(line)
    header = body[0].rstrip("\n") if body else ""
    rows = [ln.rstrip("\n").split(",") for ln in body[1:]]
    return meta, header, rows, "".join(body)


def summary(stdout: str) -> dict[str, str]:
    """``lsar: key=value`` summary lines of one command."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("lsar: "):
            key, _, value = line[6:].partition("=")
            out[key] = value
    return out


class Workload:
    """Shared by the workloads: ``tiny`` shrinks the inputs for smoke runs.

    Each subclass provides ``n_obs`` (input observations), ``params``,
    ``prepare(workdir, seed)`` (input paths), ``argvs(inputs, outdir,
    sampler_seed)`` and ``check(inputs, outdir, stdouts, notes)``, which
    returns the problems found and the op's concatenated report bodies and
    appends tolerated oddities to ``notes``.
    """

    name = ""

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def _check_selection(self, report: str, stdout: str, phi: np.ndarray, pbar: int,
                         problems: list[str], notes: list[str]) -> str:
        meta, header, rows, body = read_report(report)
        if header != LSAR_HEADER:
            problems.append(f"lsar report header {header!r}")
            return body
        if [r[0] for r in rows] != [str(p) for p in range(1, pbar + 1)]:
            problems.append(f"lsar report has {len(rows)} rows, expected lags 1..{pbar}")
            return body
        est = np.array([float(r[5]) for r in rows])
        ratio = np.abs(est) / np.array([float(r[6]) for r in rows])
        hits = np.flatnonzero(ratio >= 1.0)
        selected = int(hits[-1]) + 1 if hits.size else 0
        said = summary(stdout)
        if meta.get("selected_order") != str(selected) or said.get("p*") != str(selected):
            problems.append(f"selected order {meta.get('selected_order')}/{said.get('p*')}, "
                            f"but the reported trace selects {selected}")
            return body
        order = phi.size
        if selected < order:
            problems.append(f"selected order {selected} < generating order {order}")
            return body
        if selected > order:
            worst = order + int(np.argmax(ratio[order:]))
            msg = (f"selected order {selected} > generating order {order}; largest "
                   f"|pacf|/band past it {ratio[worst]:.3f} at lag {worst + 1}")
            if ratio[worst] > OVERSELECT_RATIO:
                problems.append(msg)
                return body
            notes.append(msg)
        fitted = np.array([float(v) for v in said.get("phi", "").split(",")])
        truth = np.concatenate([phi, np.zeros(selected - order)])
        err = float(np.max(np.abs(fitted - truth))) if fitted.size == selected else np.inf
        if not err <= PHI_TOLERANCE[self.name]:
            problems.append(f"coefficient error {err:.4f} > {PHI_TOLERANCE[self.name]}")
        return body


class IngestLong(Workload):
    name = "ingest_long"
    pbar = 40
    sample_rows = 1000

    @property
    def n_obs(self) -> int:
        return 20_001 if self.tiny else inputs.INGEST_PRICES

    @property
    def params(self) -> dict:
        return {"prices": self.n_obs, "columns": "t,close,volume", "phi": list(inputs.INGEST_PHI),
                "sigma": inputs.INGEST_SIGMA, "pbar": self.pbar, "fraction": self.fraction,
                "bandwidth_multiplier": 2}

    @property
    def fraction(self) -> float:
        # s = ceil(fraction * n) = 1000 sampled rows per order at full size.
        return self.sample_rows / (self.n_obs - 1)

    def prepare(self, workdir, seed):
        return inputs.prepare(workdir, self.name, seed, self.n_obs)

    def argvs(self, inp, outdir, sampler_seed):
        series = os.path.join(outdir, "series.csv")
        return [
            ["ingest", "--input", inp["prices"], "--column", "close",
             "--transform", "log_diff_center", "--out", series],
            ["lsar", "--input", series, "--pbar", str(self.pbar),
             "--fraction", repr(self.fraction), "--bandwidth-multiplier", "2",
             "--seed", str(sampler_seed), "--out", os.path.join(outdir, "lsar.csv")],
        ]

    def check(self, inp, outdir, stdouts, notes):
        problems = []
        n = self.n_obs - 1
        with open(os.path.join(outdir, "series.csv"), "rb") as fh:
            lines = [ln for ln in fh.read().split(b"\n") if ln and not ln.startswith(b"#")]
        if lines[:1] != [b"y"] or len(lines) - 1 != n:
            problems.append(f"ingest wrote {len(lines) - 1} rows, expected {n}")
        said = summary(stdouts[0])
        if said.get("original_n") != str(self.n_obs) or said.get("transformed_n") != str(n):
            problems.append(f"ingest summary {said}")
        body = self._check_selection(os.path.join(outdir, "lsar.csv"), stdouts[1],
                                     np.array(inputs.INGEST_PHI), self.pbar, problems, notes)
        return problems, body


class DeepOrder(Workload):
    name = "deep_order"

    @property
    def pbar(self) -> int:
        # The theoretical s grows like p log p, so tiny runs stop earlier.
        return 30 if self.tiny else 100

    @property
    def n_obs(self) -> int:
        return 20_000 if self.tiny else inputs.DEEP_N

    @property
    def params(self) -> dict:
        return {"n": self.n_obs, "process": "AR(20) of the acceptance suite", "pbar": self.pbar,
                "beta": 1, "epsilon": 0.5, "delta0": 0.1, "bandwidth_multiplier": 2}

    def prepare(self, workdir, seed):
        return inputs.prepare(workdir, self.name, seed, self.n_obs)

    def argvs(self, inp, outdir, sampler_seed):
        return [["lsar", "--input", inp["series"], "--pbar", str(self.pbar), "--beta", "1",
                 "--bandwidth-multiplier", "2", "--seed", str(sampler_seed),
                 "--out", os.path.join(outdir, "lsar.csv")]]

    def check(self, inp, outdir, stdouts, notes):
        problems = []
        body = self._check_selection(os.path.join(outdir, "lsar.csv"), stdouts[0],
                                     inputs.AR20_PHI, self.pbar, problems, notes)
        return problems, body


class EvalStudies(Workload):
    name = "eval_studies"
    pbar = 20
    epsilon = 0.1
    reps = 20

    @property
    def n_obs(self) -> int:
        return 5_000 if self.tiny else inputs.EVAL_N

    @property
    def params(self) -> dict:
        return {"n": self.n_obs, "process": "AR(20) of the acceptance suite", "pbar": self.pbar,
                "bounds_epsilon": self.epsilon, "mpre_fraction": 0.01, "ratios_p": self.pbar,
                "ratios_reps": self.reps, "ratios_sizes": list(RATIO_SIZES)}

    def prepare(self, workdir, seed):
        return inputs.prepare(workdir, self.name, seed, self.n_obs,
                              bound_lags=self.pbar, bound_epsilon=self.epsilon)

    def argvs(self, inp, outdir, sampler_seed):
        seed = str(sampler_seed)
        return [
            ["eval", "bounds", "--input", inp["series"], "--pbar", str(self.pbar),
             "--epsilon", repr(self.epsilon), "--seed", seed,
             "--out", os.path.join(outdir, "bounds.csv")],
            ["eval", "mpre", "--input", inp["series"], "--pbar", str(self.pbar),
             "--fraction", "0.01", "--seed", seed, "--out", os.path.join(outdir, "mpre.csv")],
            ["eval", "ratios", "--input", inp["series"], "--p", str(self.pbar),
             "--reps", str(self.reps), "--seed", seed,
             "--out", os.path.join(outdir, "ratios.csv")],
        ]

    def check(self, inp, outdir, stdouts, notes):
        problems = []
        bodies = []
        lags = [str(p) for p in range(1, self.pbar + 1)]
        for study in ("bounds", "mpre", "ratios"):
            path = os.path.join(outdir, f"{study}.csv")
            if not os.path.exists(os.path.join(outdir, f"{study}.txt")):
                problems.append(f"{study}: no .txt twin")
            meta, header, rows, body = read_report(path)
            bodies.append(body)
            expected = SIZE_HEADER if study == "ratios" else LAG_HEADER
            if header != expected:
                problems.append(f"{study} header {header!r}")
                continue
            if study == "ratios":
                keys = [(r[0], r[1]) for r in rows]
                want = [(str(s), scheme) for s in RATIO_SIZES for scheme in ("leverage", "uniform")]
                if keys != want:
                    problems.append(f"ratios rows {keys}")
                elif not all(math.isfinite(float(r[2])) and math.isfinite(float(r[3]))
                             and int(r[4]) < self.reps for r in rows):
                    problems.append("ratios: non-finite error or every fit excluded")
                continue
            if [r[0] for r in rows] != lags:
                problems.append(f"{study} has {len(rows)} rows, expected lags 1..{self.pbar}")
                continue
            if study == "mpre":
                values = np.array([float(r[1]) for r in rows])
                if not (np.all(np.isfinite(values)) and np.all(values >= 0)):
                    problems.append(f"mpre values {values.tolist()}")
            else:
                got = np.array([float(r[2]) for r in rows])
                ref = np.array(inp["bound_linear"])
                if not np.allclose(got, ref, rtol=BOUND_RTOL, atol=0.0):
                    worst = int(np.argmax(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)))
                    problems.append(f"bound_linear at lag {worst + 1}: {float(got[worst])!r} "
                                    f"vs recomputed {float(ref[worst])!r}")
        return problems, "".join(bodies)


WORKLOADS = {w.name: w for w in (IngestLong, DeepOrder, EvalStudies)}
