"""Independent reference for the benchmark's correctness checks.

Nothing here imports pcmaudit. Matrices are decoded and drawn with plain
numpy, eigenpairs come from ``numpy.linalg.eig``, and ratio drops that lie
close to the violation margin are settled in 40-digit arithmetic with mpmath.
The constants below restate the documented contract of the program under
test (scale values, random indices, margin, tie rule); they are not read from
its code.

Run as a script to regenerate the committed inputs and expected counts:

    python3 benchmarks/reference.py

It rewrites ``benchmarks/matrices/*.txt`` (the ``audit_files`` set),
``benchmarks/reference/audit_files.json`` and
``benchmarks/reference/sweep_fig5.json``. Re-running it produces identical
files. The Monte Carlo workloads draw a fresh stream per seed, so their
expected counts are computed by :func:`mc_reference` inside each run.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MATRIX_DIR = HERE / "matrices"
REFERENCE_DIR = HERE / "reference"

# The 17-value discrete judgment scale, ascending: 1/9, ..., 1/2, 1, 2, ..., 9.
SCALE = np.array([1.0 / k for k in range(9, 1, -1)] + [float(k) for k in range(1, 10)])
# Published random indices of the discrete scale, as used for CR binning.
RI_DISCRETE = {4: 0.884, 5: 1.109, 6: 1.249, 7: 1.341, 8: 1.404, 9: 1.451}
# A ratio w_i/w_k must fall by more than this (relative) to count as a violation.
VIOLATION_MARGIN = 1e-9
# A CR within this of a bin edge (edge >= 1 bin width) is binned low and counted as a tie.
BIN_TIE_TOL = 1e-12
# CI below -CI_CLAMP is a failed solve; between -CI_CLAMP and 0 it is clamped to 0.
CI_CLAMP = 1e-9
# Ordinals per Philox substream of the random matrix generator.
SUBSTREAM_CHUNK = 16384

# Two double-precision solvers agree on CR far closer than this; a CR whose
# bin (or tie status) changes within +-CR_EPS may be binned either way.
CR_EPS = 1e-11
# Ratio drops within NEAR_MARGIN of the margin are re-solved with mpmath.
NEAR_MARGIN = 1e-7
# An mpmath drop within SETTLE_TOL of the margin is allowed either way.
SETTLE_TOL = 1e-11
MP_DIGITS = 40

SWEEP_TOTAL = 17**6
SWEEP_BETA = 0.01
SWEEP_FACTORS = (1.001, 1.01, 1.1)
SWEEP_CAP = 3.5
# Lexicographic strides of the sweep_fig5 workload; none is a multiple of 17.
SWEEP_STRIDES = (296, 297, 298, 299, 300, 301, 302, 303)

AUDIT_FACTOR = 1.01
COUNTEREXAMPLE_UPPER = (8.0, 1.0, 5.0, 3.0, 7.0, 9.0)
COUNTEREXAMPLE_FILE = "n4_counterexample.txt"


# ---------------------------------------------------------------- matrices

def assemble(n: int, upper: np.ndarray) -> np.ndarray:
    """Reciprocal (B, n, n) matrices from row-major upper triangles (B, m)."""
    upper = np.atleast_2d(np.asarray(upper, dtype=float))
    mats = np.ones((upper.shape[0], n, n))
    col = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            mats[:, i, j] = upper[:, col]
            mats[:, j, i] = 1.0 / upper[:, col]
            col += 1
    return mats


def sweep_upper(ordinals: np.ndarray) -> np.ndarray:
    """Upper triangles of sweep ordinals: base-17 digits, most significant first."""
    ordinals = np.asarray(ordinals, dtype=np.int64)
    digits = np.empty((ordinals.size, 6), dtype=np.int64)
    rest = ordinals.copy()
    for pos in range(5, -1, -1):
        digits[:, pos] = rest % 17
        rest //= 17
    return SCALE[digits]


def sweep_ordinal(upper) -> int:
    """Ordinal of a discrete 4x4 upper triangle; raises if an entry is off-scale."""
    ordinal = 0
    for value in upper:
        hits = np.flatnonzero(np.abs(SCALE - value) <= 1e-12 * SCALE)
        if hits.size != 1:
            raise ValueError(f"{value!r} is not a discrete scale value")
        ordinal = ordinal * 17 + int(hits[0])
    return ordinal


def mc_upper(seed: int, n: int) -> np.ndarray:
    """Substream 0 of the discrete stream ``seed``: (SUBSTREAM_CHUNK, m) entries.

    Follows the documented draw order: Philox keyed by (seed, chunk index),
    one ``integers(0, 17, size=(SUBSTREAM_CHUNK, m))`` call indexing the
    ascending scale.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    return SCALE[rng.integers(0, 17, size=(SUBSTREAM_CHUNK, n * (n - 1) // 2))]


def parse_matrix_text(text: str) -> tuple[int, np.ndarray]:
    """(n, upper triangle) of a matrix file; fractions such as 1/7 are exact."""
    rows = [ln.split() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]
    n = int(rows[0][0])
    full = np.array([[float(Fraction(tok)) for tok in row] for row in rows[1:]])
    if full.shape != (n, n):
        raise ValueError("malformed matrix file")
    upper = [full[i, j] for i in range(n - 1) for j in range(i + 1, n)]
    return n, np.array(upper)


# ------------------------------------------------------------------ solves

def perron(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_max, weights summing to 1) of a (B, n, n) stack via numpy.linalg.eig."""
    vals, vecs = np.linalg.eig(mats)
    top = np.argmax(vals.real, axis=1)
    rows = np.arange(mats.shape[0])
    lam = vals.real[rows, top]
    w = vecs[rows, :, top].real
    w = w / w.sum(axis=1, keepdims=True)
    return lam, w


def lambda_max(mats: np.ndarray) -> np.ndarray:
    """Largest real eigenvalue of each matrix via numpy.linalg.eigvals."""
    return np.max(np.linalg.eigvals(mats).real, axis=1)


def cr_from_lambda(lam: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(CR, ok) with the documented clamp of small negative CI to zero."""
    ci = (lam - n) / (n - 1)
    ok = ci >= -CI_CLAMP
    return np.maximum(ci, 0.0) / RI_DISCRETE[n], ok


def perturbed(mats: np.ndarray, i: int, j: int, factor: float) -> np.ndarray:
    pert = mats.copy()
    pert[:, i, j] *= factor
    pert[:, j, i] /= factor
    return pert


def drops(w0: np.ndarray, w1: np.ndarray, i: int) -> np.ndarray:
    """Relative drop 1 - (w1_i/w1_k)/(w0_i/w0_k) per k; -inf at k = i."""
    d = 1.0 - (w1[:, i, None] / w1) / (w0[:, i, None] / w0)
    d[:, i] = -np.inf
    return d


def mp_drop(mat: np.ndarray, i: int, j: int, k: int, factor: float) -> float:
    """The (i, j, k) ratio drop of one matrix from 40-digit eigenvectors."""
    import mpmath

    def weights(a):
        with mpmath.workdps(MP_DIGITS):
            vals, vecs = mpmath.eig(mpmath.matrix(a.tolist()))
            top = max(range(len(vals)), key=lambda t: mpmath.re(vals[t]))
            col = [mpmath.re(vecs[r, top]) for r in range(a.shape[0])]
            total = mpmath.fsum(col)
            return [c / total for c in col]

    w0 = weights(mat)
    w1 = weights(perturbed(mat[None], i, j, factor)[0])
    with mpmath.workdps(MP_DIGITS):
        return float(1 - (w1[i] / w1[k]) / (w0[i] / w0[k]))


def settle(mat: np.ndarray, i: int, j: int, k: int, factor: float) -> str:
    """'yes', 'no' or 'either' for a near-margin triple, by mpmath."""
    d = mp_drop(mat, i, j, k, factor)
    if d > VIOLATION_MARGIN + SETTLE_TOL:
        return "yes"
    if d < VIOLATION_MARGIN - SETTLE_TOL:
        return "no"
    return "either"


def audit(mats: np.ndarray, w0: np.ndarray, factor: float) -> np.ndarray:
    """Violation status per matrix: 1 violated, 0 monotonic, 2 either way.

    Scans upper entries in row-major order and stops on a matrix once a drop
    clears the margin by more than NEAR_MARGIN. Drops nearer the margin are
    settled with mpmath on matrices that show no clear violation.
    """
    b, n, _ = mats.shape
    status = np.zeros(b, dtype=np.int8)
    near: dict[int, list[tuple[int, int, int]]] = {}
    for i in range(n - 1):
        for j in range(i + 1, n):
            act = np.flatnonzero(status == 0)
            if act.size == 0:
                return status
            _, w1 = perron(perturbed(mats[act], i, j, factor))
            d = drops(w0[act], w1, i)
            status[act[np.any(d > VIOLATION_MARGIN + NEAR_MARGIN, axis=1)]] = 1
            for row, k in np.argwhere(np.abs(d - VIOLATION_MARGIN) <= NEAR_MARGIN):
                near.setdefault(int(act[row]), []).append((i, j, int(k)))
    for b_idx, triples in near.items():
        if status[b_idx] == 0:
            verdicts = {settle(mats[b_idx], i, j, k, factor) for i, j, k in triples}
            status[b_idx] = 1 if "yes" in verdicts else 2 if "either" in verdicts else 0
    return status


def triple_drop(mat: np.ndarray, i: int, j: int, k: int, factor: float) -> float:
    """Drop of one 1-based (i, j, k) triple of one matrix, by numpy.linalg.eig."""
    _, w0 = perron(mat[None])
    _, w1 = perron(perturbed(mat[None], i - 1, j - 1, factor))
    return float(drops(w0, w1, i - 1)[0, k - 1])


# -------------------------------------------------------------- histograms

def bin_and_tie(cr: float, beta: float) -> tuple[int, int]:
    """Bin index and tie flag under the documented tie-to-lower-bin rule."""
    scaled = cr / beta
    m = math.floor(scaled)
    nearest = round(scaled)
    if nearest >= 1 and abs(cr - nearest * beta) <= BIN_TIE_TOL:
        return nearest - 1, 1
    return m, 0


def bin_options(cr: float, beta: float) -> set[tuple[int, int]]:
    """Every (bin, tie) a CR within CR_EPS of ``cr`` can receive (CR >= 0)."""
    points = [max(cr - CR_EPS, 0.0), cr, cr + CR_EPS]
    edge = round(cr / beta) * beta
    if abs(cr - edge) <= CR_EPS + BIN_TIE_TOL:
        points.append(edge)
    return {bin_and_tie(p, beta) for p in points}


def histogram(cr: np.ndarray, upper: np.ndarray, status_of, beta: float,
              cap: float | None, audit_overflow: bool) -> dict:
    """Expected histogram of one population.

    ``status_of(indices)`` returns the audit status of the given matrices.
    Matrices whose bin or flag is uncertain go on the ``either`` list with
    every (bin, violated, tie) outcome they may take; the nominal counts
    leave them out. Bins at or above the cap fold into the overflow bucket
    (key -1), which records violations only when ``audit_overflow``.
    """
    cap_bins = None if cap is None else int(round(cap / beta))
    options = [bin_options(float(c), beta) for c in cr]
    audited = [t for t, opts in enumerate(options)
               if audit_overflow or any(cap_bins is None or m < cap_bins for m, _ in opts)]
    status = np.zeros(cr.size, dtype=np.int8)
    if audited:
        status[audited] = status_of(np.array(audited))
    bins: dict[int, list[int]] = {}
    ties = 0
    either = []
    for t, opts in enumerate(options):
        outcomes = set()
        for m, tie in opts:
            key = m if cap_bins is None or m < cap_bins else -1
            flags = (0,) if key == -1 and not audit_overflow else \
                (0, 1) if status[t] == 2 else (int(status[t]),)
            outcomes.update((key, f, tie) for f in flags)
        if len(outcomes) == 1:
            key, flag, tie = outcomes.pop()
            slot = bins.setdefault(key, [0, 0])
            slot[0] += 1
            slot[1] += flag
            ties += tie
        else:
            either.append({"upper": [float(v) for v in upper[t]], "cr": float(cr[t]),
                           "outcomes": sorted(outcomes)})
    violating = [t for t in range(cr.size) if status[t] == 1]
    min_cr = min((float(cr[t]) for t in violating), default=None)
    return {
        "samples": int(cr.size),
        "bins": {str(k): v for k, v in sorted(bins.items())},
        "boundary_ties": ties,
        "either": either,
        "min_violating_cr": min_cr,
    }


def matches(hist: dict, expected: dict) -> str | None:
    """None when a run's histogram equals the expected one, else the reason.

    ``hist`` holds the run's ``bins`` ({m: [total, violating]}, overflow under
    key -1) and ``boundary_ties``. Entries on the ``either`` list may take any
    of their outcomes.
    """
    delta: dict[tuple, int] = {}

    def add(key, amount):
        if amount:
            delta[key] = delta.get(key, 0) + amount

    for key, (total, violating) in hist["bins"].items():
        add(("t", int(key)), total)
        add(("v", int(key)), violating)
    add(("ties",), hist["boundary_ties"])
    for key, (total, violating) in expected["bins"].items():
        add(("t", int(key)), -total)
        add(("v", int(key)), -violating)
    add(("ties",), -expected["boundary_ties"])
    delta = {k: v for k, v in delta.items() if v}
    items = [entry["outcomes"] for entry in expected["either"]]
    if len(items) > 16:
        return f"{len(items)} matrices could go either way; too many to resolve"

    def solve(pos: int, left: dict) -> bool:
        if pos == len(items):
            return not any(left.values())
        for key, flag, tie in items[pos]:
            nxt = dict(left)
            for k, amount in ((("t", key), 1), (("v", key), flag), (("ties",), tie)):
                nxt[k] = nxt.get(k, 0) - amount
            if solve(pos + 1, nxt):
                return True
        return False

    if solve(0, delta):
        return None
    diff = {f"{k[0]}{k[1] if len(k) > 1 else ''}": v for k, v in delta.items()}
    return f"histogram differs from the reference by {diff}"


# -------------------------------------------------------------- workloads

def sweep_reference(stride: int) -> dict:
    """Expected fig5 histograms of the lexicographic subsample at ``stride``."""
    ordinals = np.arange(0, SWEEP_TOTAL, stride, dtype=np.int64)
    upper = sweep_upper(ordinals)
    mats = assemble(4, upper)
    lam, w0 = perron(mats)
    cr, ok = cr_from_lambda(lam, 4)
    if not np.all(ok):
        raise RuntimeError("negative CI beyond the clamp in the sweep population")
    out = {}
    for factor in SWEEP_FACTORS:
        out[repr(factor)] = histogram(
            cr, upper, lambda idx, f=factor: audit(mats[idx], w0[idx], f),
            SWEEP_BETA, SWEEP_CAP, audit_overflow=True)
    return out


def mc_reference(seed: int, n: int, beta: float, factor: float, cap: float | None) -> dict:
    """Expected histogram of one ``run_simulation`` call over substream 0 of ``seed``."""
    upper = mc_upper(seed, n)
    mats = assemble(n, upper)
    cr, ok = cr_from_lambda(lambda_max(mats), n)
    if not np.all(ok):
        raise RuntimeError("negative CI beyond the clamp in the Monte Carlo population")

    def status_of(idx):
        _, w0 = perron(mats[idx])
        return audit(mats[idx], w0, factor)

    return histogram(cr, upper, status_of, beta, cap, audit_overflow=False)


def audit_file_reference(n: int, upper: np.ndarray, factor: float) -> dict:
    """CR and the full (i, j, k) violation set of one matrix, 1-based."""
    mat = assemble(n, upper)
    lam, w0 = perron(mat)
    cr, ok = cr_from_lambda(lam, n)
    if not ok[0]:
        raise RuntimeError("negative CI beyond the clamp")
    violations, either = [], []
    for i in range(n - 1):
        for j in range(i + 1, n):
            _, w1 = perron(perturbed(mat, i, j, factor))
            d = drops(w0, w1, i)[0]
            for k in range(n):
                if k == i:
                    continue
                verdict = "yes" if d[k] > VIOLATION_MARGIN + NEAR_MARGIN else \
                    "no" if d[k] < VIOLATION_MARGIN - NEAR_MARGIN else \
                    settle(mat[0], i, j, k, factor)
                if verdict == "yes":
                    violations.append([i + 1, j + 1, k + 1])
                elif verdict == "either":
                    either.append([i + 1, j + 1, k + 1])
    return {"n": n, "lambda_max": float(lam[0]), "cr": float(cr[0]),
            "violations": violations, "either": either}


# ------------------------------------------------------------ the audit set

def _format_entry(value: float) -> str:
    frac = Fraction(value).limit_denominator(9)
    if float(frac) == value:
        return str(frac)
    return format(value, ".17g")


def audit_set_uppers() -> dict[str, tuple[int, np.ndarray]]:
    """The ``audit_files`` matrices, by file name: four per n = 4..9 plus the
    paper's 4x4 counterexample. Drawn from a fixed Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=[20190228, 0]))
    out = {COUNTEREXAMPLE_FILE: (4, np.array(COUNTEREXAMPLE_UPPER))}
    for n in range(4, 10):
        m = n * (n - 1) // 2
        iu, ju = np.triu_indices(n, 1)
        w = rng.uniform(1.0, 9.0, size=n)
        # nearly consistent: w_i/w_j with 1% multiplicative noise, 4 digits
        noisy = w[iu] / w[ju] * np.exp(rng.normal(0.0, 0.01, size=m))
        out[f"n{n}_near.txt"] = (n, np.array([float(f"{v:.4g}") for v in noisy]))
        # consistent weights rounded onto the discrete scale
        ratios = w[iu] / w[ju]
        nearest = np.argmin(np.abs(np.log(SCALE)[None, :] - np.log(ratios)[:, None]), axis=1)
        out[f"n{n}_rounded.txt"] = (n, SCALE[nearest])
        # uniformly random discrete judgments
        out[f"n{n}_random.txt"] = (n, SCALE[rng.integers(0, 17, size=m)])
        # continuous magnitudes on [1, 9], each inverted with probability 1/2
        mag = np.array([float(f"{v:.3g}") for v in rng.uniform(1.0, 9.0, size=m)])
        invert = rng.integers(0, 2, size=m).astype(bool)
        out[f"n{n}_continuous.txt"] = (n, np.where(invert, 1.0 / mag, mag))
    return out


def matrix_text(n: int, upper: np.ndarray) -> str:
    full = assemble(n, upper)[0]
    lines = [str(n)] + [" ".join(_format_entry(v) for v in row) for row in full]
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def regenerate() -> None:
    MATRIX_DIR.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    files = {}
    for name, (n, upper) in sorted(audit_set_uppers().items()):
        text = matrix_text(n, upper)
        _write(MATRIX_DIR / name, text)
        # the reference reads back what the program will read
        n_read, upper_read = parse_matrix_text(text)
        files[name] = {factor: audit_file_reference(n_read, upper_read, factor)
                       for factor in SWEEP_FACTORS}
    audit_doc = {
        "factor": AUDIT_FACTOR,
        "files": {name: refs[AUDIT_FACTOR] for name, refs in files.items()},
        "counterexample": {repr(f): files[COUNTEREXAMPLE_FILE][f]["violations"]
                           for f in SWEEP_FACTORS},
    }
    ce = audit_doc["counterexample"]
    for f in SWEEP_FACTORS:
        hit = [1, 3, 4] in ce[repr(f)]
        if hit != (f < 1.1):
            raise RuntimeError(f"counterexample property fails at factor {f}: {ce[repr(f)]}")
    _write(REFERENCE_DIR / "audit_files.json", json.dumps(audit_doc, indent=1, sort_keys=True) + "\n")
    print(f"audit_files: {len(files)} matrices", file=sys.stderr)

    sweep_doc = {"beta": SWEEP_BETA, "cap": SWEEP_CAP, "factors": list(SWEEP_FACTORS),
                 "strides": {}}
    for stride in SWEEP_STRIDES:
        sweep_doc["strides"][str(stride)] = sweep_reference(stride)
        either = {f: len(h["either"]) for f, h in sweep_doc["strides"][str(stride)].items()}
        print(f"sweep stride {stride}: either-way matrices {either}", file=sys.stderr)
    _write(REFERENCE_DIR / "sweep_fig5.json", json.dumps(sweep_doc, sort_keys=True) + "\n")


def main() -> int:
    regenerate()
    return 0


if __name__ == "__main__":
    sys.exit(main())
