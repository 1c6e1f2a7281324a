"""Multiplicative pairwise comparison matrices.

A pairwise comparison matrix collects ratio judgments: entry ``a[i, j]`` answers
"how many times is alternative i preferred to alternative j". A valid matrix is
square, strictly positive, has a unit diagonal, and is reciprocal
(``a[j, i] == 1 / a[i, j]``).

Alternative indices at this interface are 1-based, matching the usual notation
for judgment matrices; the underlying numpy array is 0-based as always.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bulk import _perturbed
from .errors import MatrixParseError, ValidationError

# Tolerance for accepting reciprocity/diagonal deviations in externally supplied
# matrices (text files lose digits in round-tripping). Internally the lower
# triangle is always recomputed exactly from the upper one.
PARSE_RECIPROCITY_RTOL = 1e-9

# Tolerance enforced on every stored matrix; construction guarantees far better.
STORED_RECIPROCITY_RTOL = 1e-12

# Default relative tolerance for the triple-product consistency test.
CONSISTENCY_RTOL = 1e-9

# Matrices assembled per block by matrices_from_upper; bounds its temporaries.
ASSEMBLY_BLOCK = 2048


@dataclass(frozen=True)
class PairwiseComparisonMatrix:
    """Immutable positive reciprocal judgment matrix.

    Instances are safe to share across workers: the entry array is frozen at
    construction. Use :func:`build_matrix`, :func:`from_array`, or
    :func:`parse_matrix` instead of calling the constructor with raw data.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = _checked(self.entries, 0.0, STORED_RECIPROCITY_RTOL).copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        """Number of alternatives."""
        return self.entries.shape[0]

    def upper_triangle(self) -> np.ndarray:
        """Entries above the diagonal in row-major order, length n(n-1)/2."""
        iu = np.triu_indices(self.n, 1)
        return self.entries[iu].copy()

    def content_digest(self) -> str:
        """Stable hex digest of the matrix content.

        Hashes n and the upper triangle rendered at 17 significant digits, so
        equal matrices always share a digest regardless of how they were built.
        """
        import hashlib  # here, not at the top: it loads OpenSSL, which no batch path needs

        text = f"{self.n}:" + ",".join(format(v, ".17g") for v in self.upper_triangle())
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    def to_text(self) -> str:
        """Render in the matrix file format (size line, then rows)."""
        lines = [str(self.n)]
        for row in self.entries:
            lines.append(" ".join(format(v, ".17g") for v in row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PerturbationSpec:
    """A single upper-triangle perturbation: multiply ``a[i, j]`` by ``factor``.

    Indices are 1-based with ``i < j``; the mirrored entry ``a[j, i]`` is
    divided by the same factor so reciprocity is preserved.
    """

    i: int
    j: int
    factor: float = 1.01

    def __post_init__(self) -> None:
        if self.i < 1 or self.i >= self.j:
            raise IndexError(f"need 1 <= i < j, got i={self.i}, j={self.j}")
        if not (self.factor > 0.0) or not np.isfinite(self.factor):
            raise ValidationError(f"factor must be positive and finite, got {self.factor!r}")
        if self.factor == 1.0:
            raise ValidationError("factor 1 is not a perturbation")


def build_matrix(n: int, upper_entries) -> PairwiseComparisonMatrix:
    """Build an n x n matrix from its upper triangle (row-major).

    The diagonal is set to 1 and the lower triangle to exact reciprocals, so
    reciprocity holds by construction.
    """
    if n < 2:
        raise ValidationError(f"need at least 2 alternatives, got n={n}")
    upper = np.asarray(upper_entries, dtype=float).ravel()
    m = n * (n - 1) // 2
    if upper.size != m:
        raise ValidationError(
            f"upper triangle of an {n}x{n} matrix has {m} entries, got {upper.size}"
        )
    iu = np.triu_indices(n, 1)
    bad = np.argwhere(~(upper > 0) | ~np.isfinite(upper))
    if bad.size:
        k = int(bad[0][0])
        i, j = iu[0][k] + 1, iu[1][k] + 1
        raise ValidationError(f"entry ({i},{j}) must be positive, got {upper[k]!r}")
    return PairwiseComparisonMatrix(matrices_from_upper(n, upper[None])[0])


def matrices_from_upper(n: int, upper: np.ndarray) -> np.ndarray:
    """Assemble full reciprocal matrices (B, n, n) from upper triangles (B, m).

    Each block of ``ASSEMBLY_BLOCK`` rows is one gather from the rows
    [1, upper, 1 / upper]: it writes every entry once, where filling ones
    and setting both triangles writes the off-diagonal entries twice.
    """
    upper = np.asarray(upper, dtype=float)
    b, m = upper.shape
    mats = np.empty((b, n, n))
    flat = mats.reshape(b, n * n)
    src = np.empty((min(b, ASSEMBLY_BLOCK), 1 + 2 * m))
    src[:, 0] = 1.0
    for lo in range(0, b, ASSEMBLY_BLOCK):
        block = upper[lo:lo + ASSEMBLY_BLOCK]
        part = src[:len(block)]
        part[:, 1:m + 1] = block
        np.divide(1.0, block, out=part[:, m + 1:])
        # mode="clip" lets take write straight into `out`; every index is valid
        np.take(part, _gather_index(n), axis=1, out=flat[lo:lo + len(block)], mode="clip")
    return mats


@functools.lru_cache(maxsize=8)
def _gather_index(n: int) -> np.ndarray:
    """Where each entry of a row-major n x n matrix lies in the row
    [1, upper, 1 / upper] of :func:`matrices_from_upper`."""
    iu, ju = np.triu_indices(n, 1)
    index = np.zeros((n, n), dtype=np.intp)
    index[iu, ju] = 1 + np.arange(iu.size)
    index[ju, iu] = 1 + iu.size + np.arange(iu.size)
    index = index.ravel()
    index.setflags(write=False)
    return index


def from_array(arr, reciprocity_rtol: float = PARSE_RECIPROCITY_RTOL) -> PairwiseComparisonMatrix:
    """Validate an externally supplied full matrix and normalize it.

    Accepts reciprocity and diagonal deviations up to ``reciprocity_rtol``
    (relative), then rebuilds the stored matrix exactly from the upper
    triangle. Rejections name the offending 1-based position.
    """
    a = _checked(arr, reciprocity_rtol, reciprocity_rtol)
    upper = a[np.triu_indices(len(a), 1)]
    return PairwiseComparisonMatrix(matrices_from_upper(len(a), upper[None])[0])


def _checked(arr, diagonal_rtol: float, reciprocity_rtol: float) -> np.ndarray:
    """``arr`` as a float array, once it is square with n >= 2 finite positive
    entries, each a_ii within ``diagonal_rtol`` of 1 and each a_ij * a_ji within
    ``reciprocity_rtol`` of 1. Rejections name the offending 1-based position."""
    a = np.asarray(arr, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n < 2:
        raise ValidationError(f"need at least 2 alternatives, got n={n}")
    if not np.all(np.isfinite(a)):
        i, j = np.argwhere(~np.isfinite(a))[0] + 1
        raise ValidationError(f"entry ({i},{j}) is not finite")
    bad = np.argwhere(a <= 0)
    if bad.size:
        i, j = bad[0] + 1
        raise ValidationError(f"entry ({i},{j}) must be positive, got {a[i - 1, j - 1]!r}")
    diag_dev = np.abs(np.diag(a) - 1.0)
    if np.max(diag_dev) > diagonal_rtol:
        i = int(np.argmax(diag_dev)) + 1
        raise ValidationError(f"diagonal entry ({i},{i}) must be 1, got {a[i - 1, i - 1]!r}")
    dev = np.abs(a * a.T - 1.0)
    if np.max(dev) > reciprocity_rtol:
        ij = np.argwhere(dev > reciprocity_rtol)
        # report the lower-triangle position that disagrees with its mirror
        i, j = max(ij[0]) + 1, min(ij[0]) + 1
        raise ValidationError(
            f"entry ({i},{j}) is not the reciprocal of ({j},{i}): "
            f"{a[i - 1, j - 1]!r} vs 1/{a[j - 1, i - 1]!r}"
        )
    return a


def is_consistent(a: PairwiseComparisonMatrix, tol: float = CONSISTENCY_RTOL) -> bool:
    """True when every triple satisfies ``a[i,k] == a[i,j] * a[j,k]`` within ``tol``.

    The comparison is relative: ``|a[i,k] - a[i,j]*a[j,k]| <= tol * a[i,k]``.
    """
    if tol < 0:
        raise ValidationError(f"tolerance must be nonnegative, got {tol}")
    m = a.entries
    prod = m[:, :, None] * m[None, :, :]  # (i, j, k) -> a[i,j] * a[j,k]
    target = m[:, None, :]
    return bool(np.all(np.abs(prod - target) <= tol * target))


def consistent_from_weights(weights) -> PairwiseComparisonMatrix:
    """Matrix with ``a[i, j] = w[i] / w[j]``, consistent by construction."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.size < 2 or np.any(w <= 0):
        raise ValidationError("need at least two strictly positive weights")
    iu = np.triu_indices(w.size, 1)
    return build_matrix(w.size, w[iu[0]] / w[iu[1]])


def perturb(a: PairwiseComparisonMatrix, spec: PerturbationSpec) -> PairwiseComparisonMatrix:
    """Copy of ``a`` with ``a[i, j]`` multiplied and ``a[j, i]`` divided by the factor.

    The input matrix is never mutated.
    """
    if spec.j > a.n:
        raise IndexError(f"column index {spec.j} out of range for n={a.n}")
    m = _perturbed(a.entries[None], np.zeros(1, dtype=int), spec.i - 1, spec.j - 1, spec.factor)
    return PairwiseComparisonMatrix(m[0])


def _parse_token(token: str, line: int, column: int) -> float:
    """Parse a decimal or p/q fraction token; fractions are exact ratios."""
    try:
        if "/" in token:
            num, _, den = token.partition("/")
            value = float(Fraction(int(num), int(den)))
        else:
            value = float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise MatrixParseError(f"cannot parse entry {token!r}: {exc}", line, column) from None
    return value


def parse_matrix(text: str) -> PairwiseComparisonMatrix:
    """Parse the matrix text format: first line n, then n whitespace-separated rows.

    Entries are decimals or fractions like ``1/7``. Lines starting with ``#``
    are comments. Reciprocity is checked at the parse tolerance and then
    recomputed exactly from the upper triangle.
    """
    lines = text.splitlines()
    nonempty = [(idx + 1, ln) for idx, ln in enumerate(lines)
                if ln.strip() and not ln.lstrip().startswith("#")]
    if not nonempty:
        raise MatrixParseError("empty matrix file")
    first_line, header = nonempty[0]
    try:
        n = int(header.strip())
    except ValueError:
        raise MatrixParseError(f"first line must be the matrix size, got {header.strip()!r}",
                               first_line) from None
    if n < 2:
        raise MatrixParseError(f"matrix size must be at least 2, got {n}", first_line)
    rows = nonempty[1:]
    if len(rows) != n:
        raise MatrixParseError(f"expected {n} rows after the size line, found {len(rows)}")
    a = np.empty((n, n))
    for r, (lineno, ln) in enumerate(rows):
        tokens = ln.split()
        if len(tokens) != n:
            raise MatrixParseError(f"row {r + 1} has {len(tokens)} entries, expected {n}", lineno)
        for c, tok in enumerate(tokens):
            a[r, c] = _parse_token(tok, lineno, c + 1)
    return from_array(a)


def read_matrix_file(path) -> PairwiseComparisonMatrix:
    """Read and parse a matrix file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def write_matrix_file(path, a: PairwiseComparisonMatrix) -> None:
    """Write a matrix in the text format (LF line endings)."""
    _write_atomic(path, a.to_text())


def _write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with LF newlines, all or nothing.

    The text goes to ``path + ".tmp"``, which then replaces ``path``; on any
    failure the temporary file is removed and ``path`` is left as it was.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
