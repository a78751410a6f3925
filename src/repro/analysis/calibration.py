"""Recovering the paper's disk constants from its reported results.

The available scan of the paper garbles most digits, so the constants
(S, R, T) used throughout this reproduction were *solved back* from the
numbers that survive: every no-prefetch / intra-run total is **linear**
in (S, R, T),

    total(k, D, N) = k * blocks * (m (k / 3 N D) S  +  R / N  +  T) / 1000,

so a handful of anchors gives an (over-determined) linear system.  This
module encodes those anchors and solves the least-squares system with
plain Gaussian elimination, demonstrating that the calibration in
``repro.core.parameters`` is not guesswork: the recovered constants are
S = 0.03 ms/cylinder, R = 8.33 ms, T = 2.05 ms to within the paper's
printed precision, with sub-percent residuals on every anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.analysis.paper import printed
from repro.core.parameters import PAPER_BLOCKS_PER_RUN, PAPER_GEOMETRY

#: Run length in cylinders for 1000-block runs (1000 / 64).
M = PAPER_BLOCKS_PER_RUN / PAPER_GEOMETRY.blocks_per_cylinder

#: Blocks per run in the paper's evaluation.
BLOCKS = PAPER_BLOCKS_PER_RUN


@dataclass(frozen=True)
class Anchor:
    """One reported total: configuration plus the paper's value."""

    k: int
    d: int
    n: int
    total_s: float
    source: str

    def coefficients(self) -> tuple[float, float, float]:
        """(a_S, a_R, a_T) with ``total_s = a_S S + a_R R + a_T T``."""
        scale = self.k * BLOCKS / 1000.0  # ms -> s over all blocks
        return (
            scale * M * self.k / (3.0 * self.n * self.d),
            scale / self.n,
            scale,
        )


#: The anchors recoverable from the paper's prose: (k, D, N) and the
#: key of the printed total in :data:`repro.analysis.paper.PRINTED`
#: (see DESIGN.md section 2 for the digit reconstruction).
PAPER_ANCHORS: tuple[Anchor, ...] = tuple(
    Anchor(k, d, n, printed(key), key)
    for k, d, n, key in (
        (25, 1, 1, "no prefetch k=25 D=1"),
        (50, 1, 1, "no prefetch k=50 D=1"),
        (25, 5, 1, "no prefetch k=25 D=5"),
        (50, 10, 1, "no prefetch k=50 D=10"),
        (25, 1, 10, "intra k=25 N=10 D=1"),
        (50, 1, 10, "intra k=50 N=10 D=1"),
        (25, 1, 30, "intra k=25 N=30 D=1"),
        (50, 1, 30, "intra k=50 N=30 D=1"),
    )
)


@dataclass(frozen=True)
class Calibration:
    """Solved constants plus fit quality."""

    seek_ms_per_cylinder: float
    avg_rotational_latency_ms: float
    transfer_ms_per_block: float
    max_relative_residual: float
    residuals: tuple[float, ...]


def solve_constants(anchors: Sequence[Anchor] = PAPER_ANCHORS) -> Calibration:
    """Least-squares solve of the anchor system for (S, R, T)."""
    if len(anchors) < 3:
        raise ValueError("need at least three anchors for three unknowns")
    rows = [anchor.coefficients() for anchor in anchors]
    solution = _least_squares(rows, [anchor.total_s for anchor in anchors])
    if solution is None:
        raise ValueError("singular system: anchors are degenerate")
    residuals = []
    for anchor, row in zip(anchors, rows):
        predicted = sum(c * x for c, x in zip(row, solution))
        residuals.append((predicted - anchor.total_s) / anchor.total_s)
    return Calibration(
        seek_ms_per_cylinder=solution[0],
        avg_rotational_latency_ms=solution[1],
        transfer_ms_per_block=solution[2],
        max_relative_residual=max(abs(r) for r in residuals),
        residuals=tuple(residuals),
    )


def _solve_linear(matrix: Sequence[Sequence[float]],
                  rhs: Sequence[float]) -> list[float]:
    """Gaussian elimination with partial pivoting for a small system."""
    size = len(rhs)
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for column in range(size):
        pivot = max(range(column, size), key=lambda r: abs(a[r][column]))
        if abs(a[pivot][column]) < 1e-12:
            raise ValueError("singular system: anchors are degenerate")
        a[column], a[pivot] = a[pivot], a[column]
        for row in range(column + 1, size):
            factor = a[row][column] / a[column][column]
            for j in range(column, size + 1):
                a[row][j] -= factor * a[column][j]
    solution = [0.0] * size
    for row in range(size - 1, -1, -1):
        accumulated = sum(a[row][j] * solution[j] for j in range(row + 1, size))
        solution[row] = (a[row][size] - accumulated) / a[row][row]
    return solution


# ---------------------------------------------------------------------------
# Fitting (S, R, T) to *measured* reads — the repro.realio direction.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReadObservation:
    """One measured read request from the real-I/O backend.

    The same linearity the anchor system exploits applies per request:
    under the paper's service model a read that moves the head
    ``seek_cylinders`` cylinders and transfers ``blocks`` blocks costs

        service_ms = S * seek_cylinders + R + T * blocks,

    so a set of observations with varying seek distances and transfer
    sizes determines effective (S, R, T) for the storage underneath.
    """

    seek_cylinders: float
    blocks: int
    service_ms: float

    def coefficients(self) -> tuple[float, float, float]:
        """(a_S, a_R, a_T) with ``service_ms = a_S S + a_R R + a_T T``."""
        return (float(self.seek_cylinders), 1.0, float(self.blocks))


#: Effective transfer time never fits below this (keeps the simulator's
#: division-by-T quantities finite on arbitrarily fast storage).
MIN_TRANSFER_MS = 1e-6


def fit_service_model(
    observations: Iterable[ReadObservation],
) -> Calibration:
    """Least-squares fit of effective (S, R, T) to measured reads.

    Degenerate designs are expected on real storage — on tmpfs or a
    warm page cache every "seek" costs the same (often indistinguishable
    from zero), collapsing the seek column — so the fit degrades
    gracefully instead of failing:

    1. full 3-parameter fit (S, R, T);
    2. seek column degenerate → S = 0, fit (R, T);
    3. per-request overhead inseparable from transfer (all reads the
       same size) → R = 0, T = mean(service / blocks).

    Fitted constants are clamped to physical ranges (S, R >= 0,
    T >= :data:`MIN_TRANSFER_MS`); residuals are relative to each
    observed service time, computed for the clamped model actually
    returned.
    """
    samples = list(observations)
    if len(samples) < 3:
        raise ValueError("need at least three read observations to fit")
    if any(s.service_ms <= 0 for s in samples):
        raise ValueError("read observations must have positive service time")
    rows = [s.coefficients() for s in samples]
    rhs = [s.service_ms for s in samples]

    solution = _least_squares(rows, rhs)
    if solution is None:
        # Seek column degenerate: pin S = 0 and fit (R, T).
        reduced = _least_squares([row[1:] for row in rows], rhs)
        if reduced is not None:
            solution = [0.0, reduced[0], reduced[1]]
        else:
            # Single transfer size: attribute everything to transfer.
            mean_per_block = sum(
                s.service_ms / s.blocks for s in samples
            ) / len(samples)
            solution = [0.0, 0.0, mean_per_block]

    seek = max(0.0, solution[0])
    rotation = max(0.0, solution[1])
    transfer = max(MIN_TRANSFER_MS, solution[2])
    residuals = []
    for sample, row in zip(samples, rows):
        predicted = row[0] * seek + row[1] * rotation + row[2] * transfer
        residuals.append((predicted - sample.service_ms) / sample.service_ms)
    return Calibration(
        seek_ms_per_cylinder=seek,
        avg_rotational_latency_ms=rotation,
        transfer_ms_per_block=transfer,
        max_relative_residual=max(abs(r) for r in residuals),
        residuals=tuple(residuals),
    )


def _least_squares(
    rows: Sequence[Sequence[float]], rhs: Sequence[float]
) -> Optional[list[float]]:
    """Solve ``min |A x - b|`` via normal equations; None if singular."""
    size = len(rows[0])
    normal = [[0.0] * size for _ in range(size)]
    vector = [0.0] * size
    for row, b in zip(rows, rhs):
        for i in range(size):
            vector[i] += row[i] * b
            for j in range(size):
                normal[i][j] += row[i] * row[j]
    try:
        return _solve_linear(normal, vector)
    except ValueError:
        return None
