"""Small dense linear-programming solver.

Bounded-variable primal simplex on a full tableau, in one phase: it starts
with every variable at its lower bound and every slack basic, a feasible
basis because ``LinearProgram`` admits only problems whose all-lower-bounds
point satisfies every row. The entering column is Dantzig's: the largest
reduced cost in the improving direction, lowest index on ties. Dantzig
pricing can cycle on a degenerate vertex, so after ``_DEGENERATE_LIMIT``
degenerate pivots in a row the entering column is Bland's smallest improving
index instead, until a step moves the objective. The leaving row is always
Bland's (smallest basic index among the blocking rows); with both Bland
choices the simplex cannot cycle, so every run terminates. It terminates at
an optimum: every structural variable is boxed and the slacks carry no
objective, so the objective is bounded. All choices are value- and
index-based, so repeated runs on the same input pivot identically.

Intended for the small problems produced in this package (a few thousand
variables at most). The tableau is stored dense, but a pivot rewrites only
the rows whose entry in the pivot column is nonzero, and the ratio test reads
only the rows the entering column moves; rows it skips would be left as they
are anyway, so the pivots and the vertex are those of a full-tableau update.
No factorization updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["LpStatus", "LinearProgram", "LpSolution", "solve_lp"]

PIVOT_TOL = 1e-9

_MAX_PIVOTS_BASE = 20_000
_RC_REFRESH_PERIOD = 256  # recompute reduced costs from scratch now and then
_DEGENERATE_LIMIT = 50  # degenerate pivots in a row before Bland's rule enters


class LpStatus(Enum):
    """How a solve ended; OPTIMAL is the only way (see :func:`solve_lp`)."""

    OPTIMAL = "optimal"


@dataclass
class LinearProgram:
    """maximize objective @ x subject to constraint_matrix @ x <= constraint_rhs
    and finite box bounds on every variable, where x = lower bounds must
    satisfy every row (the simplex starts there)."""

    objective: np.ndarray
    constraint_matrix: np.ndarray
    constraint_rhs: np.ndarray
    variable_bounds: np.ndarray  # (n, 2) columns: lower, upper

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        A = np.asarray(self.constraint_matrix, dtype=float)
        b = np.asarray(self.constraint_rhs, dtype=float)
        bounds = np.asarray(self.variable_bounds, dtype=float)
        if c.ndim != 1:
            raise ValueError("objective must be 1-D")
        n = c.size
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError(f"constraint matrix must have {n} columns")
        if b.shape != (A.shape[0],):
            raise ValueError("constraint rhs length must match the row count")
        if bounds.shape != (n, 2):
            raise ValueError("variable_bounds must have shape (n, 2)")
        if not np.all(np.isfinite(c)) or not np.all(np.isfinite(A)) or not np.all(np.isfinite(b)):
            raise ValueError("objective, matrix, and rhs must be finite")
        if not np.all(np.isfinite(bounds)):
            raise ValueError("all variable bounds must be finite")
        if np.any(bounds[:, 0] > bounds[:, 1]):
            raise ValueError("lower bounds must not exceed upper bounds")
        violated = np.flatnonzero(b - A @ bounds[:, 0] < -1e-11)
        if violated.size:
            raise ValueError(f"the all-lower-bounds point violates rows {violated.tolist()}")
        self.objective, self.constraint_matrix, self.constraint_rhs = c, A, b
        self.variable_bounds = bounds


@dataclass
class LpSolution:
    """Solver output; ``pivots`` counts basis changes, ``bound_flips`` the
    steps where the entering variable crossed its box without changing the
    basis."""

    status: LpStatus
    x: np.ndarray
    objective_value: float
    pivots: int = 0
    bound_flips: int = 0


class _Tableau:
    """Simplex working state over structural + slack columns."""

    def __init__(self, lp: LinearProgram):
        self.n = lp.objective.size
        self.m = lp.constraint_matrix.shape[0]
        self.lower = np.concatenate([lp.variable_bounds[:, 0], np.zeros(self.m)])
        self.upper = np.concatenate([lp.variable_bounds[:, 1], np.full(self.m, np.inf)])
        self.T = np.hstack([lp.constraint_matrix.copy(), np.eye(self.m)])
        self.basis = np.arange(self.n, self.n + self.m)
        self.at_upper = np.zeros(self.n + self.m, dtype=bool)
        self.x_basic = lp.constraint_rhs - lp.constraint_matrix @ self.lower[: self.n]
        self.pivots = 0
        self.bound_flips = 0

    def nonbasic_value(self, j: int) -> float:
        return self.upper[j] if self.at_upper[j] else self.lower[j]

    def reduced_costs(self, c_all: np.ndarray) -> np.ndarray:
        return c_all - c_all[self.basis] @ self.T

    def pivot(self, row: int, col: int):
        """Make ``col`` basic in ``row``, rewriting only the rows it reaches."""
        T = self.T
        T[row] /= T[row, col]
        touched = np.flatnonzero(T[:, col])
        touched = touched[touched != row]
        T[touched] -= np.outer(T[touched, col], T[row])
        self.pivots += 1

    def run(self, c_all: np.ndarray) -> None:
        """Iterate to optimality for the given objective."""
        rc = self.reduced_costs(c_all)
        eligible = np.ones(self.T.shape[1], dtype=bool)  # nonbasic
        eligible[self.basis] = False
        max_pivots = _MAX_PIVOTS_BASE + 50 * (self.T.shape[1] + self.m)
        degenerate = 0  # degenerate pivots since the last step that made progress

        for step in range(max_pivots):
            if step and step % _RC_REFRESH_PERIOD == 0:
                rc = self.reduced_costs(c_all)

            gain = np.where(self.at_upper, -rc, rc)
            improving = eligible & (gain > PIVOT_TOL)
            if degenerate < _DEGENERATE_LIMIT:
                enter = int(np.where(improving, gain, 0.0).argmax())
            else:
                enter = int(improving.argmax())
            if not improving[enter]:
                return
            sigma = -1.0 if self.at_upper[enter] else 1.0

            move = sigma * self.T[:, enter]
            span = self.upper[enter] - self.lower[enter]

            # How far each moving basic variable lets us go before hitting a
            # bound; rows with |move| <= PIVOT_TOL never block.
            rows = np.flatnonzero(np.abs(move) > PIVOT_TOL)
            min_room = np.inf
            if rows.size:
                row_move = move[rows]
                basic = self.basis[rows]
                x_rows = self.x_basic[rows]
                room = np.where(
                    row_move > 0,
                    (x_rows - self.lower[basic]) / row_move,
                    (self.upper[basic] - x_rows) / -row_move,
                )
                np.clip(room, 0.0, None, out=room)
                min_room = room.min()
            delta = min(span, min_room)
            if not np.isfinite(delta):
                raise RuntimeError("simplex found an unbounded step on a boxed LP")

            if span <= min_room:
                self.at_upper[enter] = not self.at_upper[enter]
                self.x_basic -= move * span
                self.bound_flips += 1
                if span > 0:
                    degenerate = 0
                continue
            degenerate = degenerate + 1 if delta == 0 else 0

            blocking = rows[room <= min_room + 1e-12]
            leave_row = int(blocking[np.argmin(self.basis[blocking])])
            leaving = int(self.basis[leave_row])
            leaves_at_upper = bool(move[leave_row] < 0)

            self.x_basic -= move * delta
            entering_value = self.nonbasic_value(enter) + sigma * delta
            self.pivot(leave_row, enter)
            rc -= rc[enter] * self.T[leave_row]
            self.basis[leave_row] = enter
            self.x_basic[leave_row] = entering_value
            self.at_upper[leaving] = leaves_at_upper
            eligible[leaving] = True
            eligible[enter] = False

        raise RuntimeError("simplex exceeded its pivot budget")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a small dense LP; deterministic for a fixed input.

    Returns an optimal basic feasible solution: ``LinearProgram`` admits only
    bounded problems with a feasible start, so the status is always OPTIMAL.
    """
    tab = _Tableau(lp)
    tab.run(np.concatenate([lp.objective, np.zeros(tab.m)]))
    # Nonbasic variables sit at their lower or upper bound; basic ones take x_basic.
    x = np.where(tab.at_upper, tab.upper, tab.lower)
    x[tab.basis] = tab.x_basic
    x = x[: tab.n]
    np.clip(x, lp.variable_bounds[:, 0], lp.variable_bounds[:, 1], out=x)
    return LpSolution(LpStatus.OPTIMAL, x, float(lp.objective @ x), tab.pivots, tab.bound_flips)
