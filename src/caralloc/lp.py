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
variables at most), where a step's cost is numpy's per-call overhead more
than its arithmetic, so a step makes few calls. Which bound each nonbasic
variable sits at is stored as a sign, +1 at the lower and -1 at the upper, so
the gain of entering a column is its reduced cost times its sign, an exact
negation. The ratio test is one pass over all rows: a row the entering column
moves by at most ``PIVOT_TOL`` gets infinite room, so it never blocks. The
entering column is read once for that pass, and the pivot copies it once to
rewrite only the rows whose entry in it is nonzero; the rows it skips would
be left as they are anyway, so the pivots and the vertex are those of a
full-tableau update. No factorization updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import _float_array

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
        c = _float_array(self.objective, "objective")
        A = _float_array(self.constraint_matrix, "constraint_matrix")
        b = _float_array(self.constraint_rhs, "constraint_rhs")
        bounds = _float_array(self.variable_bounds, "variable_bounds")
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
        self.T = np.hstack([lp.constraint_matrix, np.eye(self.m)])
        self.basis = np.arange(self.n, self.n + self.m)
        self.sign = np.ones(self.n + self.m)  # -1.0 where a nonbasic variable sits at its upper bound
        self.x_basic = lp.constraint_rhs - lp.constraint_matrix @ self.lower[: self.n]
        self.pivots = 0
        self.bound_flips = 0

    def reduced_costs(self, c_all: np.ndarray) -> np.ndarray:
        return c_all - c_all[self.basis] @ self.T

    def pivot(self, row: int, col: int):
        """Make ``col`` basic in ``row``, rewriting only the rows it reaches."""
        T = self.T
        column = T[:, col].copy()
        T[row] /= column[row]
        column[row] = 0.0
        touched = column.nonzero()[0]
        T[touched] -= column[touched, None] * T[row]
        self.pivots += 1

    def run(self, c_all: np.ndarray) -> None:
        """Iterate to optimality for the given objective."""
        rc = self.reduced_costs(c_all)
        max_pivots = _MAX_PIVOTS_BASE + 50 * (self.T.shape[1] + self.m)
        degenerate = 0  # degenerate pivots since the last step that made progress
        basis, room = self.basis, np.empty(self.m)

        for step in range(max_pivots):
            if step and step % _RC_REFRESH_PERIOD == 0:
                rc = self.reduced_costs(c_all)

            # Only nonbasic columns can improve: a basic column's reduced cost is exactly 0. The slacks start
            # at 0, a pivot scales its entry to exactly 1.0 and so zeroes it, later pivot rows hold +-0 there,
            # and basic columns stay exact unit vectors, so the periodic refresh gives exact zeros too.
            gain = rc * self.sign
            if degenerate < _DEGENERATE_LIMIT:
                enter = int(gain.argmax())  # if the largest gain fails the test below, every gain does
            else:
                enter = int((gain > PIVOT_TOL).argmax())
            if not gain[enter] > PIVOT_TOL:
                return
            sigma = self.sign[enter]

            move = sigma * self.T[:, enter]
            span = self.upper[enter] - self.lower[enter]

            # How far each basic variable lets us go before hitting a bound;
            # rows with |move| <= PIVOT_TOL never block.
            room.fill(np.inf)
            abs_move = np.abs(move)
            np.divide(
                np.where(move > 0, self.x_basic - self.lower[basis], self.upper[basis] - self.x_basic),
                abs_move, out=room, where=abs_move > PIVOT_TOL,
            )
            np.maximum(room, 0.0, out=room)
            min_room = room.min(initial=np.inf)
            delta = min(span, min_room)
            if not math.isfinite(delta):
                raise RuntimeError("simplex found an unbounded step on a boxed LP")

            if span <= min_room:
                self.sign[enter] = -sigma
                self.x_basic -= move * span
                self.bound_flips += 1
                if span > 0:
                    degenerate = 0
                continue
            degenerate = degenerate + 1 if delta == 0 else 0

            # Bland: of the blocking rows, the one with the smallest basic index.
            leave_row = int(np.where(room <= min_room + 1e-12, basis, self.T.shape[1]).argmin())
            leaving = int(basis[leave_row])

            self.x_basic -= move * delta
            entering_value = (self.upper[enter] if sigma < 0 else self.lower[enter]) + sigma * delta
            self.pivot(leave_row, enter)
            rc -= rc[enter] * self.T[leave_row]
            basis[leave_row] = enter
            self.x_basic[leave_row] = entering_value
            self.sign[leaving] = -1.0 if move[leave_row] < 0 else 1.0

        raise RuntimeError("simplex exceeded its pivot budget")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a small dense LP; deterministic for a fixed input.

    Returns an optimal basic feasible solution: ``LinearProgram`` admits only
    bounded problems with a feasible start, so the status is always OPTIMAL.
    """
    tab = _Tableau(lp)
    tab.run(np.concatenate([lp.objective, np.zeros(tab.m)]))
    # Nonbasic variables sit at their lower or upper bound; basic ones take x_basic.
    x = np.where(tab.sign < 0, tab.upper, tab.lower)
    x[tab.basis] = tab.x_basic
    x = x[: tab.n]
    np.clip(x, lp.variable_bounds[:, 0], lp.variable_bounds[:, 1], out=x)
    return LpSolution(LpStatus.OPTIMAL, x, float(lp.objective @ x), tab.pivots, tab.bound_flips)
