"""Problem data model for joint carrier / resource-block allocation.

Holds the immutable problem description (per-user weights, per-block
utilities, carrier caps), the weighted-sum-utility objective, feasibility
checking against the hard constraints, and the rounding that turns a
continuous allocation (or any carrier/admission shares) into a feasible 0/1
one, each block going to its admitted user with the largest weighted utility.

Conventions used throughout the package:

* ``K`` users, ``M`` carriers, ``N`` resource blocks per carrier.
* ``alpha[k, m, n]`` -- user k holds block n of carrier m.
* ``beta[k, m]``  -- user k is admitted to carrier m.
* ``gamma[m]``    -- carrier m is active.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "ProblemInstance",
    "RelaxedAllocation",
    "BinaryAllocation",
    "FeasibilityReport",
    "evaluate_wsu",
    "evaluate_relaxed_wsu",
    "check_feasibility",
    "quantize",
    "round_allocation",
    "block_winners",
    "top_cap_indicator",
]

class DimensionMismatchError(ValueError):
    """An allocation does not match the instance dimensions."""


#: JSON name and accepted Python types of each scalar annotation.
_JSON_SCALARS = {
    "int": ("integer", (int,)),
    "float": ("number", (int, float)),
    "str": ("string", (str,)),
    "bool": ("boolean", (bool,)),
}


def _json_mismatch(annotation: str, value) -> Optional[str]:
    """The JSON type a field annotated ``annotation`` takes, when ``value``
    is not of that type; None when it is, or when :func:`check_document`
    leaves the annotation alone. ``int``, ``float``, ``str`` and ``bool``
    take a JSON integer, number, string or boolean (``true`` is only the
    last), ``list`` a JSON array, and ``Tuple[...]`` a JSON array of the
    tuple's length whose items all take the tuple's first item type (a tuple
    too, from Python callers); ``Optional[...]`` also takes ``null``."""
    if annotation.startswith("Optional["):
        if value is None:
            return None
        annotation = annotation[len("Optional[") : -1]
    if annotation in _JSON_SCALARS:
        name, types = _JSON_SCALARS[annotation]
        typed = isinstance(value, types) and isinstance(value, bool) == (annotation == "bool")
        return None if typed else f"JSON {name}"
    if annotation == "list":
        return None if isinstance(value, (list, tuple)) else "JSON array"
    if not annotation.startswith("Tuple["):
        return None
    items = annotation[len("Tuple[") : -1].split(", ")
    length = None if items[-1] == "..." else len(items)
    expected = f"JSON array of {f'{length} ' if length else ''}{_JSON_SCALARS[items[0]][0]}s"
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        return expected
    return expected if any(_json_mismatch(items[0], item) for item in value) else None


def check_document(doc, spec, what: str) -> dict:
    """A copy of the parsed JSON ``doc``, after checking that it is an object
    with no unknown key, every required one, and the JSON type each field's
    annotation asks for (see :func:`_json_mismatch`); ValueError naming the
    culprit if not. Every ``Tuple[...]`` field, ``Optional`` or not, holds a
    tuple of its array's items. ``spec`` is a dict of keys, all required, to
    annotations spelled as a dataclass spells them, or a dataclass, whose
    fields without a default are required."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    known = required = annotations = spec
    if is_dataclass(spec):
        annotations = {f.name: f.type for f in fields(spec)}
        known = list(annotations)
        required = [
            f.name for f in fields(spec) if f.default is MISSING and f.default_factory is MISSING
        ]
    unknown = set(doc) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = [name for name in required if name not in doc]
    if missing:
        raise ValueError(f"missing {what} fields: {missing}")
    doc = dict(doc)
    for name, annotation in annotations.items():
        value = doc.get(name)
        expected = _json_mismatch(annotation, value) if name in doc else None
        if expected:
            raise ValueError(f"{what} field {name!r} must be a {expected}, not {value!r}")
        if "Tuple[" in annotation and value is not None:
            doc[name] = tuple(value)
    return doc


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


#: The keys of an instance document and the JSON type of each.
_INSTANCE_FIELDS = {
    "K": "int", "M": "int", "N": "int", "weights": "Tuple[float, ...]", "Mk": "Tuple[int, ...]",
    "M0": "int", "phi": "list",
}


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable description of one allocation problem.

    K users, each with a finite positive weight ``weights[k]`` and a cap
    ``ue_cc_caps[k]`` on how many carriers it may use; M carriers of N
    blocks each, with at most ``system_cc_cap`` carriers active in total;
    and a nonnegative utility ``utilities[k, m, n]`` earned when user k is
    given block (m, n).

    Instances are deep-copied on construction and their arrays are marked
    read-only, so one instance can be shared freely across workers.
    """

    num_ues: int
    num_ccs: int
    num_rbs_per_cc: int
    weights: np.ndarray
    utilities: np.ndarray
    ue_cc_caps: np.ndarray
    system_cc_cap: int

    def __post_init__(self):
        K = int(self.num_ues)
        M = int(self.num_ccs)
        N = int(self.num_rbs_per_cc)
        if K < 1 or M < 1 or N < 1:
            raise ValueError("dimensions must be positive integers")
        w = np.asarray(self.weights, dtype=float)
        phi = np.asarray(self.utilities, dtype=float)
        caps = np.asarray(self.ue_cc_caps, dtype=int)
        m0 = int(self.system_cc_cap)
        if w.shape != (K,):
            raise ValueError(f"weights must have shape ({K},), got {w.shape}")
        if phi.shape != (K, M, N):
            raise ValueError(f"utilities must have shape ({K}, {M}, {N}), got {phi.shape}")
        if caps.shape != (K,):
            raise ValueError(f"ue_cc_caps must have shape ({K},), got {caps.shape}")
        if not (np.all(np.isfinite(w)) and np.all(w > 0)):
            raise ValueError("weights must be finite and strictly positive")
        if not np.all(np.isfinite(phi)) or np.any(phi < 0):
            raise ValueError("utilities must be finite and nonnegative")
        if np.any(caps < 1) or np.any(caps > M):
            raise ValueError("every per-user carrier cap must lie in [1, M]")
        if not 1 <= m0 <= M:
            raise ValueError("system carrier cap must lie in [1, M]")
        # Every term is nonnegative, so a finite total bounds every product
        # and partial sum of weighted utilities that the algorithms form.
        with np.errstate(over="ignore"):
            if not np.isfinite(np.einsum("k,kmn->", w, phi)):
                raise ValueError("weights times utilities overflow: their weighted sum must be finite")
        object.__setattr__(self, "num_ues", K)
        object.__setattr__(self, "num_ccs", M)
        object.__setattr__(self, "num_rbs_per_cc", N)
        object.__setattr__(self, "weights", _frozen_array(w, float))
        object.__setattr__(self, "utilities", _frozen_array(phi, float))
        object.__setattr__(self, "ue_cc_caps", _frozen_array(caps, int))
        object.__setattr__(self, "system_cc_cap", m0)

    @property
    def weighted_utilities(self) -> np.ndarray:
        """``weights[k] * utilities[k, m, n]``, formed anew on every access
        (not cached, so no extra K*M*N array outlives its use)."""
        return self.weights[:, None, None] * self.utilities

    def to_dict(self) -> dict:
        """JSON-ready document: {"K", "M", "N", "weights", "Mk", "M0", "phi"}."""
        return {
            "K": self.num_ues,
            "M": self.num_ccs,
            "N": self.num_rbs_per_cc,
            "weights": self.weights.tolist(),
            "Mk": self.ue_cc_caps.tolist(),
            "M0": self.system_cc_cap,
            "phi": self.utilities.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ProblemInstance":
        doc = check_document(doc, _INSTANCE_FIELDS, "instance")
        # One C-level pass over the leaves; a typed walk in Python costs 5x the parse.
        leaf_types = set(map(type, np.array(doc["phi"], dtype=object).ravel()))
        if not leaf_types <= {int, float}:
            found = sorted(t.__name__ for t in leaf_types - {int, float})
            raise ValueError(f"instance field 'phi' must hold only JSON numbers, not {found}")
        return cls(
            num_ues=doc["K"],
            num_ccs=doc["M"],
            num_rbs_per_cc=doc["N"],
            weights=doc["weights"],
            utilities=doc["phi"],
            ue_cc_caps=doc["Mk"],
            system_cc_cap=doc["M0"],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ProblemInstance":
        return cls.from_dict(json.loads(text))


def _check_shapes(alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> None:
    """ValueError unless alpha is 3-D, beta 2-D and gamma 1-D;
    DimensionMismatchError unless they agree on K and M."""
    if alpha.ndim != 3 or beta.ndim != 2 or gamma.ndim != 1:
        raise ValueError("alpha must be 3-D, beta 2-D, gamma 1-D")
    K, M, N = alpha.shape
    if beta.shape != (K, M) or gamma.shape != (M,):
        raise DimensionMismatchError(
            f"inconsistent shapes: alpha {alpha.shape}, beta {beta.shape}, gamma {gamma.shape}"
        )


@dataclass
class RelaxedAllocation:
    """Continuous-valued allocation iterate.

    Values live in [0, 1]. Exact zeros mark entries the solver removed from
    play.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)
        beta = np.array(self.beta, dtype=float)
        gamma = np.array(self.gamma, dtype=float)
        _check_shapes(alpha, beta, gamma)
        for name, arr in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            if arr.size and (arr.min() < -1e-9 or arr.max() > 1 + 1e-9):
                raise ValueError(f"{name} values must lie in [0, 1]")
            np.clip(arr, 0.0, 1.0, out=arr)
        self.alpha, self.beta, self.gamma = alpha, beta, gamma


@dataclass
class BinaryAllocation:
    """A 0/1 allocation (not necessarily feasible; see check_feasibility)."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        arrays = []
        for name, raw in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            values = np.asarray(raw)
            if not np.isin(values, (0, 1)).all():
                raise ValueError(f"{name} entries must be 0 or 1")
            arrays.append(values.astype(np.int8))
        _check_shapes(*arrays)
        self.alpha, self.beta, self.gamma = arrays

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha.tolist(),
            "beta": self.beta.tolist(),
            "gamma": self.gamma.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BinaryAllocation":
        return cls(alpha=doc["alpha"], beta=doc["beta"], gamma=doc["gamma"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "BinaryAllocation":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-constraint verdicts with the first violating index of each kind.

    * c1: at most one user per resource block,
    * c2: per-user carrier count within its cap,
    * c3: total active carriers within the system cap,
    * consistency: a held block implies carrier admission and activation.
    """

    c1_ok: bool
    c2_ok: bool
    c3_ok: bool
    consistency_ok: bool
    c1_violation: Optional[tuple] = None  # (m, n)
    c2_violation: Optional[int] = None  # k
    c3_violation: Optional[int] = None  # first active carrier beyond the cap
    consistency_violation: Optional[tuple] = None  # (k, m, n)

    @property
    def ok(self) -> bool:
        return self.c1_ok and self.c2_ok and self.c3_ok and self.consistency_ok

    def to_dict(self) -> dict:
        """``feasible`` (:attr:`ok`), then every field in declaration order."""
        return {"feasible": self.ok, **asdict(self)}


def _require_dims(instance: ProblemInstance, alloc) -> None:
    if alloc.alpha.shape != (instance.num_ues, instance.num_ccs, instance.num_rbs_per_cc):
        raise DimensionMismatchError(
            f"allocation dims {alloc.alpha.shape} do not match instance "
            f"({instance.num_ues}, {instance.num_ccs}, {instance.num_rbs_per_cc})"
        )


def evaluate_wsu(instance: ProblemInstance, alloc: BinaryAllocation) -> float:
    """Weighted sum utility of a 0/1 allocation.

    A block counts only when the whole chain holds: the carrier is active,
    the user is admitted to it, and the user holds the block. Inconsistent
    alpha entries therefore contribute nothing.
    """
    _require_dims(instance, alloc)
    chain = (
        alloc.alpha.astype(float)
        * alloc.beta[:, :, None].astype(float)
        * alloc.gamma[None, :, None].astype(float)
    )
    return float(np.einsum("k,kmn,kmn->", instance.weights, chain, instance.utilities))


def evaluate_relaxed_wsu(instance: ProblemInstance, alloc: RelaxedAllocation) -> float:
    """Weighted sum utility of a continuous allocation (product form)."""
    _require_dims(instance, alloc)
    return float(
        np.einsum(
            "k,m,km,kmn,kmn->",
            instance.weights,
            alloc.gamma,
            alloc.beta,
            alloc.alpha,
            instance.utilities,
        )
    )


def check_feasibility(instance: ProblemInstance, alloc: BinaryAllocation) -> FeasibilityReport:
    """Check the hard constraints; never raises on violation, reports instead."""
    _require_dims(instance, alloc)

    col_load = alloc.alpha.sum(axis=0)  # (M, N)
    c1_bad = np.argwhere(col_load > 1)
    c1_ok = c1_bad.size == 0
    c1_violation = tuple(int(i) for i in c1_bad[0]) if not c1_ok else None

    cc_counts = alloc.beta.sum(axis=1)
    c2_bad = np.flatnonzero(cc_counts > instance.ue_cc_caps)
    c2_ok = c2_bad.size == 0
    c2_violation = int(c2_bad[0]) if not c2_ok else None

    active = np.flatnonzero(alloc.gamma == 1)
    c3_ok = active.size <= instance.system_cc_cap
    c3_violation = int(active[instance.system_cc_cap]) if not c3_ok else None

    broken_chain = (alloc.alpha == 1) & (
        (alloc.beta[:, :, None] == 0) | (alloc.gamma[None, :, None] == 0)
    )
    cons_bad = np.argwhere(broken_chain)
    consistency_ok = cons_bad.size == 0
    consistency_violation = tuple(int(i) for i in cons_bad[0]) if not consistency_ok else None

    return FeasibilityReport(
        c1_ok=c1_ok,
        c2_ok=c2_ok,
        c3_ok=c3_ok,
        consistency_ok=consistency_ok,
        c1_violation=c1_violation,
        c2_violation=c2_violation,
        c3_violation=c3_violation,
        consistency_violation=consistency_violation,
    )


def top_cap_indicator(values: np.ndarray, cap: int) -> np.ndarray:
    """0/1 vector with ones on the ``cap`` largest entries.

    Ties are broken toward the lowest index (stable sort), so the result is
    invariant under any strictly increasing transform of ``values``.
    """
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.size, dtype=np.int8)
    out[np.argsort(-values, kind="stable")[: int(cap)]] = 1
    return out


def block_winners(instance: ProblemInstance, beta_bin: np.ndarray, gamma_bin: np.ndarray) -> np.ndarray:
    """0/1 blocks: each to its admitted user of largest ``weights[k] * utilities[k, m, n]``.

    A user is admitted on carrier m when ``beta_bin[k, m]`` and
    ``gamma_bin[m]`` are both 1. Ties go to the lowest user index. Blocks of
    a carrier with no admitted user stay unallocated.
    """
    active = np.flatnonzero(gamma_bin == 1)
    admitted = beta_bin[:, active] == 1
    scores = instance.utilities[:, active, :]  # active carriers only: K * M0 * N floats
    scores *= instance.weights[:, None, None]
    scores[~admitted] = -np.inf
    alpha = np.zeros(instance.utilities.shape, dtype=np.int8)
    blocks = np.arange(instance.num_rbs_per_cc)
    alpha[np.argmax(scores, axis=0), active[:, None], blocks] = admitted.any(axis=0)[:, None]
    return alpha


def round_allocation(instance: ProblemInstance, beta: np.ndarray, gamma: np.ndarray) -> BinaryAllocation:
    """Round carrier and admission shares, then hand out the blocks.

    Carriers first (top system-cap activation), then each user's carrier set
    (its top entries among the carriers just activated, ties to the lower
    index), then :func:`block_winners`, the best blocks for those
    memberships (WSU splits per block once they are fixed). Every stage only
    picks from what the previous stage kept, so the output satisfies all
    hard constraints.
    """
    gamma_bin = top_cap_indicator(gamma, instance.system_cc_cap)
    active = gamma_bin == 1
    order = np.argsort(-np.where(active, beta, -np.inf), axis=1, kind="stable")
    taken = np.minimum(instance.ue_cc_caps, np.count_nonzero(active))[:, None]
    beta_bin = np.zeros((instance.num_ues, instance.num_ccs), dtype=np.int8)
    np.put_along_axis(beta_bin, order, np.arange(instance.num_ccs) < taken, axis=1)
    return BinaryAllocation(block_winners(instance, beta_bin, gamma_bin), beta_bin, gamma_bin)


def quantize(instance: ProblemInstance, relaxed: RelaxedAllocation) -> BinaryAllocation:
    """Round a continuous allocation to a feasible 0/1 allocation.

    :func:`round_allocation` of the relaxed ``beta`` and ``gamma``; ``alpha`` is not read.
    """
    _require_dims(instance, relaxed)
    return round_allocation(instance, relaxed.beta, relaxed.gamma)
