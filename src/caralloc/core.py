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


#: How a message names one value, and many values, of each scalar annotation.
_KINDS = {"int": ("an integer", "integers"), "float": ("a number", "numbers"), "str": ("a string", "strings"),
          "bool": ("a boolean", "booleans"), "list": ("a list", "lists")}


def _checked(annotation: str, value, name: str):
    """``value`` as the field ``name`` annotated ``annotation`` stores it;
    ValueError ``<name> must be <kind>, not <value!r>`` if it does not take it.

    ``int`` takes a Python or numpy integer and stores an int; ``float``
    that or a float within float range, stored as a float; ``bool`` a Python
    or numpy bool, stored as a bool, and a bool is no other type. ``str``
    takes a string and ``list`` a list or tuple, both as they are.
    ``Tuple[...]`` takes a list or tuple of the tuple's length whose items,
    named ``name[i]``, all take its first item type, and stores a tuple.
    ``Optional[...]`` also takes None. Any other annotation is a class name
    and takes only an object of a class of that name."""
    if annotation.startswith("Optional["):
        return None if value is None else _checked(annotation[len("Optional[") : -1], value, name)
    if annotation.startswith("Tuple["):
        items = annotation[len("Tuple[") : -1].split(", ")
        length = None if items[-1] == "..." else len(items)
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            count = f"{length} " if length else ""
            raise ValueError(f"{name} must be a list of {count}{_KINDS[items[0]][1]}, not {value!r}")
        return tuple(_checked(items[0], item, f"{name}[{i}]") for i, item in enumerate(value))
    boolean = isinstance(value, (bool, np.bool_))
    if annotation == "bool" and boolean:
        return bool(value)
    if annotation == "int" and not boolean and isinstance(value, (int, np.integer)):
        return int(value)
    if annotation == "float" and not boolean and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{name} must be a number within float range, not {value!r}") from None
    if (annotation == "str" and isinstance(value, str)
            or annotation == "list" and isinstance(value, (list, tuple))
            or annotation not in _KINDS and type(value).__name__ == annotation):
        return value
    kind = _KINDS[annotation][0] if annotation in _KINDS else f"a {annotation}"
    raise ValueError(f"{name} must be {kind}, not {value!r}")


def check_fields(obj) -> None:
    """Store :func:`_checked` of every field of the dataclass ``obj``: the one
    type rule of every config, built in Python or read from JSON."""
    for f in fields(obj):
        object.__setattr__(obj, f.name, _checked(f.type, getattr(obj, f.name), f.name))


def check_document(doc, spec, what: str) -> dict:
    """A copy of the parsed JSON ``doc``, after checking that it is an object
    with no unknown key and every required one; ValueError naming the
    culprit if not. ``spec`` is a dataclass, whose fields without a default
    are required and whose constructor checks the values, or a dict of keys,
    all required, to annotations spelled as a dataclass spells them; the
    copy then holds each value as :func:`_checked` returns it."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    if is_dataclass(spec):
        known = [f.name for f in fields(spec)]
        required = [f.name for f in fields(spec) if f.default is MISSING and f.default_factory is MISSING]
    else:
        known = required = list(spec)
    unknown = set(doc) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = [name for name in required if name not in doc]
    if missing:
        raise ValueError(f"missing {what} fields: {missing}")
    if is_dataclass(spec):
        return dict(doc)
    return {name: _checked(annotation, doc[name], name) for name, annotation in spec.items()}


def _float_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; ValueError naming ``name`` when they are not numbers within float range."""
    try:
        return np.asarray(values, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an array of numbers within float range ({exc})") from None


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


#: The keys of an instance document and the JSON type of each.
_INSTANCE_FIELDS = {
    "K": "int", "M": "int", "N": "int", "weights": "Tuple[float, ...]", "Mk": "Tuple[int, ...]",
    "M0": "int", "phi": "list",
}


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Immutable description of one allocation problem.

    ``utilities[k, m, n]`` is the nonnegative utility earned when user k is
    given block n of carrier m; its shape (K, M, N) is the problem's, read
    back as ``num_ues``, ``num_ccs`` and ``num_rbs_per_cc``. Each user k
    has a finite positive weight ``weights[k]`` and a cap ``ue_cc_caps[k]``
    on how many carriers it may use, and at most ``system_cc_cap`` carriers
    are active in total. Every cap is an integer (a Python or numpy one, or
    an integer-kind array); ValueError naming the field otherwise.

    Instances are deep-copied on construction and their arrays are marked
    read-only, so one instance can be shared freely across workers. Two
    instances are equal only when they are the same object, and the hash is
    the identity's.
    """

    weights: np.ndarray
    utilities: np.ndarray
    ue_cc_caps: np.ndarray
    system_cc_cap: int

    def __post_init__(self):
        w = _float_array(self.weights, "weights")
        phi = _float_array(self.utilities, "utilities")
        caps = np.asarray(self.ue_cc_caps)
        m0 = _checked("int", self.system_cc_cap, "system_cc_cap")
        if phi.ndim != 3 or 0 in phi.shape:
            raise ValueError(f"utilities must be a 3-D array with no empty axis, got shape {phi.shape}")
        K, M, _ = phi.shape
        if w.shape != (K,):
            raise ValueError(f"weights must have shape ({K},), got {w.shape}")
        if caps.dtype.kind not in "iu":
            raise ValueError(f"ue_cc_caps must be integers, not {self.ue_cc_caps!r}")
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
        object.__setattr__(self, "weights", _frozen_array(w, float))
        object.__setattr__(self, "utilities", _frozen_array(phi, float))
        # Checked integers in [1, M]: the cast to one integer dtype is exact.
        object.__setattr__(self, "ue_cc_caps", _frozen_array(caps, int))
        object.__setattr__(self, "system_cc_cap", m0)

    @property
    def num_ues(self) -> int:
        """K, the number of users: ``utilities.shape[0]``."""
        return self.utilities.shape[0]

    @property
    def num_ccs(self) -> int:
        """M, the number of carriers: ``utilities.shape[1]``."""
        return self.utilities.shape[1]

    @property
    def num_rbs_per_cc(self) -> int:
        """N, the number of blocks per carrier: ``utilities.shape[2]``."""
        return self.utilities.shape[2]

    @property
    def weighted_utilities(self) -> np.ndarray:
        """``weights[k] * utilities[k, m, n]``, formed anew on every access
        (not cached, so no extra K*M*N array outlives its use). The solver
        reads it once per solve and keeps it for all its sweeps."""
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
        """The instance of a parsed JSON document (see :meth:`to_dict`);
        ValueError naming the culprit when a field has the wrong JSON type
        or ``K``, ``M`` and ``N`` disagree with the shape of ``phi``."""
        doc = check_document(doc, _INSTANCE_FIELDS, "instance")
        # One C-level pass over the leaves; a typed walk in Python costs 5x the parse.
        leaves = np.array(doc["phi"], dtype=object)
        leaf_types = set(map(type, leaves.ravel()))
        if not leaf_types <= {int, float}:
            found = sorted(t.__name__ for t in leaf_types - {int, float})
            raise ValueError(f"instance field 'phi' must hold only JSON numbers, not {found}")
        dims = (doc["K"], doc["M"], doc["N"])
        if leaves.shape != dims:
            raise ValueError(f"instance fields K, M, N give shape {dims}, but 'phi' has shape {leaves.shape}")
        return cls(weights=doc["weights"], utilities=doc["phi"], ue_cc_caps=doc["Mk"], system_cc_cap=doc["M0"])

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
        names = ("alpha", "beta", "gamma")
        arrays = [np.array(_float_array(getattr(self, name), name)) for name in names]  # a copy, even of floats
        _check_shapes(*arrays)
        for name, arr in zip(names, arrays):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            if arr.size and (arr.min() < -1e-9 or arr.max() > 1 + 1e-9):
                raise ValueError(f"{name} values must lie in [0, 1]")
            np.clip(arr, 0.0, 1.0, out=arr)
        self.alpha, self.beta, self.gamma = arrays


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
            if not ((values == 0) | (values == 1)).all():
                raise ValueError(f"{name} entries must be 0 or 1")
            arrays.append(values.astype(np.int8))
        _check_shapes(*arrays)
        self.alpha, self.beta, self.gamma = arrays

    def to_json(self) -> str:
        """JSON object {"alpha", "beta", "gamma"} of nested 0/1 lists; the
        constructor takes ``**json.loads`` of it."""
        return json.dumps(
            {"alpha": self.alpha.tolist(), "beta": self.beta.tolist(), "gamma": self.gamma.tolist()}
        )


@dataclass(frozen=True)
class FeasibilityReport:
    """The first violating index of each hard constraint, None where it
    holds; each verdict (``c1_ok`` ... ``ok``) is read off the violations.

    * c1: at most one user per resource block,
    * c2: per-user carrier count within its cap,
    * c3: total active carriers within the system cap,
    * consistency: a held block implies carrier admission and activation.
    """

    c1_violation: Optional[tuple] = None  # (m, n)
    c2_violation: Optional[int] = None  # k
    c3_violation: Optional[int] = None  # first active carrier beyond the cap
    consistency_violation: Optional[tuple] = None  # (k, m, n)

    c1_ok = property(lambda self: self.c1_violation is None)
    c2_ok = property(lambda self: self.c2_violation is None)
    c3_ok = property(lambda self: self.c3_violation is None)
    consistency_ok = property(lambda self: self.consistency_violation is None)
    ok = property(lambda self: self.c1_ok and self.c2_ok and self.c3_ok and self.consistency_ok)

    def to_dict(self) -> dict:
        """``feasible`` (:attr:`ok`), each ``*_ok`` verdict, then each violation, in constraint order."""
        violations = asdict(self)
        verdicts = {name.replace("violation", "ok"): index is None for name, index in violations.items()}
        return {"feasible": self.ok, **verdicts, **violations}


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
    # One int8 product of the 0/1 arrays, cast to float once.
    chain = (alloc.alpha * (alloc.beta[:, :, None] & alloc.gamma[None, :, None])).astype(float)
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


def _first(mask: np.ndarray):
    """Index of ``mask``'s first True in C order (an int for 1-D, else a tuple), None if none."""
    flat = int(mask.argmax())
    if not mask.flat[flat]:
        return None
    if mask.ndim == 1:
        return flat
    return tuple(map(int, np.unravel_index(flat, mask.shape)))


def check_feasibility(instance: ProblemInstance, alloc: BinaryAllocation) -> FeasibilityReport:
    """Check the hard constraints; never raises on violation, reports instead."""
    _require_dims(instance, alloc)
    alpha, beta, gamma = alloc.alpha, alloc.beta, alloc.gamma
    return FeasibilityReport(
        c1_violation=_first(alpha.sum(axis=0) > 1),
        c2_violation=_first(beta.sum(axis=1) > instance.ue_cc_caps),
        c3_violation=_first(gamma.cumsum() > instance.system_cc_cap),
        consistency_violation=_first(alpha > (beta[:, :, None] & gamma[None, :, None])),
    )


def top_cap_indicator(values: np.ndarray, cap) -> np.ndarray:
    """0/1 array of ``values``' shape with ones on the ``cap`` largest
    entries along the last axis (all of them when ``cap`` is at least its
    length).

    ``cap`` is one nonnegative integer for every row or an integer array of
    one cap per row (``values.shape[:-1]``); ValueError otherwise. Ties are
    broken toward the lowest index (stable sort), so the result is invariant
    under any strictly increasing transform of ``values``.
    """
    values = _float_array(values, "values")
    caps = np.asarray(cap)
    if caps.dtype.kind not in "iu" or (caps < 0).any():
        raise ValueError(f"cap must be a nonnegative integer or integer array, not {cap!r}")
    order = np.argsort(-values, axis=-1, kind="stable")
    out = np.zeros(values.shape, dtype=np.int8)
    np.put_along_axis(out, order, np.arange(values.shape[-1]) < caps[..., None], axis=-1)
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
    (its top entries among the carriers just activated), both by
    :func:`top_cap_indicator` (ties to the lower index), then
    :func:`block_winners`, the best blocks for those memberships (WSU splits
    per block once they are fixed). Every stage only picks from what the
    previous stage kept, so the output satisfies all hard constraints.
    """
    gamma_bin = top_cap_indicator(gamma, instance.system_cc_cap)
    active = gamma_bin == 1
    taken = np.minimum(instance.ue_cc_caps, np.count_nonzero(active))
    beta_bin = top_cap_indicator(np.where(active, beta, -np.inf), taken)
    return BinaryAllocation(block_winners(instance, beta_bin, gamma_bin), beta_bin, gamma_bin)


def quantize(instance: ProblemInstance, relaxed: RelaxedAllocation) -> BinaryAllocation:
    """Round a continuous allocation to a feasible 0/1 allocation.

    :func:`round_allocation` of the relaxed ``beta`` and ``gamma``; ``alpha`` is not read.
    """
    _require_dims(instance, relaxed)
    return round_allocation(instance, relaxed.beta, relaxed.gamma)
