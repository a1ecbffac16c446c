"""Dempster-Shafer belief primitives on small finite frames.

Subsets of a frame are addressed as integer bitmasks over the ordered label
list: bit k set means hypothesis k belongs to the subset.  Index 0 is the
empty set, index 2**n - 1 the whole frame.  Mass functions store a dense
vector of 2**n masses, which is the fastest layout for the frame sizes this
package works with (n <= 5).

All values are immutable after construction and every operation is a pure
function, so they can be evaluated concurrently without synchronisation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union

import numpy as np

# Mass vectors must sum to 1 within this tolerance; smaller deviations are
# silently renormalised (float drift accumulates over thousands of per-cell
# combinations), larger ones are rejected.
SUM_TOLERANCE = 1e-9

# Dempster's rule divides by the mass kept off the empty set, 1 - K; treat a
# kept mass this close to 0 as total conflict.
TOTAL_CONFLICT_TOLERANCE = 1e-12

SubsetKey = Union[int, Iterable[str]]


class TotalConflictError(ValueError):
    """Raised when Dempster's rule meets two fully contradictory sources."""


class FrameOfDiscernment:
    """An ordered set of mutually exclusive hypothesis labels."""

    __slots__ = ("labels", "_bit")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not 1 <= len(labels) <= 16:
            raise ValueError(f"frame must have 1..16 labels, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in frame: {labels}")
        if any(not lab for lab in labels):
            raise ValueError("empty label in frame")
        self.labels = labels
        self._bit = {lab: 1 << k for k, lab in enumerate(labels)}

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        """Number of addressable subsets, 2**n."""
        return 1 << len(self.labels)

    @property
    def omega(self) -> int:
        """Bitmask of the full frame."""
        return self.size - 1

    def mask(self, subset: SubsetKey) -> int:
        """Bitmask for a subset given as an int or an iterable of labels.

        A plain string works as an iterable of single-character labels.
        """
        if isinstance(subset, int):
            if not 0 <= subset < self.size:
                raise ValueError(f"subset index {subset} out of range for {self!r}")
            return subset
        m = 0
        for lab in subset:
            try:
                m |= self._bit[lab]
            except KeyError:
                raise ValueError(f"unknown label {lab!r} for frame {self.labels}") from None
        return m

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(lab for k, lab in enumerate(self.labels) if mask >> k & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, FrameOfDiscernment) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"FrameOfDiscernment({self.labels!r})"


class MassFunction:
    """A basic belief assignment over the subsets of a frame.

    A *normal* mass function has m(empty) = 0.  Combination intermediates may
    carry conflict mass on the empty set; those must be constructed with
    ``unnormalized=True`` and are rejected by operations that require a normal
    input (discounting, pignistic transform).
    """

    __slots__ = ("frame", "masses", "unnormalized")

    def __init__(self, frame: FrameOfDiscernment,
                 masses: Union[Mapping[SubsetKey, float], np.ndarray, Iterable[float]],
                 unnormalized: bool = False):
        arr = np.zeros(frame.size)
        if isinstance(masses, Mapping):
            for key, value in masses.items():
                arr[frame.mask(key)] += value
        else:
            vec = np.asarray(masses, dtype=float)
            if vec.shape != (frame.size,):
                raise ValueError(f"expected {frame.size} masses, got shape {vec.shape}")
            arr[:] = vec
        if not np.isfinite(arr).all():
            k = int(np.argmin(np.isfinite(arr)))
            raise ValueError(f"mass {arr[k]} on subset {k} is not finite")
        if arr.min() < -SUM_TOLERANCE:
            raise ValueError(f"negative mass {arr.min()}")
        np.clip(arr, 0.0, None, out=arr)
        total = arr.sum()
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"masses sum to {total}, expected 1")
        if not unnormalized:
            if arr[0] > SUM_TOLERANCE:
                raise ValueError(
                    "m(empty) > 0 on a normal mass function; pass unnormalized=True")
            arr[0] = 0.0
        arr /= arr.sum()
        arr.setflags(write=False)
        self.frame = frame
        self.masses = arr
        self.unnormalized = unnormalized

    @classmethod
    def vacuous(cls, frame: FrameOfDiscernment) -> "MassFunction":
        """Total ignorance: all mass on the full frame."""
        arr = np.zeros(frame.size)
        arr[frame.omega] = 1.0
        return cls(frame, arr)

    def __getitem__(self, subset: SubsetKey) -> float:
        return float(self.masses[self.frame.mask(subset)])

    def focal(self) -> Iterator[tuple[int, float]]:
        """Yield (bitmask, mass) for every focal element."""
        for mask in np.flatnonzero(self.masses):
            yield int(mask), float(self.masses[mask])

    @property
    def conflict(self) -> float:
        return float(self.masses[0])

    def is_vacuous(self) -> bool:
        return self.masses[self.frame.omega] == 1.0

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{{{','.join(self.frame.labels_of(mask)) or 'empty'}}}: {value:.4g}"
            for mask, value in self.focal())
        return f"MassFunction({parts})"


class Refining:
    """One-to-many mapping embedding a coarse frame into a finer one.

    Defined by the image of every source singleton; the image of an arbitrary
    subset is the union of its singleton images.
    """

    __slots__ = ("source", "target", "_images")

    def __init__(self, source: FrameOfDiscernment, target: FrameOfDiscernment,
                 mapping: Mapping[str, SubsetKey]):
        if set(mapping) != set(source.labels):
            raise ValueError("refining must map every source singleton")
        images = [0] * source.n
        union = 0
        for lab, subset in mapping.items():
            img = target.mask(subset)
            if img == 0:
                raise ValueError(f"refining maps {lab!r} to the empty set")
            images[source.labels.index(lab)] = img
            union |= img
        if union != target.omega:
            raise ValueError("singleton images must cover the target frame")
        self.source = source
        self.target = target
        self._images = tuple(images)

    def image(self, mask: int) -> int:
        out = 0
        for k, img in enumerate(self._images):
            if mask >> k & 1:
                out |= img
        return out


def _require_same_frame(m1: MassFunction, m2: MassFunction) -> FrameOfDiscernment:
    if m1.frame != m2.frame:
        raise ValueError(f"frame mismatch: {m1.frame!r} vs {m2.frame!r}")
    return m1.frame


def combine_conjunctive(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Unnormalised intersection-based combination; may put mass on empty."""
    frame = _require_same_frame(m1, m2)
    out = np.zeros(frame.size)
    for b, vb in m1.focal():
        for c, vc in m2.focal():
            out[b & c] += vb * vc
    return MassFunction(frame, out, unnormalized=True)


def combine_dempster(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Conjunctive combination normalised by the conflict mass: the kept
    masses over their sum, which still sums to 1 where ``1 - K`` cancels."""
    arr = combine_conjunctive(m1, m2).masses.copy()
    arr[0] = 0.0
    kept = arr.sum()
    if kept <= TOTAL_CONFLICT_TOLERANCE:
        raise TotalConflictError("total conflict, combination undefined")
    return MassFunction(m1.frame, arr / kept)


def combine_disjunctive(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Union-based combination for when only one source is known reliable."""
    frame = _require_same_frame(m1, m2)
    out = np.zeros(frame.size)
    for b, vb in m1.focal():
        for c, vc in m2.focal():
            out[b | c] += vb * vc
    return MassFunction(frame, out, unnormalized=m1.unnormalized or m2.unnormalized)


def discount(m: MassFunction, alpha: float) -> MassFunction:
    """Weaken a source: move a fraction alpha of every mass onto the frame.

    Models information ageing.
    """
    if m.unnormalized:
        raise ValueError("cannot discount an unnormalized mass function")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"discount factor must be in [0, 1], got {alpha}")
    arr = m.masses * (1.0 - alpha)
    arr[m.frame.omega] += alpha
    return MassFunction(m.frame, arr)


def pignistic(m: MassFunction) -> np.ndarray:
    """Pignistic probability over singletons, in frame label order.

    Each focal mass is split equally among the hypotheses it contains.
    """
    if m.unnormalized or m.masses[0] > 0.0:
        raise ValueError("pignistic transform requires a normal mass function")
    bet = np.zeros(m.frame.n)
    for mask, value in m.focal():
        share = value / mask.bit_count()
        for k in range(m.frame.n):
            if mask >> k & 1:
                bet[k] += share
    return bet


def refine(m: MassFunction, r: Refining) -> MassFunction:
    """Carry a mass function through a refining onto the finer frame."""
    if m.frame != r.source:
        raise ValueError(f"frame mismatch: {m.frame!r} is not the refining source")
    out = np.zeros(r.target.size)
    for mask, value in m.focal():
        out[r.image(mask)] += value
    return MassFunction(r.target, out, unnormalized=m.unnormalized)


def specialize(m: MassFunction, s: np.ndarray) -> MassFunction:
    """Apply a specialization matrix: result(A) = sum_B S[A, B] * m(B).

    Column B of S must be a distribution over subsets A of B, so total mass is
    preserved and belief only flows from sets to their subsets.
    """
    s = np.asarray(s, dtype=float)
    size = m.frame.size
    if s.shape != (size, size):
        raise ValueError(f"specialization matrix must be {size}x{size}, got {s.shape}")
    col_sums = s.sum(axis=0)
    bad = np.flatnonzero(np.abs(col_sums - 1.0) > SUM_TOLERANCE)
    if bad.size:
        raise ValueError(f"specialization column {int(bad[0])} sums to {col_sums[bad[0]]}")
    for a, b in zip(*np.nonzero(s)):
        if a & ~b:
            raise ValueError(
                f"specialization transfers mass outside the source set ({int(b)} -> {int(a)})")
    return MassFunction(m.frame, s @ m.masses, unnormalized=m.unnormalized)
