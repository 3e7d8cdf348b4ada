"""Correctness oracles the benchmark checks outside its timed spans.

Every check compares the benchmark's own copy of a program output with an
independent computation; a mismatch is one failed operation. The oracles
are deliberately not the program's fast paths: group-bys are recomputed
here with plain numpy, and the engine's outputs are compared with an
offline ``simulate`` of the whole stream or with its numpy engine path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Ops", "groupby_counts", "same_answer", "same_counters"]


class Ops:
    """Operations attempted and failed (raised, refused or wrong)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def groupby_counts(columns: list[np.ndarray], timestamps: np.ndarray,
                   epoch_seconds: float
                   ) -> dict[int, dict[tuple[int, ...], float]]:
    """``count(*)`` per epoch and group, by sorting packed codes.

    Each column is factorized on its own and the codes are combined in
    mixed radix, so the packing shares nothing with the program's hashing.
    """
    epochs = np.floor(timestamps / epoch_seconds).astype(np.int64)
    code = np.zeros(timestamps.shape[0], dtype=np.int64)
    uniques = []
    for col in [epochs, *columns]:
        values, inverse = np.unique(col, return_inverse=True)
        code = code * values.size + inverse
        uniques.append(values)
    keys, counts = np.unique(code, return_counts=True)
    digits = []
    for values in reversed(uniques):
        digits.append(values[keys % values.size])
        keys = keys // values.size
    epoch_of, *group_cols = reversed(digits)
    out: dict[int, dict[tuple[int, ...], float]] = {}
    rows = zip(epoch_of.tolist(), zip(*(c.tolist() for c in group_cols)),
               counts.tolist())
    for epoch, group, count in rows:
        out.setdefault(epoch, {})[group] = float(count)
    return out


def same_answer(expected: dict, got: dict) -> bool:
    """Bit-identical answers: same groups, same float values."""
    if expected.keys() != got.keys():
        return False
    keys = list(expected)
    a = np.fromiter((expected[k] for k in keys), np.float64, len(keys))
    b = np.fromiter((got[k] for k in keys), np.float64, len(keys))
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def same_counters(a, b) -> bool:
    """Equal Eq. 7/8 counters on every relation of two ``CostCounters``."""
    if set(a.relations) != set(b.relations):
        return False
    return all(vars(a.relations[r]) == vars(b.relations[r])
               for r in a.relations)
