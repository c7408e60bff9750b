"""The package's one clause engine: unit propagation, a tree search that
lists every solution, and the nogood test on a complete assignment.

A formula is start values and nogoods.  Values hold one int8 per
variable: 0, 1, or -1 while the variable is unassigned.  A literal is
2 * variable + bit, true where the variable holds that bit.  A nogood
array is [w, C] intp literals, one nogood of width w per column, met when
all w of its literals are true; intp, which numpy indexes with directly
where a narrower type goes through a buffered cast.  A solution meets no
nogood.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def propagate(truth: np.ndarray, nogoods: Sequence[np.ndarray]) -> bool:
    """Unit propagation, in place.  truth holds one int8 per literal: 1
    where it is true, -1 where it is false, 0 while its variable is
    unassigned.  A nogood array's column sums are int8 below width 128 and
    int16 below 32,768, and a wider array is refused.

    A nogood's true literals less its false ones number w exactly when all
    are true, and w - 1 exactly when one is unassigned and the rest true:
    the unit case, which sets that literal's variable to the other bit.
    One max over these sums tells a conflict or a sweep with nothing to
    force before any forcing array is built.  Forcing then takes the
    literals and truth values of the unit columns alone, so its work grows
    with the unit nogoods, not with C (a full-width mask was about a fifth
    slower at (6, 5)).  Sweeps repeat until one sets nothing.  False on a
    conflict: a nogood with every literal true, or a sweep that would set
    one variable both ways, in which case that sweep assigns nothing."""
    for lits in nogoods:
        if len(lits) >= 1 << 15:
            raise ValueError(f"nogood width {len(lits)}: a sweep sums widths up to 32,767")
    while True:
        forced = []
        for lits in nogoods:
            state = truth[lits]
            score = state.sum(axis=0, dtype=np.int8 if len(lits) < 128 else np.int16)  # -w..w
            top = score.max()
            if top == len(lits):
                return False
            if top == len(lits) - 1:
                unit = (score == top).nonzero()[0]
                forced.append(lits.take(unit, axis=1)[state.take(unit, axis=1) == 0])
        if not forced:
            return True
        lit = np.concatenate(forced)
        truth[lit] = -1
        truth[lit ^ 1] = 1
        # a variable forced both ways has both literals in lit, and the second
        # write leaves both true; every forced literal was unassigned
        if (truth[lit] != -1).any():
            truth[lit] = truth[lit ^ 1] = 0
            return False


def search(values: np.ndarray, nogoods: Sequence[np.ndarray]) -> tuple[np.ndarray, int, int, int]:
    """Every completion of values that meets none of the nogoods, in
    lexicographic order, as [leaves, variables] int8 bits, and the search's
    decisions (branch values tried), propagations (variables set by unit
    propagation, values' own included) and conflicts.

    The search propagates values first, then branches on the lowest
    unassigned variable, 0 before 1, and sets every variable the nogoods
    then force.  Each branch propagates on a copy of its parent's
    assignment: nothing is undone.

    With no nogoods every completion is a leaf, and nothing branches: the
    leaves are a row counter's bits, stored big-endian in the narrowest
    unsigned type and unpacked, the lowest free variable most significant,
    which is the order the branching gives.  That takes no decision and
    meets no conflict, and the propagations are values' own."""
    if not nogoods:
        free = np.flatnonzero(values < 0)
        counter = np.arange(1 << len(free), dtype=np.min_scalar_type(
            (1 << len(free)) - 1).newbyteorder(">"))
        bits = np.unpackbits(counter.view(np.uint8).reshape(len(counter), -1), axis=1)
        leaves = np.repeat(values[None], len(counter), axis=0)
        leaves[:, free] = bits[:, bits.shape[1] - len(free):]
        return leaves, 0, len(values) - len(free), 0

    truth = np.empty(2 * len(values), dtype=np.int8)  # propagate's literal table
    truth[1::2] = np.where(values < 0, 0, 2 * values - 1)
    truth[0::2] = -truth[1::2]
    ok = propagate(truth, nogoods)
    decisions, propagations, conflicts = 0, int(np.count_nonzero(truth)) // 2, int(not ok)

    leaves = []
    stack = [truth] if ok else []  # assignments still to branch on, the next on top
    while stack:
        truth = stack.pop()
        free = (truth[1::2] == 0).nonzero()[0]
        if not free.size:
            leaves.append(truth[1::2] > 0)
            continue
        assigned = len(values) - len(free)
        first = 2 * int(free[0])
        children = []
        for bit in (0, 1):
            decisions += 1
            child = truth.copy()
            lit = first + bit
            child[lit], child[lit ^ 1] = 1, -1
            ok = propagate(child, nogoods)
            propagations += int(np.count_nonzero(child)) // 2 - assigned - 1
            if ok:
                children.append(child)
            else:
                conflicts += 1
        stack.extend(reversed(children))
    return np.array(leaves, dtype=np.int8).reshape(-1, len(values)), decisions, propagations, conflicts


def violated(bits: np.ndarray, nogoods: Sequence[np.ndarray]) -> bool:
    """A complete assignment, one 0/1 bit per variable, meets some nogood.
    Its literal truth table is gathered at every nogood as bools, which
    at (3, 3) takes about three fifths of the time of propagate's int8
    table."""
    truth = np.empty(2 * len(bits), dtype=bool)
    truth[1::2] = bits
    truth[0::2] = ~truth[1::2]
    return any(truth[lits].all(axis=0).any() for lits in nogoods)
