"""Seeded inputs for the benchmark workloads.

Pure Python with no import from cubicthue: the engine only ever sees the
lists built here (t values, y bounds and starting precisions).  Every
list repeats a fixed pattern of item kinds, so any prefix a timed window
consumes has the same kind mix whatever the seed.

An item is a tuple ``(kind, t, arg)``:

- ``("reduce", t, None)``: ``reduce_single(2, t)`` at the default precision;
- ``("capped", t, bits)``: ``reduce_single(2, t, precision=bits)`` from a
  starting precision below the default, which walks the escalation ladder;
- ``("kappa", t, None)``: ``verify_kappas(t)``;
- ``("recover", t, None)``: ``recover_exponents`` for every known solution;
- ``("theorem", t, y_bound)``: ``verify_theorem(t, y_bound)``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

Item = Tuple[str, Optional[int], Optional[int]]

SLICE_LO = 10
SLICE_HI = 2000            # the acceptance slice [10, 2000], as `cubicthue sweep`
KAPPA_FIXED = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 576241)
RECOVER_LO, RECOVER_HI = 2, 100
THEOREM_TS = tuple(t for t in range(-30, 31) if t not in (0, 1))
THEOREM_Y_BOUND = 1000
# the largest solution of the sporadic tables has |y| = 4996
TABLES_Y_BOUND = 5000


def capped_precisions(default_bits: int) -> Tuple[int, int]:
    """Starting precisions of the capped items: half the default (one
    escalation) and a third of it (two escalations)."""
    return (default_bits // 2, default_bits // 3)


def reduce_slice(seed: int, t_max: int, default_bits: int) -> List[Item]:
    """Repeats [block, sample, block, capped]: the block walks the slice
    [10, 2000] upward, the samples are those `cubicthue sweep --samples
    --seed <seed>` draws from [2001, t_max], and one item in four starts
    below the default precision at a seeded t in [10, t_max]."""
    block = range(SLICE_LO, SLICE_HI)
    cycles = len(block) // 2
    # same generator and call as the CLI, so any prefix of the draws is
    # the set the CLI samples for that count
    samples = random.Random(seed).sample(range(SLICE_HI + 1, t_max + 1), cycles)
    rng = random.Random("capped:%d" % seed)
    caps = capped_precisions(default_bits)
    items: List[Item] = []
    for i in range(cycles):
        items.append(("reduce", block[2 * i], None))
        items.append(("reduce", samples[i], None))
        items.append(("reduce", block[2 * i + 1], None))
        items.append(("capped", rng.randrange(SLICE_LO, t_max + 1), caps[i % 2]))
    return items


def sweep_slice(seed: int, t_max: int, default_bits: int) -> List[Item]:
    """The default-precision items of `reduce_slice`, in the same order."""
    return [it for it in reduce_slice(seed, t_max, default_bits)
            if it[0] == "reduce"]


def sweep_arguments(items: List[Item]) -> Tuple[int, int]:
    """(t_hi, samples) such that `cubicthue sweep --t-lo 10 --t-hi t_hi
    --samples samples --seed <seed>` covers exactly a prefix of
    `sweep_slice`."""
    ts = [t for _, t, _ in items]
    in_block = [t for t in ts if t < SLICE_HI]
    if in_block != list(range(SLICE_LO, SLICE_LO + len(in_block))):
        raise ValueError("not a prefix of the sweep slice")
    return SLICE_LO + len(in_block) - 1, len(ts) - len(in_block)


def kappa_slice(seed: int) -> List[Item]:
    """Repeats [kappa, kappa, kappa, recover].  The first kappa items are
    the fixed points 10^3..10^6 and 576241, then seeded t in [10, 2000];
    the recover items cycle through seeded orders of [2, 100]."""
    rng = random.Random("kappa:%d" % seed)
    drawn = [t for t in range(SLICE_LO, SLICE_HI + 1) if t not in KAPPA_FIXED]
    rng.shuffle(drawn)
    kappa_ts = list(KAPPA_FIXED) + drawn
    cycles = len(kappa_ts) // 3
    recover_ts: List[int] = []
    while len(recover_ts) < cycles:
        perm = list(range(RECOVER_LO, RECOVER_HI + 1))
        rng.shuffle(perm)
        recover_ts.extend(perm)
    items: List[Item] = []
    for i in range(cycles):
        items.extend(("kappa", t, None) for t in kappa_ts[3 * i:3 * i + 3])
        items.append(("recover", recover_ts[i], None))
    return items


def search_bounded(seed: int, rounds: int = 40) -> List[Item]:
    """Rounds over all of [-30, 30] \\ {0, 1}, t = -1 (the one extra
    solution) opening the first round.  Each round takes one t from each
    |t| quartile in turn, so any prefix holds small and large |t| (cheap
    and dear searches) in equal shares."""
    rng = random.Random("search:%d" % seed)
    by_size = sorted(THEOREM_TS, key=abs)
    n = len(by_size)
    quartiles = [by_size[k * n // 4:(k + 1) * n // 4] for k in range(4)]
    items: List[Item] = []
    for r in range(rounds):
        groups = [rng.sample(q, len(q)) for q in quartiles]
        order = [g[i] for i in range(max(map(len, groups)))
                 for g in rng.sample(groups, 4) if i < len(g)]
        if r == 0:
            order.remove(-1)
            order.insert(0, -1)
        items.extend(("theorem", t, THEOREM_Y_BOUND) for t in order)
    return items
