"""Seeded input generation of the benchmark: the same seed gives the same
lists; another seed gives different lists with the same size, kind mix
and capped-precision share."""

import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import seeded_inputs as si  # noqa: E402

T_MAX = 576241
BITS = 540


def _lists(seed):
    return {
        "reduce-slice": si.reduce_slice(seed, T_MAX, BITS),
        "cli-sweep": si.sweep_slice(seed, T_MAX, BITS),
        "kappa-slice": si.kappa_slice(seed),
        "search-bounded": si.search_bounded(seed),
    }


@pytest.mark.parametrize("workload", ["reduce-slice", "cli-sweep", "kappa-slice",
                                      "search-bounded"])
def test_seed_determines_items(workload):
    a, again, b = _lists(3)[workload], _lists(3)[workload], _lists(4)[workload]
    assert a == again
    assert a != b
    assert len(a) == len(b)
    assert Counter(k for k, _, _ in a) == Counter(k for k, _, _ in b)
    # every prefix a timed window may stop at holds the same mix
    for n in (4, 40, 400):
        assert Counter(k for k, _, _ in a[:n]) == Counter(k for k, _, _ in b[:n])


def test_engine_receives_only_ints():
    for items in _lists(5).values():
        for kind, t, arg in items:
            assert kind in ("reduce", "capped", "kappa", "recover", "theorem")
            assert t is None or type(t) is int
            assert arg is None or type(arg) is int


def test_capped_share_and_precisions():
    for seed in (1, 2):
        items = si.reduce_slice(seed, T_MAX, BITS)
        capped = [it for it in items if it[0] == "capped"]
        assert len(capped) * 4 == len(items)
        assert {bits for _, _, bits in capped} == set(si.capped_precisions(BITS))
        assert all(bits < BITS for _, _, bits in capped)
        assert all(si.SLICE_LO <= t <= T_MAX for _, t, _ in capped)


def test_sweep_prefix_matches_cli_sampling():
    """A prefix of the default items is exactly what `cubicthue sweep
    --t-lo 10 --t-hi ... --samples ... --seed <seed>` sweeps."""
    seed = 7
    items = si.sweep_slice(seed, T_MAX, BITS)
    for n in (1, 2, 5, 60, 301):
        t_hi, samples = si.sweep_arguments(items[:n])
        cli_ts = set(range(si.SLICE_LO, t_hi + 1)) | set(
            random.Random(seed).sample(range(si.SLICE_HI + 1, T_MAX + 1), samples))
        assert cli_ts == {t for _, t, _ in items[:n]}
    with pytest.raises(ValueError):
        si.sweep_arguments(items[1:3])


def test_fixed_points_always_lead():
    for seed in (1, 2):
        kappa = si.kappa_slice(seed)
        kappa_ts = [t for k, t, _ in kappa if k == "kappa"]
        assert tuple(kappa_ts[:5]) == si.KAPPA_FIXED
        assert len(set(kappa_ts)) == len(kappa_ts)
        assert all(si.RECOVER_LO <= t <= si.RECOVER_HI
                   for k, t, _ in kappa if k == "recover")
        search = si.search_bounded(seed)
        assert search[0] == ("theorem", -1, si.THEOREM_Y_BOUND)
        assert sorted(t for _, t, _ in search[:59]) == sorted(si.THEOREM_TS)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    for key, table in (("end_to_end", workloads.END_TO_END),
                       ("per_layer", workloads.PER_LAYER)):
        assert tuple((m["name"], m["unit"]) for m in spec[key]) == table
