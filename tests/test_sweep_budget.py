"""Where a budget stops a sweep.

A sweep's budget pays for the root, then for each lattice node before its
orbit test and its settle, then all the nodes of each subtree a prefix
cut, and for each search node inside a region.  These pins record, for
sweeps the budget stops partway (or just lets finish), the values
witnessed, a digest of their points and every counter of the stats, so
that a change to the order in which the walk or the region search spends
the budget shows here.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from invsp.affinefamily import build_coefficient_family
from invsp.groups import GroupSpec
from invsp.sweep import run_l0_sweep

STAT_FIELDS = ("nodes", "lp_calls", "regions_total", "regions_explored", "regions_infeasible",
               "leaves", "pivots", "pruned_box", "pruned_window", "pruned_orbit")

G7_ORTHANT = [17, 29, 30, 32, 33, 37, 38, 39, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51]

# (group, degree of H, orthant, budget): (witnessed values, exhaustive,
# digest of the witness points, stats in STAT_FIELDS order)
PINS = {
    ("gamma7", 4, True, 200): (
        G7_ORTHANT, True, "8f1f588fad8f09a2", (75, 42, 9, 9, 0, 18, 80, 2, 0, 9)),
    ("gamma7", 4, True, 1000): (
        G7_ORTHANT, True, "8f1f588fad8f09a2", (75, 42, 9, 9, 0, 18, 80, 2, 0, 9)),
    ("gamma7", 4, False, 200): (
        [17, 27, 29, 30, 32, 33, 35, 36, 37, 38, 39, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51],
        False, "e82dc0b2c6e265e9", (165, 181, 10, 10, 0, 26, 232, 0, 0, 8)),
    ("gamma7", 4, False, 1000): (
        [17, 27, 29, 30, 32, 33, 35, 36, 37, 38, 39, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50,
         51],
        False, "1639a853093e759b", (955, 816, 12, 12, 0, 27, 1251, 0, 0, 12)),
    ("scalar:2:2", 4, True, 1000): (
        [3, 5, 6, 7, 8, 9, 10, 11, 12, 13],
        False, "c16139549fc97504", (50, 25, 42, 42, 0, 10, 42, 43, 0, 0)),
    ("scalar:2:2", 4, False, 1000): (
        [3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
        False, "c85f0e65adc98fdc", (32, 18, 549, 549, 0, 12, 51, 0, 0, 0)),
}


def group(name):
    return GroupSpec.gamma7() if name == "gamma7" else GroupSpec.scalar(2, 2)


@pytest.mark.parametrize(
    "key", list(PINS),
    ids=lambda k: f"{k[0]}-h{k[1]}-{'orthant' if k[2] else 'free'}-budget-{k[3]}",
)
def test_budget_stops_the_sweep_where_pinned(key):
    name, h_degree, orthant, budget = key
    values, exhaustive, digest, stats = PINS[key]
    fam = build_coefficient_family(group(name), h_degree, "signed")
    rep = run_l0_sweep(fam, orthant=orthant, budget=budget)
    points = json.dumps(rep.to_json_dict()["achievable"], sort_keys=True)
    assert sorted(rep.achievable) == values
    assert rep.exhaustive is exhaustive
    assert hashlib.sha256(points.encode()).hexdigest()[:16] == digest
    assert asdict(rep.stats) == dict(zip(STAT_FIELDS, stats))
