"""Workload plans: the CLI argument lists each workload sends to charsum.

A plan is a list of argv lists for ``charsum.cli.main`` (without ``--out``,
which the round runner appends).  Plans depend only on the workload name and
the seed, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import random

from checks import _phi

WORKLOADS = ("sweep-tables", "sweep-aux", "query-point")

# Table-heavy sweeps.  The bound4 ranges keep the composite moduli with many
# non-unit rows (128, 144, 150) and the nine imprimitive violators at 125;
# all ranges are cut from the _WINDOWS maxima so that one round takes a few
# seconds on a 2-CPU machine and a run holds enough rounds for a steady median.
TABLE_SWEEPS = (
    ("bound4", "125..128"),
    ("bound4", "144..144"),
    ("bound4", "148..150"),
    ("theorem1", "140..160"),
    ("vanishing", "90..100"),
    ("multiplicativity", "94..100"),
)

# Auxiliary sweeps.  lemma1 and pairsum keep their full _WINDOWS ranges, so
# the lemma1 report stays at about 4 MB; the others are cut as above.
AUX_SWEEPS = (
    ("lemma1", "1..150"),
    ("lemma3", "1..40"),
    ("pairsum", "1..60"),
    ("lemma4", "1..150"),
    ("bound5", "3..60"),
    ("theorem2", "3..60"),
)

# Point queries: a fixed-length closed-loop stream, one client.  There is no
# record of real request traffic, so the mix is an assumption built from simple
# rules: every kind named for this workload gets an equal share;
# half of each kind's moduli come from a hot set and half are spread evenly
# over 3..QUERY_Q_MAX; --chi is drawn uniformly from its valid values (each
# character index, or "all"), except that k2 always takes one character.
QUERY_COUNT = 1500
QUERY_Q_MAX = 300
QUERY_KINDS = ("lambda", "interval", "gauss", "k2", "pairsum", "srsum")
# The composite moduli with many non-unit rows that the sweeps also keep.
HOT_MODULI = (128, 144, 150)


def _divisors(q: int) -> list[int]:
    return [d for d in range(1, q + 1) if q % d == 0]


def _request(rng: random.Random, kind: str, q: int, chi: str) -> list[str]:
    argv = ["compute", "lambda" if kind == "interval" else kind, "--q", str(q), "--chi", chi]
    if kind == "lambda":
        argv += ["--m", str(rng.randrange(q)), "--n", str(rng.randrange(q))]
    elif kind == "interval":
        argv += ["--m", str(rng.randrange(q)), "--n", str(rng.randrange(q))]
        argv += ["--start", str(rng.randrange(q)), "--length", str(rng.randint(1, q))]
    elif kind == "gauss":
        argv += ["--n", str(rng.randrange(q))]
    elif kind == "pairsum":
        argv += ["--y", str(rng.randrange(q)), "--ell", str(rng.choice(_divisors(q)))]
    return argv


def _queries(rng: random.Random) -> list[list[str]]:
    """The request stream.

    Each kind gets an equal share of the stream.  Half of a kind's requests
    go to the hot moduli, spread evenly over them; the other half go to the
    midpoints of equal-width strata of 3..QUERY_Q_MAX.  The moduli are the
    same for every seed: the cost of k2, which sets the tail, jumps between
    neighbouring q (it grows with the number of non-unit rows), so drawn
    moduli would make p99 depend on the seed.  The seed draws the
    characters, the sums' arguments and the order of the requests.
    """
    count = QUERY_COUNT // len(QUERY_KINDS)
    hot = count // 2
    width = (QUERY_Q_MAX - 2) / (count - hot)
    moduli = [HOT_MODULI[i % len(HOT_MODULI)] for i in range(hot)]
    moduli += [3 + int((i + 0.5) * width) for i in range(count - hot)]
    requests = []
    for kind in QUERY_KINDS:
        for q in moduli:
            # k2 takes one character: --chi all would cost seconds per request
            # and repeat the per-character loop that sweep-tables already times.
            phi = _phi(q)
            index = rng.randrange(phi if kind == "k2" else phi + 1)
            chi = "all" if index == phi else str(index)
            requests.append(_request(rng, kind, q, chi))
    rng.shuffle(requests)
    return requests


def make_plan(workload: str, seed: int) -> list[list[str]]:
    """The ordered CLI invocations of one round of `workload`."""
    if workload == "sweep-tables":
        return [
            ["verify", check, "--q-range", qr, "--seed", str(seed)]
            for check, qr in TABLE_SWEEPS
        ]
    if workload == "sweep-aux":
        plan = [
            ["verify", check, "--q-range", qr, "--seed", str(seed)]
            for check, qr in AUX_SWEEPS
        ]
        plan.append(["bilinear", "--seed", str(seed)])
        return plan
    if workload == "query-point":
        return _queries(random.Random(f"query-point:{seed}"))
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
