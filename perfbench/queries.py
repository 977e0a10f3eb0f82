"""Seeded inputs and the correctness oracle.

The workload seed chooses only the query texts and the write schedule;
the world is always the program's default one (seed 1999, 120 ads per
host), because ``WebBase.create`` fails on most other worlds.

Every seed runs the same number of queries of every shape over the same
makes and models: the seed deals the secondary parameters (zip code,
loan duration, refinement constants), the order and
the write schedule, which keeps the cost mix of a run nearly the same
from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.sites.dataset import CAR_CATALOG, CLASSIFIED_HOSTS, DEALER_HOSTS, NY_ZIPCODES

MODELS: dict[str, list[str]] = {}
for _make, _model, _price in CAR_CATALOG:
    MODELS.setdefault(_make, []).append(_model)
MAKES = sorted(MODELS)

#: name -> (text, refinement appended by a later read that narrows it).
#: single_site reads one site (the reliability ratings); make_model reads
#: every ad source; bluebook is Example 2.1's Jaguar query for any make;
#: financing joins ads with the finance site's rates.
TEMPLATES = {
    "single_site": (
        "SELECT make, model, safety WHERE make = '{make}' AND model = '{model}'",
        " AND safety IN ('good', 'excellent')",
    ),
    "make_model": (
        "SELECT make, model, year, price, contact "
        "WHERE make = '{make}' AND model = '{model}'",
        " AND year > {refine_year}",
    ),
    "bluebook": (
        "SELECT make, model, year, price, bb_price, safety, contact "
        "WHERE make = '{make}' AND year >= {year} AND condition = 'good' "
        "AND safety IN ('good', 'excellent') AND price < bb_price",
        " AND year > {refine_year}",
    ),
    "financing": (
        "SELECT make, model, price, rate "
        "WHERE make = '{make}' AND zip = '{zip}' AND duration = {duration}",
        " AND price < {refine_price}",
    ),
}

#: Sites a write may churn: the classified-ad and dealer sites built as
#: ``CarSite`` (usedcarmart is not one, so it cannot be mutated).
WRITE_HOSTS = sorted(set(CLASSIFIED_HOSTS + DEALER_HOSTS) - {"www.usedcarmart.com"})


def query_pool(seed: int) -> list[tuple[str, str]]:
    """The distinct (text, refinement) pairs of a run, in seeded order.

    single_site and make_model cover every (make, model) of the catalog;
    bluebook (with Example 2.1's 1993 threshold) and financing cover every
    make.  The seed deals the zip codes, loan durations and refinement
    constants: the heavy queries that set the tail are the same in every
    run, so the p95 does not move with the seed."""
    rng = random.Random("perfbench:pool:%d" % seed)
    cases = [("single_site", make, model) for make, model, _ in CAR_CATALOG]
    cases += [("make_model", make, model) for make, model, _ in CAR_CATALOG]
    cases += [("bluebook", make, None) for make in MAKES]
    cases += [("financing", make, None) for make in MAKES]
    pool = []
    for name, make, model in cases:
        text, refinement = TEMPLATES[name]
        params = {
            "make": make,
            "model": model,
            "year": 1993,
            "zip": rng.choice(NY_ZIPCODES),
            "duration": rng.choice((24, 36, 48, 60)),
            "refine_year": rng.randint(1994, 1997),
            "refine_price": rng.randrange(8000, 20000, 1000),
        }
        pool.append((text.format(**params), refinement.format(**params)))
    rng.shuffle(pool)
    return pool


def churn_reads(seed: int, pool: list[tuple[str, str]], count: int, refines: int):
    """``count`` read texts: pool queries in seeded cycles, each after the
    first two preceded by ``refines`` reads that narrow one of the three
    pool queries read before the latest one (a drill-down; with more than
    one connection the latest may still be in flight).  The share of
    drill-downs is the same in every run; the seed chooses which query
    each one narrows."""
    rng = random.Random("perfbench:reads:%d" % seed)
    order = list(pool)
    reads: list[str] = []
    issued: list[tuple[str, str]] = []
    while len(reads) < count:
        rng.shuffle(order)
        for base in order:
            if len(issued) >= 2:
                for _ in range(refines):
                    text, refinement = rng.choice(issued[-4:-1])
                    reads.append(text + refinement)
            issued.append(base)
            reads.append(base[0])
    return reads[:count]


#: Consecutive writes that go to the same site, so every site written in
#: a run has enough writes for a per-site median that shrugs off one
#: collector pause.
WRITES_PER_SITE = 3


def write_spec(seed: int, index: int) -> dict:
    """The ``index``-th write: new ads on one site plus one auto-absorbable
    change to its search form (see ``repro.sites.world.mutate_site_listings``).

    The sites come in the same order in every run and the seed deals only
    the ads: a write to a site that most queries read (newsday) makes
    every later round refetch, so where it falls in the run would
    otherwise set the run's cost."""
    rng = random.Random("perfbench:write:%d:%d" % (seed, index))
    make = rng.choice(MAKES)
    site = index // WRITES_PER_SITE % len(WRITE_HOSTS)
    return {
        "host": WRITE_HOSTS[site],
        "make": make,
        "model": rng.choice(MODELS[make]),
        "count": 3,
        "seed": index,
        "change": "auto",
    }


def digest(schema, rows) -> str:
    """Order- and duplicate-insensitive digest of an answer, equal for a
    ``Relation`` and for the same rows after a JSON round trip."""
    canon = sorted({json.dumps(list(row)) for row in rows})
    # A streamed empty answer carries no schema (it has no pages).
    payload = json.dumps([list(schema) if canon else [], canon])
    return hashlib.sha1(payload.encode()).hexdigest()
