"""Seeded workload generation: instance specs and request decks.

Cayley tables are built here with plain numpy, independently of the program
under test, and written as spec files.  The program only ever sees those
files.  A workload is a *round*: a fixed multiset of requests whose order,
oracle seeds and (on ladder-construct) measures come from the seed.  The
timed loop runs whole rounds, so every run of a workload measures the same
mix of request shapes whatever the seed.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import permutations

import numpy as np

WORKLOADS = ("corpus-mix", "ladder-oracle", "ladder-construct")
KINDS = ("vanvleck", "kannappan", "dalembert")


# ---------------------------------------------------------------------------
# Cayley tables (element order matches the program's builders, so that the
# corpus below is the test grid element for element)

def cyclic(n: int) -> np.ndarray:
    i = np.arange(n)
    return (i[:, None] + i[None, :]) % n


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairs (i, j) are labelled i*|b| + j."""
    na, nb = len(a), len(b)
    t = a[:, None, :, None] * nb + b[None, :, None, :]
    return t.reshape(na * nb, na * nb)


def power_of_z2(k: int) -> np.ndarray:
    t = cyclic(2)
    for _ in range(k - 1):
        t = product(t, cyclic(2))
    return t


def symmetric3() -> np.ndarray:
    perms = list(permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    return np.array(
        [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    )


def monogenic(index: int, period: int) -> np.ndarray:
    n = index + period - 1
    t = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            e = a + b + 2
            if e > n:
                e = index + (e - index) % period
            t[a, b] = e - 1
    return t


def center(t: np.ndarray) -> list[int]:
    return [int(z) for z in np.flatnonzero((t == t.T).all(axis=1))]


def group_inverse(t: np.ndarray) -> list[int] | None:
    """Inversion map of a group table, or None when t is not a group."""
    n = len(t)
    ids = [e for e in range(n) if (t[e] == np.arange(n)).all() and (t[:, e] == np.arange(n)).all()]
    if not ids:
        return None
    e = ids[0]
    inv = []
    for x in range(n):
        hits = np.flatnonzero((t[x] == e) & (t[:, x] == e))
        if hits.size != 1:
            return None
        inv.append(int(hits[0]))
    return inv


# ---------------------------------------------------------------------------
# instances and requests

@dataclass(frozen=True)
class Spec:
    name: str
    cayley: np.ndarray
    involution: list[int]
    atoms: tuple[tuple[int, complex], ...]

    @property
    def order(self) -> int:
        return len(self.cayley)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "cayley": [int(v) for v in self.cayley.ravel()],
            "involution": [int(v) for v in self.involution],
            "measure": [
                {"point": int(z), "re": float(w.real), "im": float(w.imag)}
                for z, w in self.atoms
            ],
        }


@dataclass(frozen=True)
class Request:
    """One closed-loop request.  command is a CLI command, or "suites" for
    the library-only identity-suite request."""

    command: str
    spec: int
    kind: str | None = None
    oracle: bool = False
    seed: int | None = None

    @property
    def runs_oracle(self) -> bool:
        return self.oracle or self.command == "verify-theorems"

    def argv(self, path: str) -> list[str]:
        if self.command == "solve":
            argv = ["solve", self.kind, path]
            if self.oracle:
                argv += ["--oracle", "--seed", str(self.seed)]
            return argv
        if self.command == "verify-theorems":
            return ["verify-theorems", path, "--seed", str(self.seed)]
        return [self.command, path]

    def label(self, specs: list[Spec]) -> str:
        parts = [self.command, self.kind or "", "oracle" if self.oracle else ""]
        return " ".join(p for p in parts if p) + f" {specs[self.spec].name}"


@dataclass(frozen=True)
class Workload:
    name: str
    specs: list[Spec]
    round: list[Request]

    def write_specs(self, directory: str) -> list[str]:
        os.makedirs(directory, exist_ok=True)
        paths = []
        for i, spec in enumerate(self.specs):
            safe = "".join(c if c.isalnum() else "_" for c in spec.name)
            path = os.path.join(directory, f"{i:03d}-{safe}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec.to_json(), fh)
            paths.append(path)
        return paths


def _spread(shares: dict[str, float], count: int) -> list[str]:
    """Deterministic assignment of count slots to labels in the given
    shares: each slot goes to the label furthest behind its target (the
    first such label on ties)."""
    got = dict.fromkeys(shares, 0)
    out = []
    for i in range(count):
        pick = max(shares, key=lambda k: shares[k] * (i + 1) - got[k])
        got[pick] += 1
        out.append(pick)
    return out


def _oracle_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# corpus-mix: the test grid (9 semigroups x involutions x measure menu)

CORPUS_SEMIGROUPS = (
    ("Z2", lambda: cyclic(2)),
    ("Z3", lambda: cyclic(3)),
    ("Z4", lambda: cyclic(4)),
    ("Z6", lambda: cyclic(6)),
    ("Z2xZ2", lambda: product(cyclic(2), cyclic(2))),
    ("Z2xZ4", lambda: product(cyclic(2), cyclic(4))),
    ("S3", symmetric3),
    ("C21", lambda: monogenic(2, 1)),
    ("C22", lambda: monogenic(2, 2)),
)

CORPUS_SHARES = {"oracle": 0.60, "verify": 0.15, "construct": 0.25}
CONSTRUCT_FORMS = ("validate", "chars", "vanvleck", "kannappan", "dalembert")


def corpus_specs() -> list[Spec]:
    specs = []
    for sg_name, build in CORPUS_SEMIGROUPS:
        t = build()
        taus = {}
        inv = group_inverse(t)
        if inv is not None:
            taus["inv"] = inv
        if (t == t.T).all() and list(range(len(t))) not in taus.values():
            taus["id"] = list(range(len(t)))
        cen = center(t)
        menu = {f"d{z}": ((z, 1 + 0j),) for z in cen}
        if len(cen) >= 2:
            z1, z2 = cen[0], cen[1]
            menu[f"d{z1}+d{z2}"] = ((z1, 1 + 0j), (z2, 1 + 0j))
            menu[f"w{z1}{z2}"] = ((z1, 1 + 1j), (z2, 2 + 0j))
        for tau_name, tau in taus.items():
            for mu_name, atoms in menu.items():
                specs.append(Spec(f"{sg_name}/{tau_name}/{mu_name}", t, tau, atoms))
    return specs


def corpus_mix(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    specs = corpus_specs()
    classes = _spread(CORPUS_SHARES, len(specs))
    oracle_kinds = iter(_spread(dict.fromkeys(KINDS, 1.0), classes.count("oracle")))
    forms = iter(_spread(dict.fromkeys(CONSTRUCT_FORMS, 1.0), classes.count("construct")))
    deck = []
    for i, cls in enumerate(classes):
        if cls == "oracle":
            deck.append(Request("solve", i, next(oracle_kinds), True, _oracle_seed(rng)))
        elif cls == "verify":
            deck.append(Request("verify-theorems", i, seed=_oracle_seed(rng)))
        else:
            form = next(forms)
            if form in KINDS:
                deck.append(Request("solve", i, form))
            else:
                deck.append(Request(form, i))
    order = rng.permutation(len(deck))
    return Workload("corpus-mix", specs, [deck[k] for k in order])


# ---------------------------------------------------------------------------
# ladder-oracle: n = 8..16, where recall breaks down.  Two oracle kinds per
# instance, one per Z4xZ4 instance, so that the four n = 16 requests (about
# 5 s each) make up the top of the latency distribution.  Van Vleck at n = 16
# is left out: one request takes about 17 s, most of a round on its own.

def ladder_oracle(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    z4z4 = product(cyclic(4), cyclic(4))
    rows = (
        ("Z8/d2", cyclic(8), ((2, 1 + 0j),), ("vanvleck", "kannappan")),
        ("Z3xZ3/de", product(cyclic(3), cyclic(3)), ((0, 1 + 0j),), ("kannappan", "dalembert")),
        ("S3xZ2/de", product(symmetric3(), cyclic(2)), ((0, 1 + 0j),), ("kannappan", "dalembert")),
        ("Z2xZ6/d0+2d3", product(cyclic(2), cyclic(6)), ((0, 1 + 0j), (3, 2 + 0j)),
         ("kannappan", "dalembert")),
        ("Z13/d1", cyclic(13), ((1, 1 + 0j),), ("kannappan", "dalembert")),
        ("Z2^4/de", power_of_z2(4), ((0, 1 + 0j),), ("kannappan", "dalembert")),
        ("Z4xZ4/d(1,0)", z4z4, ((4, 1 + 0j),), ("kannappan",)),
        ("Z4xZ4/w", z4z4, ((0, 1 + 1j), (1, 2 + 0j)), ("dalembert",)),
    )
    specs = [Spec(name, t, group_inverse(t), atoms) for name, t, atoms, _ in rows]
    deck = [
        Request("solve", i, kind, True, _oracle_seed(rng))
        for i, (_, _, _, kinds) in enumerate(rows)
        for kind in kinds
    ]
    order = rng.permutation(len(deck))
    return Workload("ladder-oracle", specs, [deck[k] for k in order])


# ---------------------------------------------------------------------------
# ladder-construct: no oracle; enumeration and identity suites dominate.
# Z14, Z16 and Z2xZ8 are left out: enumerate_multiplicative does not finish
# on them within 120 s.  The seed varies the measures, never the tables: the
# enumeration order follows element labels, and a random relabelling of Z127
# runs for minutes.  The round has 5 cheap requests, 5 of about 0.35 s (all
# dominated by enumerating Z12 or Z3xZ4) and 4 long ones.  The nearest-rank
# p50 falls inside the middle group and the p90 on Z2^7 suites for any
# number of rounds, so neither sits on the edge between two costs.

CONSTRUCT_ROWS = (
    # name, table, atom count, requests
    ("Z8", lambda: cyclic(8), 1, ("validate",)),
    ("Z10", lambda: cyclic(10), 2, ("validate",)),
    ("Z12", lambda: cyclic(12), 1, ("vanvleck",)),
    ("Z12", lambda: cyclic(12), 2, ("kannappan",)),
    ("Z12", lambda: cyclic(12), 3, ("dalembert",)),
    ("Z12", lambda: cyclic(12), 4, ("kannappan",)),
    ("Z3xZ4", lambda: product(cyclic(3), cyclic(4)), 4, ("kannappan",)),
    ("S3xZ3", lambda: product(symmetric3(), cyclic(3)), 2, ("chars",)),
    ("Z2^4", lambda: power_of_z2(4), 3, ("suites",)),
    ("Z4xZ4", lambda: product(cyclic(4), cyclic(4)), 4, ("chars",)),
    ("Z2^6", lambda: power_of_z2(6), 1, ("validate",)),
    ("Z2^7", lambda: power_of_z2(7), 2, ("suites", "chars")),
    ("Z127", lambda: cyclic(127), 3, ("chars",)),
)


def _generic_weight(rng: np.random.Generator) -> complex:
    """A weight drawn from a continuous law, so that no measure integral of a
    character cancels by accident and family sizes do not depend on the seed."""
    r = rng.uniform(0.5, 2.0)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return complex(round(r * np.cos(theta), 6), round(r * np.sin(theta), 6))


def ladder_construct(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    specs, deck = [], []
    for i, (name, build, n_atoms, forms) in enumerate(CONSTRUCT_ROWS):
        t = build()
        cen = center(t)
        points = sorted(int(z) for z in rng.choice(cen, size=min(n_atoms, len(cen)), replace=False))
        atoms = tuple((z, _generic_weight(rng)) for z in points)
        specs.append(Spec(f"{name}/{len(atoms)}atoms", t, group_inverse(t), atoms))
        deck += [Request("solve", i, f) if f in KINDS else Request(f, i) for f in forms]
    order = rng.permutation(len(deck))
    return Workload("ladder-construct", specs, [deck[k] for k in order])


BUILDERS = {
    "corpus-mix": corpus_mix,
    "ladder-oracle": ladder_oracle,
    "ladder-construct": ladder_construct,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
