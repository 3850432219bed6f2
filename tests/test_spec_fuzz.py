"""Hypothesis fuzz of spec loading and option checking through cli.main.

Every malformed value of a spec key, every --tol that is not a finite
positive float and every --seed that is not an integer exits 2 with a named
invariant in the JSON error report; nothing raises.  Options are passed as
two tokens, so a value such as -1e-05 or -inf reaches argparse as what looks
like a flag.  Every integer is a valid --seed, so seeds are drawn from all
integers, beyond 64 bits included, alongside the malformed specs.
"""
from __future__ import annotations

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feqlab import cli
from feqlab.errors import InvariantViolation

N = 4
VALID = {
    "order": N,
    "cayley": [(i + j) % N for i in range(N) for j in range(N)],
    "involution": [0, 3, 2, 1],
    "measure": [{"point": 1, "re": 1.0, "im": 0.0}],
    "labels": ["e", "a", "a2", "a3"],
}


def named_invariants(cls=InvariantViolation) -> set[str]:
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub.invariant} | named_invariants(sub)
    return out


NAMED = named_invariants() - {InvariantViolation.invariant}

junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
not_an_element = junk.filter(lambda v: not (type(v) is int and 0 <= v < N))


def one_entry_replaced(valid: list, bad: st.SearchStrategy) -> st.SearchStrategy:
    def replace(index_and_value):
        i, v = index_and_value
        return valid[:i] + [v] + valid[i + 1:]

    return st.tuples(st.integers(0, len(valid) - 1), bad).map(replace)


def weight(re, im=0.0):
    return {"point": 1, "re": re, "im": im}


bad_atom = (
    junk
    | st.fixed_dictionaries({"point": not_an_element, "re": st.just(1.0), "im": st.just(0.0)})
    | st.builds(weight, junk.filter(lambda v: type(v) not in (int, float)))
    # zero, non-finite, or a total variation outside [1e-50, 1e50]
    | st.builds(weight, st.floats().filter(lambda x: not 1e-50 <= abs(x) <= 1e50))
)

MALFORMED = {
    "order": junk.filter(lambda v: not (type(v) is int and v == N)),
    "cayley": junk
    | one_entry_replaced(VALID["cayley"], not_an_element)
    | st.lists(st.integers(0, N - 1), max_size=20).filter(lambda t: len(t) != N * N),
    # Z4 has no involutive anti-automorphism besides the identity and negation
    "involution": junk
    | one_entry_replaced(VALID["involution"], not_an_element)
    | st.permutations(range(N)).filter(lambda p: p not in ([0, 1, 2, 3], [0, 3, 2, 1])),
    "measure": junk
    | one_entry_replaced(VALID["measure"], bad_atom)
    | st.just([weight(1.0), weight(-1.0)]),
    "labels": junk.filter(lambda v: v is not None)
    | one_entry_replaced(VALID["labels"], junk.filter(lambda v: not isinstance(v, str))),
}

COMMANDS = [["validate"], ["chars"], ["verify-theorems"]] + [
    ["solve", kind, *extra]
    for kind in ("vanvleck", "kannappan", "dalembert")
    for extra in ([], ["--oracle"])
]


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


def run(spec_path, spec, command, options=()):
    spec_path.write_text(json.dumps(spec))
    argv = [command[0], *command[1:2], str(spec_path), *command[2:], *options]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    key=st.sampled_from(sorted(MALFORMED)),
    data=st.data(),
    command=st.sampled_from(COMMANDS),
    seed=st.integers(),
)
def test_malformed_spec_value_exits_2(spec_path, key, data, command, seed):
    spec = dict(VALID, **{key: data.draw(MALFORMED[key], label=key)})
    seeded = command[0] == "verify-theorems" or "--oracle" in command
    code, out = run(spec_path, spec, command, ["--seed", str(seed)] if seeded else [])
    assert code == 2
    assert json.loads(out)["error"]["invariant"] in NAMED


@settings(max_examples=100, deadline=None)
@given(
    spec=junk.filter(lambda v: not isinstance(v, dict))
    | st.sampled_from(["order", "cayley", "involution", "measure"]).map(
        lambda key: {k: v for k, v in VALID.items() if k != key}
    ),
    command=st.sampled_from(COMMANDS),
)
def test_malformed_spec_shape_exits_2(spec_path, spec, command):
    code, out = run(spec_path, spec, command)
    assert code == 2
    assert json.loads(out)["error"]["invariant"] == "spec format"


@settings(max_examples=100, deadline=None)
@given(
    tol=st.floats().filter(lambda t: not (math.isfinite(t) and t > 0)).map(repr)
    | st.sampled_from(["1e-400", "-0.0", "nan", "-inf"]),
    command=st.sampled_from([c for c in COMMANDS if c[0] != "validate"]),
)
def test_bad_tol_exits_2(spec_path, tol, command):
    code, out = run(spec_path, VALID, command, ["--tol", tol])
    assert code == 2
    assert json.loads(out)["error"]["invariant"] == "option value"


def not_an_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


@settings(max_examples=100, deadline=None)
@given(
    seed=st.text(max_size=6).filter(not_an_int)
    | st.floats().map(repr)
    | st.sampled_from(["", " ", "0x10", "1e3", "--oracle", "-h"]),
    command=st.sampled_from(
        [c for c in COMMANDS if c[0] == "verify-theorems" or "--oracle" in c]
    ),
)
def test_bad_seed_exits_2(spec_path, seed, command):
    code, out = run(spec_path, VALID, command, ["--seed", seed])
    assert code == 2
    assert json.loads(out)["error"]["invariant"] == "option value"
