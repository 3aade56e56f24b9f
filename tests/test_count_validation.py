"""One positive-integer rule for every count the package takes.

A bool is rejected though Python counts it an int (True would pass as 1),
a numpy integer is accepted as the int it holds, and anything else, a
float among them, is an InputError rather than a bare TypeError.
"""

import io
import json

import numpy as np
import pytest

from bdris.architecture import KIND_SINGLE, ArchitectureSpec, parse_arch
from bdris.channel import ChannelPair, Rng, gen_los, gen_rayleigh, read_channel_json
from bdris.errors import InputError, check_count
from bdris.optimize import brute_force_power_search

REJECTED = (True, False, 0, -3, 4.0, "4", None)


def read_n(n):
    doc = {"n": n, "h_r": [[1.0, 0.0]] * 4, "h_t": [[0.0, 1.0]] * 4}
    return read_channel_json(io.StringIO(json.dumps(doc))).n


def search_budget(budget):
    pair = ChannelPair(np.array([1.0 + 0j, 1j]), np.array([1j, 1.0 + 0j]))
    return brute_force_power_search(pair, ArchitectureSpec(KIND_SINGLE, 2), budget=budget,
                                    rng=Rng(0)).evaluations


CALLERS = {
    "check_count": lambda n: check_count(n, "count"),
    "ArchitectureSpec": lambda n: ArchitectureSpec(KIND_SINGLE, n).n,
    "parse_arch": lambda n: parse_arch("gc:2", n).n,
    "gen_rayleigh": lambda n: gen_rayleigh(n, Rng(1)).n,
    "gen_los": lambda n: gen_los(n, Rng(1)).n,
    "brute_force_budget": search_budget,
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
@pytest.mark.parametrize("value", REJECTED, ids=repr)
def test_non_counts_are_input_errors(caller, value):
    with pytest.raises(InputError):
        CALLERS[caller](value)


@pytest.mark.parametrize("caller", sorted(CALLERS))
@pytest.mark.parametrize("value", (4, np.int64(4), np.uint8(4)), ids=repr)
def test_numpy_integers_are_counts(caller, value):
    assert CALLERS[caller](value) == 4


def test_counts_are_stored_as_int():
    assert type(check_count(np.int64(4), "count")) is int
    assert type(ArchitectureSpec(KIND_SINGLE, np.int64(4)).n) is int
    assert ArchitectureSpec(KIND_SINGLE, np.int64(4)) == ArchitectureSpec(KIND_SINGLE, 4)


@pytest.mark.parametrize("value", (True, 0, 4.0, "4", None), ids=repr)
def test_channel_json_n_is_a_count(value):
    assert read_n(4) == 4
    with pytest.raises(InputError, match='"n" must be a positive integer'):
        read_n(value)
