"""Every public producer of a mass function yields a Bpa that cannot change.

A Bpa holds its masses in a tuple of 32 floats that it built itself, so no
list, array or dict the caller keeps (nor the base array of a slice) is
shared with it, ``vector`` cannot be rebound, and there is no writable
store behind it to re-flag.
"""

import json

import numpy as np
import pytest

from evicrit.core import (
    FULL_SET,
    SLOTS,
    Bpa,
    Subset,
    bpa_from_dict,
    unit_normalized,
    vacuous,
    validate_bpa,
)
from evicrit.evidence import (
    average_bpas,
    brute_force_combine,
    dempster_combine,
    murphy_combine,
)
from evicrit.fuzzy import membership, to_bpa
from evicrit.pipeline import load_bpa_fixtures

H = Subset.from_names(["H"])
MH = Subset.from_names(["M", "H"])


def _no_change():
    pass


def from_array(tmp_path):
    v = np.zeros(SLOTS)
    v[FULL_SET.bits] = 1.0
    b = Bpa(v)

    def mutate():
        v.setflags(write=True)
        v[FULL_SET.bits] = 7.0
    return b, mutate


def from_slice(tmp_path):
    base = np.zeros(2 * SLOTS)
    base[FULL_SET.bits] = 1.0
    b = Bpa(base[:SLOTS])

    def mutate():
        base[FULL_SET.bits] = 7.0
    return b, mutate


def from_list(tmp_path):
    masses = [0.0] * SLOTS
    masses[H.bits] = 1.0
    b = Bpa(masses)

    def mutate():
        masses[H.bits] = 7.0
    return b, mutate


def from_mapping(tmp_path):
    masses = {H: 0.25, FULL_SET: 0.75}
    b = Bpa(masses)

    def mutate():
        masses[H] = 7.0
        masses[MH] = 1.0
    return b, mutate


def from_unit_normalized(tmp_path):
    masses = [0.0] * SLOTS
    masses[H.bits] = 2.0
    masses[MH.bits] = 6.0
    b = unit_normalized(masses)

    def mutate():
        masses[H.bits] = 7.0
    return b, mutate


def from_vacuous(tmp_path):
    return vacuous(), _no_change


def from_bpa_from_dict(tmp_path):
    data = {"frame": ["M", "H"], "masses": [{"subset": ["H"], "mass": 0.5},
                                            {"subset": ["M", "H"], "mass": 0.5}]}
    b = bpa_from_dict(data)

    def mutate():
        data["masses"][0]["mass"] = 7.0
        data["masses"][0]["subset"].append("M")
    return b, mutate


def from_validate_bpa(tmp_path):
    # off by 5e-10, within MASS_SUM_TOL: renormalised into a new Bpa
    drifted = Bpa({H: 0.25, FULL_SET: 0.75 + 5e-10})
    b = validate_bpa(drifted)
    assert b is not drifted and b.total() == 1.0
    return b, _no_change


def from_load_bpa_fixtures(tmp_path):
    path = tmp_path / "fixtures.json"
    cell = {"frame": ["H"], "masses": [{"subset": ["H"], "mass": 1.0}]}
    path.write_text(json.dumps({"B1": cell}))
    fixtures = load_bpa_fixtures(path, ["B1"])

    def mutate():
        path.write_text("{}")
        fixtures["B1"] = vacuous()
    return fixtures["B1"], mutate


def from_to_bpa(tmp_path):
    return to_bpa(membership(6.3), alpha=0.8), _no_change


def _inputs():
    return [Bpa({H: 0.5, MH: 0.5}), Bpa({MH: 0.25, FULL_SET: 0.75}), vacuous()]


def from_average_bpas(tmp_path):
    inputs = _inputs()
    b = average_bpas(inputs)

    def mutate():
        inputs[0] = Bpa({FULL_SET: 7.0})
    return b, mutate


def from_dempster_combine(tmp_path):
    return dempster_combine(*_inputs()[:2]).bpa, _no_change


def from_murphy_combine(tmp_path):
    inputs = _inputs()
    b = murphy_combine(inputs).bpa

    def mutate():
        inputs[0] = Bpa({FULL_SET: 7.0})
    return b, mutate


def from_brute_force_combine(tmp_path):
    return brute_force_combine(*_inputs()[:2]).bpa, _no_change


PRODUCERS = [from_array, from_slice, from_list, from_mapping, from_unit_normalized,
             from_vacuous, from_validate_bpa, from_bpa_from_dict, from_load_bpa_fixtures,
             from_to_bpa, from_average_bpas, from_dempster_combine, from_murphy_combine,
             from_brute_force_combine]


@pytest.mark.parametrize("produce", PRODUCERS, ids=lambda f: f.__name__)
def test_no_producer_yields_a_writable_mass_store(produce, tmp_path):
    b, mutate = produce(tmp_path)
    vector = b.vector
    assert type(vector) is tuple and len(vector) == SLOTS
    assert all(type(m) is float for m in vector)
    snapshot = list(vector)
    with pytest.raises(AttributeError):
        b.vector = [7.0] * SLOTS
    with pytest.raises(AttributeError):
        del b.vector
    with pytest.raises(AttributeError):
        b.vector.setflags(write=True)
    np.asarray(b.vector)[:] = 7.0  # a copy: writing it leaves b alone
    mutate()
    assert b.vector is vector
    assert list(b.vector) == snapshot
