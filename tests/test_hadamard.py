"""Sign-orthogonal matrix enumeration and the one-seed generation theorem."""

import time

import numpy as np
import pytest

from foursplit import hadamard, networks
from foursplit.hadamard import (
    class_parity,
    enumerate_hadamard4,
    enumerate_sign_orthogonal,
    from_array,
    generate_class,
    realization_census,
    seed_matrix,
    sign_string,
    to_array,
)


def test_order_two_count():
    assert len(enumerate_sign_orthogonal(2)) == 8


@pytest.mark.parametrize("n", [0, 5])
def test_brute_force_order_outside_one_to_four_rejected(n):
    # n = 5 would sweep 2**25 patterns (~3.4 GB); the guard must stop it first
    with pytest.raises(ValueError, match="limited"):
        enumerate_sign_orthogonal(n)


def test_order_four_count():
    assert len(enumerate_hadamard4()) == 768


def _full_gram_brute_force(n):
    """Reference: every sign pattern as an (n, n) array, all Grams at once.
    Returns the passing patterns' indices (bit k set = entry k is -1) and
    their matrices."""
    count = 1 << (n * n)
    bits = (np.arange(count, dtype=np.uint32)[:, None] >> np.arange(n * n)) & 1
    signs = (1 - 2 * bits).astype(np.int16).reshape(count, n, n)
    gram = signs @ signs.transpose(0, 2, 1)
    ok = (gram == n * np.eye(n, dtype=np.int16)).all(axis=(1, 2))
    return np.flatnonzero(ok), signs[ok]


@pytest.mark.parametrize("n,size", [(1, 2), (2, 8), (3, 0), (4, 768)])
def test_enumeration_equals_full_gram_brute_force(n, size):
    keys, members = _full_gram_brute_force(n)
    assert len(keys) == size
    assert np.array_equal(enumerate_sign_orthogonal(n), keys)
    if n == 4:
        assert np.array_equal(hadamard.from_keys(keys), members)


def test_seed_is_member():
    assert seed_matrix() in enumerate_hadamard4()


def test_parity_split():
    classes = enumerate_hadamard4()
    even = sum(1 for h in classes if class_parity(h) == 0)
    assert even == 384
    assert len(classes) - even == 384


def test_row_parity_of_seed():
    # Rows of the seed carry 0 or 2 sign flips each: an even class member.
    assert class_parity(seed_matrix()) == 0


def test_generation_reproduces_enumeration():
    assert generate_class() == enumerate_hadamard4()


def test_generation_seed_independent():
    classes = sorted(enumerate_hadamard4())
    rng = np.random.default_rng(0)
    for idx in rng.choice(len(classes), size=10, replace=False):
        assert generate_class(seed=classes[idx]) == enumerate_hadamard4()


def test_generation_column_choice_independent():
    for col in (1, 2, 3, 4):
        assert generate_class(negate_column=col) == enumerate_hadamard4()


@pytest.mark.parametrize("negate_column", [1, 2, 3, 4])
def test_every_member_generates_the_class(negate_column):
    keys = enumerate_sign_orthogonal(4)
    members = hadamard.from_keys(keys)
    signs = np.ones((2, 4), dtype=np.int16)
    signs[1, negate_column - 1] = -1
    for chunk in np.split(members, 8):  # 96 seeds: a 2.4 MB int16 orbit per chunk
        orbit = hadamard.pack_keys(hadamard.signed_orbit(chunk, signs))
        assert (np.sort(orbit.reshape(len(chunk), -1), axis=1) == keys).all()


def test_signed_orbit_is_left_signed_perms_times_column_signs():
    rng = np.random.default_rng(1)
    mats = rng.choice([-1, 1], size=(3, 4, 4))
    column_signs = rng.choice([-1, 1], size=(5, 4))
    expected = np.einsum("lab,ibc,jc->iljac", hadamard._signed_row_perms(), mats, column_signs)
    orbit = hadamard.signed_orbit(mats, column_signs)
    assert orbit.shape == (3, 384, 5, 4, 4)
    assert np.array_equal(orbit, expected)


def test_array_round_trip():
    h = seed_matrix()
    assert from_array(to_array(h)) == h
    assert len(sign_string(h)) == 16


def test_non_orthogonal_rows_excluded():
    classes = enumerate_hadamard4()
    for h in list(classes)[:50]:
        arr = to_array(h)
        assert np.array_equal(arr @ arr.T, 4 * np.eye(4))


def test_realization_census_counts():
    start = time.monotonic()
    mats = [
        networks.BsNetwork.of(4, seq).matrix()
        for sequences in networks.physical_census().representatives.values()
        for seq in sequences
    ]
    assert len(mats) == 96
    census = realization_census(mats)
    elapsed = time.monotonic() - start
    assert census.total_products == 96 * 384 * 2 == 73728
    assert census.distinct_results == 768
    assert census.multiplicities == {96}
    assert elapsed < 60.0


def test_realized_set_equals_hadamard_class():
    mats = [
        networks.BsNetwork.of(4, seq).matrix()
        for sequences in networks.physical_census().representatives.values()
        for seq in sequences
    ]
    census = realization_census(mats)
    assert set(census.counts) == {sign_string(h) for h in enumerate_hadamard4()}


def test_signed_row_perms_is_one_read_only_orbit():
    from itertools import permutations, product

    orbit = hadamard._signed_row_perms()
    assert hadamard._signed_row_perms() is orbit
    with pytest.raises(ValueError):
        orbit[0, 0, 0] = 5
    # the loop construction it replaces, in the same order
    eye = np.eye(4, dtype=np.int16)
    loop = [
        np.diag(np.array(signs, dtype=np.int16)) @ eye[list(perm)]
        for perm in permutations(range(4))
        for signs in product((1, -1), repeat=4)
    ]
    assert np.array_equal(orbit, np.stack(loop))
