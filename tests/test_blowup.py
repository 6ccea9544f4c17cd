"""Surface Riemann-Roch: blow-up bookkeeping and the degree-one count."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import shq
from shq.blowup import (
    SurfaceRing,
    blow_up,
    obstruction_bundle_degree,
    product_of_lines,
    pulled_back_constraint,
    universal_curve,
)
from shq.localization import fixed_point_integral, localize_entry, sample_weights

from oracles import kunneth_chi, noether_chi_trivial

# the projective plane, as test data: one hyperplane class h with h^2 = 1
PROJECTIVE_PLANE = SurfaceRing(labels=("h",), form=((1,),), canonical=(-3,), euler=3)


def test_product_of_lines_basics():
    s = product_of_lines()
    assert s.rank == 2 and s.euler == 4
    assert s.k_squared() == 8
    assert s.chi_structure_sheaf() == 1


def test_projective_plane_noether():
    s = PROJECTIVE_PLANE
    assert s.k_squared() == 9
    assert s.chi_structure_sheaf() == 1
    # chi(O(d)) = (d+1)(d+2)/2
    for d in range(-4, 5):
        assert s.chi_sheaf((d,)) == Fraction((d + 1) * (d + 2), 2)


def test_blow_up_bookkeeping():
    s = blow_up(PROJECTIVE_PLANE, 1)
    assert s.labels == ("h", "e1")
    assert s.form == ((1, 0), (0, -1))
    assert s.canonical == (-3, 1)
    assert s.euler == 4
    assert s.k_squared() == 8


@pytest.mark.parametrize(
    "form, canonical",
    [
        (((0, 1),), (0, 0)),  # one row for two labels
        (((0, 1), (1,)), (0, 0)),  # ragged row
        (((0, 1), (1, 0)), (0,)),  # canonical class too short
        (((0, 1), (2, 0)), (0, 0)),  # not symmetric
    ],
    ids=["rows", "ragged", "canonical", "asymmetric"],
)
def test_malformed_surface_rejected(form, canonical):
    with pytest.raises(ValueError):
        SurfaceRing(("a", "b"), form, canonical, 4)


def test_asymmetric_form_rejected_under_optimize():
    # python -O strips asserts; the checks must survive it
    code = (
        "from shq.blowup import SurfaceRing\n"
        "SurfaceRing(('a', 'b'), ((0, 1), (2, 0)), (0, 0), 4)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shq.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "ValueError: form must be symmetric" in proc.stderr


def test_blow_up_zero_points_is_identity():
    s = product_of_lines()
    assert blow_up(s, 0) == s


@pytest.mark.parametrize("k", range(0, 6))
def test_blow_up_invariants(k):
    for base in (product_of_lines(), PROJECTIVE_PLANE):
        s = blow_up(base, k)
        assert s.rank == base.rank + k
        assert s.k_squared() == base.k_squared() - k
        assert s.euler == base.euler + k
        # chi(O) is a birational invariant
        assert s.chi_structure_sheaf() == base.chi_structure_sheaf() == 1
        assert s.chi_structure_sheaf() == noether_chi_trivial(s.k_squared(), s.euler)


def test_intersection_symmetric_bilinear():
    rng = random.Random(3)
    s = universal_curve()
    for _ in range(50):
        x = tuple(rng.randint(-4, 4) for _ in range(4))
        y = tuple(rng.randint(-4, 4) for _ in range(4))
        z = tuple(rng.randint(-4, 4) for _ in range(4))
        assert s.intersect(x, y) == s.intersect(y, x)
        xy = tuple(a + b for a, b in zip(x, y))
        assert s.intersect(xy, z) == s.intersect(x, z) + s.intersect(y, z)


def test_kunneth_chi_on_product():
    s = product_of_lines()
    for a in range(0, 5):
        for b in range(0, 5):
            assert s.chi_sheaf((a, b)) == kunneth_chi(a, b)


def test_universal_curve_integrals():
    c = universal_curve()
    z = pulled_back_constraint()
    assert c.euler == 6
    assert c.k_squared() == 6
    assert c.intersect(z, z) == 2
    assert c.intersect(z, c.canonical) == 4
    assert c.chi_sheaf(z) == 0


def test_chi_integrality_random_classes():
    rng = random.Random(9)
    c = universal_curve()
    for _ in range(20):
        z = tuple(rng.randint(-5, 5) for _ in range(4))
        assert c.chi_sheaf(z).denominator == 1


def test_class_length_checked():
    with pytest.raises(ValueError):
        universal_curve().intersect((1, 0), (0, 1, 0, 0))


def test_obstruction_degree_matches_fixed_point_sum():
    assert obstruction_bundle_degree() == 1
    # the raw pushforward degree is the fixed-point integral, and the
    # dual orientation matches the localized count
    w = sample_weights(1, 4)
    assert -obstruction_bundle_degree() == fixed_point_integral(1, 1, 0, w)
    assert obstruction_bundle_degree() == localize_entry(1, 1, 0, w)
