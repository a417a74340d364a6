import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from rfclutter import (
    CarrierSpec,
    RoomSpec,
    average_backscatter_ratio,
    clutter_integral_quadrature,
    fresnel_average_reflectivity,
    material_reflectivity,
    to_db,
)
from rfclutter.antennas import HPBW_TO_RMS
from rfclutter.config import load_config_tree, resolve_config
from rfclutter.core import SPEED_OF_LIGHT

DEFAULTS = resolve_config(load_config_tree(None))
WL28 = CarrierSpec(28e9).wavelength_m


def test_wavelength_values():
    assert CarrierSpec(28e9).wavelength_m == pytest.approx(0.010707, abs=5e-7)
    assert CarrierSpec(SPEED_OF_LIGHT).wavelength_m == 1.0
    assert CarrierSpec(3e9).wavelength_m == pytest.approx(0.099931, abs=5e-7)


def test_wavelength_rejects_nonpositive():
    with pytest.raises(ValueError):
        CarrierSpec(0.0)
    with pytest.raises(ValueError):
        CarrierSpec(-1e9)


def test_average_backscatter_reference_values():
    r = average_backscatter_ratio(1.5, 0.010707, 1.0)
    assert r == pytest.approx(3.23e-7, rel=2e-3)
    assert to_db(r) == pytest.approx(-64.9, abs=0.05)
    # doubling the wall distance quarters the ratio
    assert average_backscatter_ratio(3.0, 0.010707, 1.0) == pytest.approx(8.06e-8, rel=2e-3)
    assert average_backscatter_ratio(5.0, WL28, 0.0) == 0.0


def test_average_backscatter_scaling_law_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d, wl, g = rng.uniform(0.3, 20), rng.uniform(1e-3, 1.0), rng.uniform(0, 1)
        assert average_backscatter_ratio(2 * d, wl, g) == average_backscatter_ratio(d, wl, g) / 4


def test_average_backscatter_linear_in_reflectivity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d, wl = rng.uniform(0.3, 20), rng.uniform(1e-3, 1.0)
        g, a = rng.uniform(0, 0.5), rng.uniform(0, 2)
        assert average_backscatter_ratio(d, wl, a * g) == pytest.approx(
            a * average_backscatter_ratio(d, wl, g), rel=1e-12
        )


def test_average_backscatter_domain_errors():
    with pytest.raises(ValueError):
        average_backscatter_ratio(0.0, WL28, 1.0)
    with pytest.raises(ValueError):
        average_backscatter_ratio(1.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        average_backscatter_ratio(1.5, WL28, 1.5)
    # a nonzero reflectivity whose p0 is below the normal doubles
    with pytest.raises(ValueError, match="normal double"):
        average_backscatter_ratio(1.5, WL28, 1e-320)
    with pytest.raises(ValueError, match="normal double"):
        average_backscatter_ratio(1.5, 2.8e-153, 1.0)
    assert average_backscatter_ratio(1.5, 2.82e-153, 1.0) >= sys.float_info.min


def _fresnel_oracle(eps_r, n=200_000):
    # independent trapezoid quadrature of the TE Fresnel power coefficient
    theta = np.linspace(0.0, 0.5 * np.pi, n)
    cos_t, root = np.cos(theta), np.sqrt(eps_r - np.sin(theta) ** 2)
    r_te = ((cos_t - root) / (cos_t + root)) ** 2
    return np.trapezoid(r_te, theta) / (0.5 * np.pi)


@pytest.mark.parametrize("eps_r", [1.5, 3.0, 10.0], ids=lambda eps_r: f"{eps_r}-te")
def test_fresnel_matches_independent_quadrature(eps_r):
    assert fresnel_average_reflectivity(eps_r) == pytest.approx(_fresnel_oracle(eps_r), abs=2e-4)


def test_fresnel_reference_points():
    assert fresnel_average_reflectivity(1.0) == 0.0
    assert fresnel_average_reflectivity(3.0) == pytest.approx(0.25, abs=0.05)
    assert fresnel_average_reflectivity(1e6) > 0.99


def test_fresnel_monotone_and_bounded():
    grid = [1.0, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 1e4]
    vals = [fresnel_average_reflectivity(e) for e in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_fresnel_rejects_sub_unity_permittivity():
    with pytest.raises(ValueError):
        fresnel_average_reflectivity(0.9)


@pytest.mark.parametrize("hpbw_deg", [5.0, 10.0, 20.0])
def test_quadrature_agrees_with_closed_form(hpbw_deg):
    rms = math.radians(hpbw_deg * HPBW_TO_RMS)
    q = clutter_integral_quadrature(1.5, WL28, 1.0, rms, rms)
    closed = average_backscatter_ratio(1.5, WL28, 1.0)
    assert q == pytest.approx(closed, rel=0.02)


def test_quadrature_nearly_independent_of_beamwidth():
    rms10 = math.radians(10.0 * HPBW_TO_RMS)
    q10 = clutter_integral_quadrature(1.5, WL28, 1.0, rms10, rms10)
    q5 = clutter_integral_quadrature(1.5, WL28, 1.0, rms10 / 2, rms10 / 2)
    assert abs(q5 / q10 - 1.0) < 0.02


def test_quadrature_zero_reflectivity():
    rms = math.radians(10.0 * HPBW_TO_RMS)
    assert clutter_integral_quadrature(1.5, WL28, 0.0, rms, rms) == 0.0


def test_quadrature_scales_with_transmit_gain():
    rms = math.radians(10.0 * HPBW_TO_RMS)
    q1 = clutter_integral_quadrature(1.5, WL28, 1.0, rms, rms, g_t=1.0)
    q2 = clutter_integral_quadrature(1.5, WL28, 1.0, rms, rms, g_t=2.0)
    assert q2 == pytest.approx(2.0 * q1, rel=1e-12)


def _p0_db(room, carrier):
    ratio = average_backscatter_ratio(room.distance_to_wall_m, carrier.wavelength_m, room.gamma_sq)
    return float(to_db(ratio))


def test_predict_room_defaults_and_values():
    carrier = CarrierSpec(28e9)
    office = DEFAULTS.room  # 3 m x 3 m, metal
    assert office.distance_to_wall_m == 1.5
    assert _p0_db(office, carrier) == pytest.approx(-64.9, abs=0.05)

    cafeteria = replace(office, distance_to_wall_m=10.0)
    assert _p0_db(cafeteria, carrier) == pytest.approx(-81.4, abs=0.05)

    dull = _p0_db(replace(office, gamma_sq=0.25), carrier)
    assert dull == pytest.approx(-70.9, abs=0.05)
    assert dull == pytest.approx(_p0_db(office, carrier) + 10 * math.log10(0.25), abs=1e-9)


def test_predict_room_default_wall_distance_is_half_min_dimension():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w, l = rng.uniform(2, 40, size=2)
        tree = load_config_tree(None, {"room": {"width_m": w, "length_m": l}})
        assert resolve_config(tree).room.distance_to_wall_m == 0.5 * min(w, l)
    # a given d_s_m wins over the dimensions
    tree = load_config_tree(None, {"room": {"width_m": 8.0, "d_s_m": 2.5}})
    assert resolve_config(tree).room.distance_to_wall_m == 2.5


def test_room_and_surface_validation():
    assert [f.name for f in fields(RoomSpec)] == ["distance_to_wall_m", "gamma_sq", "t_rev_s"]
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            replace(DEFAULTS.room, distance_to_wall_m=bad)
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            replace(DEFAULTS.room, gamma_sq=bad)
    with pytest.raises(ValueError):
        replace(DEFAULTS.room, t_rev_s=0.0)
    for bad in ("dielectric:0.5", "gamma:1.5", {"eps_r": 1e400}, {"eps_r": 10**400}, "wood"):
        with pytest.raises(ValueError):
            material_reflectivity(bad)


@pytest.mark.parametrize(
    "material, gamma_sq",
    [
        ("metal", 1.0),
        ("dielectric:3", fresnel_average_reflectivity(3.0)),
        ({"eps_r": 4.5}, fresnel_average_reflectivity(4.5)),
        ("dielectric:1", 0.0),
        ("gamma:0.25", 0.25),
        ({"gamma_sq": 1}, 1.0),
    ],
)
def test_material_reflectivity_parses_every_form(material, gamma_sq):
    assert material_reflectivity(material) == gamma_sq
