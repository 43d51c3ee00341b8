"""Closed-form elliptic limit-shape equations of the hexagonal and
free-fermion tensions, the tests' oracles for `shapes.el_residual`."""

import math

import numpy as np

from icelab.errors import SlopeOutOfDomain
from icelab.shapes import HeightField


def hex_el_residual(hf: HeightField) -> np.ndarray:
    """The hexagonal elliptic form with ratio-of-sines coefficients."""
    hxx, hxy, hyy = hf._second_differences()
    sx, sy = hf.node_slopes()
    ss, st = np.sin(np.pi * sx), np.sin(np.pi * sy)
    return hxx * st / ss - 2.0 * hxy * np.cos(np.pi * (sx + sy)) + hyy * ss / st


def ff_el_residual(hf: HeightField, u: float) -> np.ndarray:
    """Free-fermion elliptic form; at u = pi/2 it coincides with the
    hexagonal form."""
    hxx, hxy, hyy = hf._second_differences()
    sx, sy = hf.node_slopes()
    if np.any(sx <= 0) or np.any(sx >= 1) or np.any(sy <= 0) or np.any(sy >= 1):
        raise SlopeOutOfDomain("free-fermion form needs slopes in (0, 1)")
    ss, st = np.sin(np.pi * sx), np.sin(np.pi * sy)
    mid = np.cos(np.pi * sx) * np.cos(np.pi * sy) \
        + math.cos(2 * u) * np.sin(np.pi * sx) * np.sin(np.pi * sy)
    return hxx * st / ss - 2.0 * hxy * mid + hyy * ss / st
