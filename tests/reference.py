"""Reference operators that the tests compare the program against."""

from smframe.field import spectral_derivative


def covariant_derivative(grid, q, a, axis):
    """D_axis q = (d_axis + i a_axis) q for complex q, on per-axis derivatives."""
    return spectral_derivative(grid, q, axis) + 1j * a * q
