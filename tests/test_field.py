import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from smframe import geometry as geo
from smframe.errors import FormatError
from smframe.field import Grid, gradient, integrate, lawson_heun, rk4, spectral_derivative
from smframe.snapshot import read_snapshot, write_snapshot

from reference import complex_derivative, complex_poisson


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((12,), (1.0,))  # too small
    with pytest.raises(ValueError):
        Grid((48,), (1.0,))  # not a power of two
    with pytest.raises(ValueError):
        Grid((32,), (-1.0,))
    for length in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            Grid((32, 32), (1.0, length))
    with pytest.raises(ValueError):
        Grid((32, 32, 32), (1.0, 1.0, 1.0))


def test_grid_geometry():
    g = Grid((64, 32), (2.0, 4.0))
    assert g.dim == 2
    assert g.spacing == (2.0 / 64, 4.0 / 32)
    assert g.center_index == (32, 16)
    x = g.axis_coord(0)
    assert x[g.center_index[0]] == 0.0  # box center is an exact grid point
    assert abs(g.cell_volume - (2.0 / 64) * (4.0 / 32)) < 1e-15


def test_spectral_derivative_exact_on_modes():
    g = Grid((32, 64), (2 * np.pi, 4 * np.pi))
    x1, x2 = g.coords()
    f = np.exp(3j * x1 - 2.5j * x2)
    assert np.max(np.abs(spectral_derivative(g, f, 0) - 3j * f)) < 1e-12
    assert np.max(np.abs(spectral_derivative(g, f, 1) + 2.5j * f)) < 1e-12


def test_laplacian_and_poisson_roundtrip():
    # Delta^-1 d_k applied to d_k phi gives phi back
    g = Grid((32, 32), (2 * np.pi, 2 * np.pi))
    x1, x2 = g.coords()
    phi = np.sin(x1) * np.cos(2 * x2)
    dh = np.fft.rfftn(gradient(g, phi), axes=(-2, -1))
    back = np.fft.irfftn(sum(p * dk for p, dk in zip(g.half_poisson_ik, dh)), s=g.shape,
                        axes=(-2, -1))
    assert np.max(np.abs(back - phi)) < 1e-12  # phi is mean-zero already
    lap = sum(complex_derivative(g, dk, k) for k, dk in enumerate(gradient(g, phi)))
    assert np.max(np.abs(complex_poisson(g, lap) - phi)) < 1e-12


def test_integrate_constant_and_vector():
    g = Grid((32, 32), (2.0, 3.0))
    assert abs(integrate(g, np.ones(g.shape)) - 6.0) < 1e-12
    v = np.ones(g.shape + (3,))
    assert np.allclose(integrate(g, v), [6.0, 6.0, 6.0])


def test_dealias_mask_removes_top_third():
    g = Grid((32,), (2 * np.pi,))
    x = g.axis_coord(0)
    low = np.sin(3 * x)
    high = np.sin(14 * x)
    out = np.fft.ifft(g.dealias_mask * np.fft.fft(low + high))
    assert np.max(np.abs(out - low)) < 1e-12


def test_rk4_matches_taylor_factor_on_linear_ode():
    lam = -0.7 + 2.3j
    h = 0.1
    y = np.array([[1.0, -2.0], [0.5j, 3.0 - 1.0j]])
    z = lam * h
    factor = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    out = rk4(lambda v: lam * v, y, h)
    assert np.max(np.abs(out - factor * y)) < 1e-14


def test_rk4_with_given_k1_is_bit_identical():
    def f(v):
        return 1j * np.abs(v) ** 2 * v + 0.3 * v

    y = np.array([[1.0, -2.0], [0.5j, 3.0 - 1.0j]])
    assert np.array_equal(rk4(f, y, 0.1, k1=f(y)), rk4(f, y, 0.1))


def test_lawson_heun_is_exact_on_linear_part():
    # with a zero nonlinearity the scheme must integrate dy/dt = mu Lap y
    # exactly (integrating-factor property): a complex 1-D field on its full
    # spectrum, and a real 2-D field on its half spectrum with energy in the
    # Nyquist mode of each axis, which the factor keeps
    eps, dt = 0.3, 1e-2
    mu, nu = (eps + 1j) / (1.0 + eps**2), eps / (1.0 + eps**2)
    g = Grid((64,), (2 * np.pi,))
    x = g.axis_coord(0)
    q = np.exp(2j * x) + 0.5 * np.exp(-3j * x)
    out = np.fft.ifft(lawson_heun(np.fft.fft(q), dt, np.exp(-mu * g.k_squared * dt),
                                  np.zeros_like))
    expect = (np.exp(2j * x) * np.exp(-mu * 4 * dt)
              + 0.5 * np.exp(-3j * x) * np.exp(-mu * 9 * dt))
    assert np.max(np.abs(out - expect)) < 1e-13

    g = Grid((16, 32), (2 * np.pi, 4 * np.pi))  # Nyquist wavenumber 8 on both axes
    x1, x2 = g.coords()
    u = np.cos(8 * x1) + 0.5 * np.cos(8 * x2) + np.sin(x1 - 2.5 * x2)
    uh = lawson_heun(np.fft.rfftn(u), dt, np.exp(-nu * g.half_k_squared * dt), np.zeros_like)
    out = np.fft.irfftn(uh, s=g.shape, axes=(0, 1))
    expect = ((np.cos(8 * x1) + 0.5 * np.cos(8 * x2)) * np.exp(-nu * 64 * dt)
              + np.sin(x1 - 2.5 * x2) * np.exp(-nu * 7.25 * dt))
    assert np.max(np.abs(out - expect)) < 1e-13


def test_integrators_make_no_transform(fft_census):
    y = np.fft.fft(np.arange(8.0))
    fft_census.clear()
    rk4(lambda v: -v, y, 0.1)
    lawson_heun(y, 0.1, np.full(8, 0.5), lambda v: v * v)
    assert fft_census == {}


_grids = hst.builds(
    lambda n, lengths: Grid(n, lengths[:len(n)]),
    hst.sampled_from([(16,), (32,), (64,), (16, 16), (32, 16), (16, 32)]),
    hst.tuples(hst.floats(1.0, 20.0), hst.floats(1.0, 20.0)))


def _real_field(grid, seed, nyquist, extra=()):
    """Random real samples (every mode up to Nyquist carries energy) plus
    `nyquist` times the Nyquist mode cos(pi j) of each axis."""
    f = np.random.default_rng(seed).standard_normal(grid.shape + extra)
    for axis, n in enumerate(grid.n):
        shape = [1] * f.ndim
        shape[axis] = n
        f += nyquist * ((-1.0) ** np.arange(n)).reshape(shape)
    return f


def _rel_err(got, expect):
    return np.max(np.abs(got - expect)) / np.max(np.abs(expect))


@settings(max_examples=60, deadline=None)
@given(grid=_grids, seed=hst.integers(0, 2**32 - 1), nyquist=hst.floats(0.5, 2.0),
       extra=hst.sampled_from([(), (3,)]))
def test_gradient_matches_per_axis_derivatives(grid, seed, nyquist, extra):
    f = _real_field(grid, seed, nyquist, extra=extra)
    expect = np.stack([complex_derivative(grid, f, k) for k in range(grid.dim)])
    got = gradient(grid, f)
    assert got.shape == expect.shape
    assert _rel_err(got, expect) < 1e-13


def test_snapshot_roundtrip(tmp_path):
    g = Grid((16, 16), (2.0, 3.0))
    rng = np.random.default_rng(0)
    fields = {
        "scalar": rng.standard_normal(g.shape),
        "cplx": rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape),
        "vec": rng.standard_normal(g.shape + (3,)),
    }
    path = tmp_path / "state.smfs"
    write_snapshot(path, g, geo.HYPERBOLIC, 1.25, fields)
    snap = read_snapshot(path)
    assert snap.grid == g
    assert snap.target.kind == "hyperbolic"
    assert snap.time == 1.25
    for name, arr in fields.items():
        assert np.array_equal(snap.fields[name], arr)


def _header_bytes(dim: int) -> int:
    """magic, version, target kind, dim, then n, length per axis and time"""
    return 4 + 6 + 16 * dim + 8


_FIELD_KINDS = {"real": (), "complex": (), "vector": (3,)}


@hst.composite
def _snapshots(draw):
    dim = draw(hst.sampled_from([1, 2]))
    g = Grid(tuple(draw(hst.sampled_from([16, 32])) for _ in range(dim)),
             tuple(draw(hst.floats(1e-3, 1e3)) for _ in range(dim)))
    target = draw(hst.sampled_from([geo.SPHERE, geo.HYPERBOLIC]))
    time = draw(hst.floats(allow_nan=False))
    kinds = draw(hst.dictionaries(hst.text(max_size=6), hst.sampled_from(list(_FIELD_KINDS)),
                                  max_size=3))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    fields = {}
    for name, kind in kinds.items():
        fields[name] = rng.standard_normal(g.shape + _FIELD_KINDS[kind])
        if kind == "complex":
            fields[name] = fields[name] + 1j * rng.standard_normal(g.shape)
    return g, target, time, fields


@settings(max_examples=60, deadline=None)
@given(snap=_snapshots())
def test_snapshot_write_read_is_identity(tmp_path_factory, snap):
    g, target, time, fields = snap
    path = tmp_path_factory.mktemp("snap") / "state.smfs"
    write_snapshot(path, g, target, time, fields)
    back = read_snapshot(path)
    assert (back.grid, back.target, back.time) == (g, target, time)
    assert list(back.fields) == list(fields)
    for name, arr in fields.items():
        assert back.fields[name].dtype == arr.dtype
        assert np.array_equal(back.fields[name], arr)


@settings(max_examples=60, deadline=None)
@given(values=hst.lists(hst.floats(), min_size=32, max_size=32))
def test_snapshot_rewrite_keeps_every_byte(tmp_path_factory, values):
    # any float64 pairs, inf, nan payloads and -0.0 included, as complex
    # points and as real scalars: write -> read -> write gives the same bytes
    g = Grid((16,), (1.0,))
    flat = np.array(values, dtype="<f8")
    fields = {"q": flat.view("<c16"), "f": flat[:16]}
    first, second = (tmp_path_factory.mktemp("snap") / name for name in ("a.smfs", "b.smfs"))
    write_snapshot(first, g, geo.SPHERE, 0.0, fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_snapshot(first)
    write_snapshot(second, g, geo.SPHERE, 0.0, back.fields)
    assert second.read_bytes() == first.read_bytes()


@settings(max_examples=60, deadline=None)
@given(snap=_snapshots(), draw=hst.data())
def test_snapshot_truncation_is_format_error(tmp_path_factory, snap, draw):
    g, target, time, fields = snap
    path = tmp_path_factory.mktemp("snap") / "state.smfs"
    write_snapshot(path, g, target, time, fields)
    data = path.read_bytes()
    # a cut at a field-block boundary leaves a valid snapshot of the fields
    # before it (format v1 stores no field count); any other cut is an error
    boundaries = [_header_bytes(g.dim)]
    for name, arr in fields.items():
        payload = arr.size * (2 if np.iscomplexobj(arr) else 1)
        boundaries.append(boundaries[-1] + 2 + len(name.encode()) + 1 + 8 * payload)
    assert boundaries[-1] == len(data)
    for kept, offset in enumerate(boundaries[:-1]):
        path.write_bytes(data[:offset])
        assert list(read_snapshot(path).fields) == list(fields)[:kept]
    offset = draw.draw(hst.integers(0, len(data) - 1).filter(
        lambda k: k not in boundaries), label="offset")
    path.write_bytes(data[:offset])
    with pytest.raises(FormatError):
        read_snapshot(path)


def test_snapshot_non_utf8_field_name_is_format_error(tmp_path):
    g = Grid((16,), (1.0,))
    path = tmp_path / "name.smfs"
    write_snapshot(path, g, geo.SPHERE, 0.0, {"f": np.zeros(g.shape)})
    data = bytearray(path.read_bytes())
    name_at = _header_bytes(1) + 2
    data[name_at] = 0xFF
    path.write_bytes(data)
    with pytest.raises(FormatError) as err:
        read_snapshot(path)
    assert err.value.offset == name_at


def test_snapshot_repeated_field_name_is_format_error(tmp_path):
    # a second block of one name must not silently replace the first
    g = Grid((16,), (1.0,))
    path = tmp_path / "twice.smfs"
    write_snapshot(path, g, geo.SPHERE, 0.0, {"u": np.zeros(g.shape + (3,)),
                                              "v": np.ones(g.shape)})
    data = bytearray(path.read_bytes())
    second = _header_bytes(1) + 2 + 1 + 1 + 8 * 3 * 16
    assert data[second + 2] == ord("v")
    data[second + 2] = ord("u")
    path.write_bytes(data)
    with pytest.raises(FormatError, match="'u' is repeated") as err:
        read_snapshot(path)
    assert err.value.offset == second


@pytest.mark.parametrize("length", [np.nan, np.inf])
def test_snapshot_non_finite_box_length_is_format_error(tmp_path, length):
    g = Grid((16,), (1.0,))
    path = tmp_path / "box.smfs"
    write_snapshot(path, g, geo.SPHERE, 0.0, {"f": np.zeros(g.shape)})
    data = bytearray(path.read_bytes())
    data[18:26] = struct.pack("<d", length)  # the one box length
    path.write_bytes(data)
    with pytest.raises(FormatError):
        read_snapshot(path)


#: element kind byte of the one field "f" of a 16-point snapshot, and its end
_KIND_AT = _header_bytes(1) + 2 + 1
_END = _KIND_AT + 1 + 8 * 16
#: defect -> (byte offset, bytes written there, message); FormatError names the offset
SNAPSHOT_DEFECTS = {
    "version": (4, struct.pack("<I", 2), "unsupported version 2"),
    "target kind": (8, b"\x02", "unknown target kind 2"),
    "dimension": (9, b"\x03", "unsupported dimension 3"),
    "element kind": (_KIND_AT, b"\x07", "unknown element kind 7"),
    "1-byte trailing block": (_END, b"\x01", "truncated field-name length"),
}


@pytest.mark.parametrize("defect", list(SNAPSHOT_DEFECTS))
def test_snapshot_defect_is_format_error_at_its_offset(tmp_path, defect):
    offset, patch, message = SNAPSHOT_DEFECTS[defect]
    g = Grid((16,), (1.0,))
    path = tmp_path / "defect.smfs"
    write_snapshot(path, g, geo.SPHERE, 0.0, {"f": np.zeros(g.shape)})
    data = bytearray(path.read_bytes())
    assert len(data) == _END
    data[offset:offset + len(patch)] = patch
    path.write_bytes(data)
    with pytest.raises(FormatError, match=message) as err:
        read_snapshot(path)
    assert err.value.offset == offset


def test_snapshot_bad_magic_reports_offset(tmp_path):
    path = tmp_path / "bad.smfs"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(FormatError) as err:
        read_snapshot(path)
    assert err.value.offset == 0


def test_snapshot_truncation_reports_offset(tmp_path):
    g = Grid((16,), (1.0,))
    path = tmp_path / "trunc.smfs"
    write_snapshot(path, g, geo.SPHERE, 0.0, {"f": np.zeros(g.shape)})
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError) as err:
        read_snapshot(path)
    assert err.value.offset > 0


def test_snapshot_oversized_grid_is_format_error(tmp_path):
    # 2^32 x 2^32 points overflow a fixed-width product to zero
    path = tmp_path / "huge.smfs"
    header = (b"SMFS" + struct.pack("<IBB", 1, 0, 2) + struct.pack("<2Q", 2**32, 2**32)
              + struct.pack("<3d", 1.0, 1.0, 0.0))
    block = struct.pack("<H", 1) + b"f" + struct.pack("<B", 0) + b"\0" * 64
    path.write_bytes(header + block)
    with pytest.raises(FormatError) as err:
        read_snapshot(path)
    assert err.value.offset == 10
