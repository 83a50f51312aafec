"""Property-based round trips of the file formats and the run config."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ds2aw.config import FORMATS, RunConfig, config_from_dict, config_hash
from ds2aw.fieldio import Field, read_field_bin, read_field_csv, write_field_bin, write_field_csv

from conftest import reference_csv

FAST = settings(max_examples=25, deadline=None)

positive = st.floats(min_value=1e-6, max_value=1e6, allow_subnormal=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
# a fixed alphabet (with non-ASCII and JSON-escaped characters) keeps text
# generation fast
PATH_CHARS = 'az09/._- "\\\u00e9\u03bb\u2603'


@st.composite
def fields(draw, allow_non_finite):
    """Fields up to 16 x 16; subnormal samples are drawn as well."""
    real = st.floats(allow_nan=allow_non_finite, allow_infinity=allow_non_finite)
    nx, ny = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    u = draw(hnp.arrays(complex, (ny, nx), elements=st.complex_numbers(
        allow_nan=allow_non_finite, allow_infinity=allow_non_finite)))
    return Field(draw(real), draw(real), draw(real), u)


@FAST
@given(f=fields(allow_non_finite=True))
def test_bin_round_trip_bit_exact(tmp_path_factory, f):
    path = tmp_path_factory.mktemp("bin") / "f.bin"
    write_field_bin(f, path)
    g = read_field_bin(path)
    assert (g.nx, g.ny) == (f.nx, f.ny)
    header = np.array([g.L_x, g.L_y, g.t]).tobytes()
    assert header == np.array([f.L_x, f.L_y, f.t]).tobytes()
    assert g.u.tobytes() == np.ascontiguousarray(f.u).tobytes()


@FAST
@given(f=fields(allow_non_finite=False))
def test_csv_round_trip_exact(tmp_path_factory, f):
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    write_field_csv(f, path)
    g = read_field_csv(path, f.L_x, f.L_y, f.nx, f.ny, f.t)
    assert g.u.tobytes() == np.ascontiguousarray(f.u).tobytes()


def _nan(payload):
    return np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(float)[0]


@st.composite
def repeated_rows(draw):
    """A random block of rows tiled along y; then, by ``kind``, one row
    changed, or two equal rows made to differ only in a signed zero or in a
    NaN payload, which print the same only for the NaNs."""
    nx, period, reps = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(2, 4))
    samples = st.complex_numbers(allow_nan=False, allow_infinity=False)
    u = np.tile(draw(hnp.arrays(complex, (period, nx), elements=samples)), (reps, 1))
    iy, ix = draw(st.integers(1, period * reps - 1)), draw(st.integers(0, nx - 1))
    kind = draw(st.sampled_from(["tiled", "one row changed", "signed zero", "nan payload"]))
    if kind == "one row changed":
        u[iy] = draw(hnp.arrays(complex, nx, elements=samples))
    elif kind != "tiled":
        u[iy] = u[iy - 1]
        pair = [0.0, -0.0] if kind == "signed zero" else [_nan(1), _nan(2)]
        u.real[iy - 1 : iy + 1, ix] = pair
    return kind, Field(draw(positive), draw(positive), draw(finite), u)


@FAST
@given(case=repeated_rows())
def test_csv_repeated_rows_match_reference(tmp_path_factory, case):
    kind, f = case
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    write_field_csv(f, path)
    assert path.read_bytes() == reference_csv(f).encode()
    g = read_field_csv(path, f.L_x, f.L_y, f.nx, f.ny, f.t)
    if kind == "nan payload":
        # CSV writes every NaN as "nan": the payload does not round-trip
        assert np.array_equal(g.u, f.u, equal_nan=True)
    else:
        assert g.u.tobytes() == f.u.tobytes()


harmonic = st.tuples(
    st.integers(-5, 5), st.integers(-5, 5),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
).filter(lambda h: h[:2] != (0, 0))


@st.composite
def configs(draw):
    harmonics, grid_file = draw(st.one_of(
        st.tuples(st.lists(harmonic, min_size=1, max_size=4), st.none()),
        st.tuples(st.just([]), st.text(PATH_CHARS, min_size=1, max_size=12)),
    ))
    return RunConfig(
        L_x=draw(positive), L_y=draw(positive), eps=draw(positive), a=draw(positive),
        harmonics=harmonics, grid_file=grid_file,
        nx=draw(st.integers(8, 512)), ny=draw(st.integers(8, 512)),
        times=sorted(draw(st.lists(finite, min_size=1, max_size=4))),
        dt=draw(positive), theta_tail_tol=draw(positive),
        out_format=draw(st.sampled_from(FORMATS)),
    )


@FAST
@given(cfg=configs())
def test_config_round_trip_keeps_hash(cfg):
    again = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert config_hash(again) == config_hash(cfg)
    assert again == cfg
