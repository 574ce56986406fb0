import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlat.errors import FieldFormatError, InputError
from polarlat.fields import (_HEADER, _TEXT_BLOCK, ScalarField3D, read_field,
                             trapezoid3, write_field)
from polarlat.kerr import (VACUUM_PERMITTIVITY, effective_bhm, hopping_integral,
                           kerr_u, mode_norm, normalize_mode)
from polarlat.validate import hopping_by_shifted_copy, shifted_values

EPS0 = VACUUM_PERMITTIVITY


def gaussian_field(n=48, box=4.0, sigma=1.0, amp=1.0):
    ax = np.linspace(-box, box, n)
    dx = ax[1] - ax[0]
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    vals = amp * np.exp(-(x * x + y * y + z * z) / (2.0 * sigma * sigma))
    return ScalarField3D(vals, (dx, dx, dx), (-box, -box, -box))


def uniform_like(f, value):
    return ScalarField3D(np.full(f.shape, value), f.spacing, f.origin)


# 9,177 values, not a multiple of the text reader's block
TEXT_DIMS = (23, 21, 19)


def text_payload(kind):
    """x-fastest values of a TEXT_DIMS field: one value; a two-valued
    air-hole map, with both values in every block; a slab k_c map, air
    planes around a holed layer, or its chi3, zero outside the layer's
    middle plane; or all distinct."""
    i, j, k = np.indices(TEXT_DIMS)
    hole = ((i % 6) - 2.5) ** 2 + ((j % 6) - 2.5) ** 2 < 4.0
    maps = {
        "uniform": np.full(TEXT_DIMS, 7.318294821345271),
        "two-valued": np.where(hole, 1.0, 11.902837461527394),
        "slab": np.where((k >= 6) & (k < 13) & ~hole, 11.902837461527394, 1.0),
        "slab-chi3": np.where((k == 9) & ~hole, 1.3719e-19, 0.0),
    }
    if kind in maps:
        return maps[kind].ravel(order="F")
    return np.random.default_rng(5).normal(size=math.prod(TEXT_DIMS))


def write_text_lines(path, lines, end="\n"):
    """An F3DT file of TEXT_DIMS with the given payload lines; returns the
    byte offset of each payload line."""
    head = "F3DT 1\n{} {} {}\n1.0 1.0 1.0\n0 0 0\n".format(*TEXT_DIMS)
    path.write_text(head + "\n".join(lines) + end, encoding="ascii")
    return len(head) + np.concatenate(
        ([0], np.cumsum([len(line) + 1 for line in lines])))


def peak_arrays(array_bytes, fn, *args):
    """fn(*args) and the peak of the allocations made during the call (numpy
    reports its own to tracemalloc), in arrays of ``array_bytes``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, (peak - base) / array_bytes


class TestScalarField:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScalarField3D(np.zeros((2, 2)), (1, 1, 1))
        with pytest.raises(ValueError):
            ScalarField3D(np.zeros((2, 2, 2)), (1, 0, 1))
        with pytest.raises(ValueError):
            ScalarField3D(np.full((2, 2, 2), np.nan), (1, 1, 1))

    @pytest.mark.parametrize("spacing,origin", [
        ((1.0, math.inf, 1.0), (0.0, 0.0, 0.0)),
        ((1.0, 1.0, math.nan), (0.0, 0.0, 0.0)),
        ((1.0, 1.0, 1.0), (0.0, math.nan, 0.0)),
        ((1.0, 1.0, 1.0), (-math.inf, 0.0, 0.0)),
    ])
    def test_non_finite_geometry_rejected(self, spacing, origin):
        with pytest.raises(InputError, match="three finite numbers"):
            ScalarField3D(np.zeros((2, 2, 2)), spacing, origin)

    def test_axis(self):
        f = ScalarField3D(np.zeros((3, 4, 5)), (0.5, 1.0, 2.0), (10.0, 0.0, -1.0))
        assert f.axis(0).tolist() == [10.0, 10.5, 11.0]
        assert f.axis(2).tolist() == [-1.0, 1.0, 3.0, 5.0, 7.0]

    def test_trapezoid_exact_for_linear(self):
        nx, ny, nz = 5, 6, 7
        x = np.arange(nx)[:, None, None] * 0.3
        f = 2.0 + 1.5 * x * np.ones((nx, ny, nz))
        integral = trapezoid3(f, (0.3, 0.5, 0.25))
        lx, ly, lz = 0.3 * (nx - 1), 0.5 * (ny - 1), 0.25 * (nz - 1)
        exact = (2.0 * lx + 1.5 * 0.3 ** 2 * (nx - 1) ** 2 / 2) * ly * lz
        assert integral == pytest.approx(exact, rel=1e-13)

    def test_shift_identity_and_integer_steps(self):
        f = gaussian_field(n=17, box=2.0)
        assert np.array_equal(shifted_values(f, (0.0, 0.0, 0.0)), f.values)
        dx = f.spacing[0]
        shifted = shifted_values(f, (dx, 0.0, 0.0))
        assert np.allclose(shifted[1:, :, :], f.values[:-1, :, :])
        assert np.all(shifted[0, :, :] == 0.0)

    def test_shift_beyond_box_is_zero(self):
        f = gaussian_field(n=9, box=2.0)
        assert np.all(shifted_values(f, (100.0, 0.0, 0.0)) == 0.0)


class TestFieldIO:
    @pytest.mark.parametrize("fmt", ["binary", "text"])
    def test_round_trip(self, tmp_path, fmt):
        f = gaussian_field(n=6, box=1.5, amp=3.3)
        path = tmp_path / "field"
        write_field(f, path, fmt=fmt)
        back = read_field(path)
        assert np.array_equal(back.values, f.values)
        assert back.spacing == f.spacing
        assert back.origin == f.origin

    @pytest.mark.parametrize("fmt,content", [
        pytest.param("binary", "gaussian", id="binary"),
        pytest.param("text", "gaussian", id="text"),
        pytest.param("binary", "uniform", id="binary-uniform"),
        pytest.param("text", "uniform", id="text-uniform")])
    def test_read_fills_one_array(self, tmp_path, fmt, content):
        # the reader allocates the returned array and no payload copy; the
        # rest is ScalarField3D's finiteness mask (1/8 of an array)
        f = gaussian_field(n=64, box=3.0)
        if content == "uniform":
            f = uniform_like(f, 7.318294821345271)
        path = tmp_path / "field"
        write_field(f, path, fmt=fmt)
        back, arrays = peak_arrays(f.values.nbytes, read_field, str(path))
        assert back.values.flags.f_contiguous
        assert np.array_equal(back.values, f.values)
        assert arrays <= 1.25

    def test_binary_write_copies_nothing(self, tmp_path):
        f = gaussian_field(n=64, box=3.0)
        fortran = ScalarField3D(np.asfortranarray(f.values), f.spacing, f.origin)
        path = tmp_path / "field"
        _, arrays = peak_arrays(f.values.nbytes, write_field, fortran, path)
        assert arrays <= 0.25
        assert np.array_equal(read_field(path).values, f.values)

    def test_text_payload_is_one_repr_per_line(self, tmp_path):
        # more values than one formatting chunk, from a C-order array
        f = ScalarField3D(np.random.default_rng(3).normal(size=(23, 21, 19)),
                          (0.5, 1.0, 2.0))
        path = tmp_path / "field.txt"
        write_field(f, path, fmt="text")
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[4:] == [repr(float(v)) for v in f.values.ravel(order="F")]

    def test_formats_give_identical_results(self, tmp_path):
        # trapezoid3 sums in memory order, so both readers must return the
        # same layout for the same field to give the same bits
        phi = gaussian_field(n=40, box=4.5, amp=3.0)
        fields = {"phi": phi, "kc": uniform_like(phi, 12.0),
                  "chi3": uniform_like(phi, 2e-19)}
        results = []
        for fmt in ("binary", "text"):
            back = {}
            for name, f in fields.items():
                path = tmp_path / f"{name}.{fmt}"
                write_field(f, path, fmt=fmt)
                back[name] = read_field(path)
            results.append(effective_bhm(back["kc"], back["chi3"], back["phi"],
                                         (2.0, 0.0, 0.0)))
        binary, text = results
        assert (binary.t, binary.u, binary.norm_constant) == (
            text.t, text.u, text.norm_constant)

    @pytest.mark.parametrize("kind", ["uniform", "two-valued", "distinct",
                                      "slab", "slab-chi3"])
    def test_text_gives_the_bits_of_binary(self, tmp_path, kind):
        f = ScalarField3D(text_payload(kind).reshape(TEXT_DIMS, order="F"),
                          (0.5, 1.0, 2.0), (-1.0, 0.0, 3.0))
        for fmt in ("binary", "text"):
            write_field(f, tmp_path / fmt, fmt=fmt)
        binary, text = (read_field(tmp_path / fmt) for fmt in ("binary", "text"))
        assert text.values.tobytes(order="A") == binary.values.tobytes(order="A")
        assert text.values.tobytes(order="A") == f.values.tobytes(order="F")

    def test_text_block_whose_first_lines_repeat(self, tmp_path):
        # each block opens with 100 copies of one value, then all distinct
        values = text_payload("distinct")
        values[np.arange(values.size) % _TEXT_BLOCK < 100] = 2.5
        lines = [repr(v) for v in values.tolist()]
        write_text_lines(tmp_path / "field", lines)
        back = read_field(tmp_path / "field").values.ravel(order="F")
        assert back.tobytes() == values.tobytes()

    @pytest.mark.parametrize("kind", ["uniform", "distinct"])
    def test_text_last_line_without_newline(self, tmp_path, kind):
        values = text_payload(kind)
        write_text_lines(tmp_path / "field", [repr(v) for v in values.tolist()],
                         end="")
        back = read_field(tmp_path / "field").values.ravel(order="F")
        assert back.tobytes() == values.tobytes()

    def test_text_errors_inside_a_memoised_block(self, tmp_path):
        # a uniform payload parses each block through the memo; a fault in
        # the second block is located by the token parser, at its line
        lines = [repr(v) for v in text_payload("uniform").tolist()]
        i = _TEXT_BLOCK + 200
        bad = lines.copy()
        bad[i] = "bogus"
        at = write_text_lines(tmp_path / "field", bad)
        with pytest.raises(FieldFormatError, match="bad value 'bogus'") as err:
            read_field(tmp_path / "field")
        assert err.value.offset == at[i]
        # two values on one line: the last line is one value too many
        two = lines.copy()
        two[i] = f"{lines[i]} {lines[i]}"
        at = write_text_lines(tmp_path / "field", two)
        with pytest.raises(FieldFormatError, match="content after") as err:
            read_field(tmp_path / "field")
        assert err.value.offset == at[len(two) - 1]
        # and without the last line, the general layout reads the field
        write_text_lines(tmp_path / "field", two[:-1])
        assert read_field(tmp_path / "field").values.ravel().tolist() == [
            float(lines[0])] * len(lines)

    @pytest.mark.parametrize("kind", ["uniform", "distinct"])
    def test_text_payload_ends_inside_the_last_block(self, tmp_path, kind):
        # the last block is partial: a line past the payload falls where a
        # full block would read it, and a missing line is an early end
        lines = [repr(v) for v in text_payload(kind).tolist()]
        assert len(lines) % _TEXT_BLOCK
        at = write_text_lines(tmp_path / "field", lines + ["7.0"])
        with pytest.raises(FieldFormatError, match="content after") as err:
            read_field(tmp_path / "field")
        assert err.value.offset == at[len(lines)]
        at = write_text_lines(tmp_path / "field", lines[:-1])
        with pytest.raises(FieldFormatError, match="end of file") as err:
            read_field(tmp_path / "field")
        assert err.value.offset == at[len(lines) - 1]

    @staticmethod
    def line_splits(monkeypatch):
        """The byte offsets at which the text reader splits a block into
        lines (its islice calls)."""
        from polarlat import fields

        offsets, islice = [], fields.islice

        def counted(lines, count):
            offsets.append(lines.tell())
            return islice(lines, count)

        monkeypatch.setattr(fields, "islice", counted)
        return offsets

    @pytest.mark.parametrize("kind", ["uniform", "two-valued", "distinct",
                                      "slab", "slab-chi3"])
    def test_text_block_repeating_the_last_line_is_compared(
            self, tmp_path, monkeypatch, kind):
        # a block of one line repeated, after a block of that line alone,
        # is read by comparison; every other block is split into lines
        splits = self.line_splits(monkeypatch)
        lines = [repr(v) for v in text_payload(kind).tolist()]
        at = write_text_lines(tmp_path / "field", lines)
        read_field(tmp_path / "field")
        blocks = [set(lines[s:s + _TEXT_BLOCK])
                  for s in range(0, len(lines), _TEXT_BLOCK)]
        split = [b for b, block in enumerate(blocks)
                 if not (b and len(block) == 1 and block == blocks[b - 1])]
        assert splits == [at[b * _TEXT_BLOCK] for b in split]
        assert (len(split) < len(blocks)) == (kind not in ("two-valued",
                                                           "distinct"))

    def test_text_constant_block_with_one_line_changed(self, tmp_path,
                                                       monkeypatch):
        # blocks 0 and 2 are one line repeated; block 1 ends in another
        # value, and block 3 holds a line that differs in its final digit:
        # both comparisons fail, and blocks 0-4 are split into lines from
        # their first byte
        splits = self.line_splits(monkeypatch)
        values = text_payload("uniform")
        values[2 * _TEXT_BLOCK - 1] = 2.5
        values[3 * _TEXT_BLOCK + 500] = 7.318294821345272
        lines = [repr(v) for v in values.tolist()]
        assert lines[3 * _TEXT_BLOCK + 500][:-1] == lines[0][:-1]
        at = write_text_lines(tmp_path / "field", lines)
        back = read_field(tmp_path / "field").values.ravel(order="F")
        assert back.tobytes() == values.tobytes()
        assert splits == [at[b * _TEXT_BLOCK] for b in range(5)]

    @pytest.mark.parametrize("newline,end", [
        pytest.param("\n", "", id="lf-no-final-newline"),
        pytest.param("\r\n", "\r\n", id="crlf"),
        pytest.param("\r\n", "", id="crlf-no-final-newline")])
    @pytest.mark.parametrize("kind", ["uniform", "slab"])
    def test_text_constant_blocks_line_endings(self, tmp_path, newline, end,
                                               kind):
        values = text_payload(kind)
        path = tmp_path / "field"
        write_text_lines(path, [repr(v) for v in values.tolist()], end="")
        text = path.read_text(encoding="ascii").replace("\n", newline)
        path.write_bytes((text + end).encode("ascii"))
        back = read_field(path).values.ravel(order="F")
        assert back.tobytes() == values.tobytes()

    def test_text_errors_after_a_constant_block(self, tmp_path):
        # block 1 of a uniform payload is filled by comparison; a fault on
        # the first line of block 2 is located by the token parser
        lines = [repr(v) for v in text_payload("uniform").tolist()]
        i = 2 * _TEXT_BLOCK
        bad = lines.copy()
        bad[i] = "bogus"
        at = write_text_lines(tmp_path / "field", bad)
        with pytest.raises(FieldFormatError, match="bad value 'bogus'") as err:
            read_field(tmp_path / "field")
        assert err.value.offset == at[i]
        two = lines.copy()
        two[i] = f"{lines[i]} {lines[i]}"
        at = write_text_lines(tmp_path / "field", two)
        with pytest.raises(FieldFormatError, match="content after") as err:
            read_field(tmp_path / "field")
        assert err.value.offset == at[len(two) - 1]
        write_text_lines(tmp_path / "field", two[:-1])
        assert read_field(tmp_path / "field").values.ravel().tolist() == [
            float(lines[0])] * len(lines)

    @pytest.mark.parametrize("kind", ["slab", "slab-chi3"])
    def test_text_line_past_a_constant_final_block(self, tmp_path, kind):
        # the slabs' partial last block is one line repeated, filled by
        # comparison: the line after it is content after the payload
        lines = [repr(v) for v in text_payload(kind).tolist()]
        tail = lines[len(lines) // _TEXT_BLOCK * _TEXT_BLOCK:]
        assert len(set(tail)) == 1
        at = write_text_lines(tmp_path / "field", lines + ["7.0"])
        with pytest.raises(FieldFormatError, match="content after") as err:
            read_field(tmp_path / "field")
        assert err.value.offset == at[len(lines)]
        at = write_text_lines(tmp_path / "field", lines[:-1])
        with pytest.raises(FieldFormatError, match="end of file") as err:
            read_field(tmp_path / "field")
        assert err.value.offset == at[len(lines) - 1]

    def test_unknown_write_format_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError, match="unknown field format"):
            write_field(gaussian_field(n=4), tmp_path / "field", fmt="csv")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOPE rest of file")
        with pytest.raises(FieldFormatError) as err:
            read_field(path)
        assert err.value.offset == 0

    def test_truncated_payload_offset(self, tmp_path):
        f = gaussian_field(n=6, box=1.5)
        path = tmp_path / "field"
        write_field(f, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(FieldFormatError) as err:
            read_field(path)
        assert err.value.offset == len(data) // 2

    def test_trailing_bytes_rejected(self, tmp_path):
        f = gaussian_field(n=4, box=1.0)
        path = tmp_path / "field"
        write_field(f, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FieldFormatError, match="trailing bytes") as err:
            read_field(path)
        assert err.value.offset == _HEADER.size + f.values.nbytes

    @pytest.mark.parametrize("n", [10_000, 2 ** 32 - 1])
    def test_binary_header_larger_than_the_file(self, tmp_path, n):
        # the header's payload size is compared with the file's before any
        # array is made: n^3 float64s would need TiB or pass numpy's limit
        path = tmp_path / "field"
        path.write_bytes(_HEADER.pack(b"F3DB", 1, 0, n, n, n, 1.0, 1.0, 1.0,
                                      0.0, 0.0, 0.0) + b"\0" * 8)
        with pytest.raises(FieldFormatError, match="truncated payload") as err:
            read_field(path)
        assert err.value.offset == _HEADER.size + 8

    @pytest.mark.parametrize("n", [10_000, 2 ** 32 - 1])
    def test_text_header_larger_than_the_file(self, tmp_path, n):
        # n^3 values need at least 2 n^3 - 1 bytes: a digit and a separator
        # each, the last separator optional
        path = tmp_path / "field.txt"
        path.write_text(f"F3DT 1\n{n} {n} {n}\n1.0 1.0 1.0\n0 0 0\n1.0\n")
        with pytest.raises(FieldFormatError, match="truncated payload") as err:
            read_field(path)
        assert err.value.offset == path.stat().st_size

    def test_text_shortest_payload(self, tmp_path):
        # the size check admits the shortest layout: single digits, one
        # space apart, no final newline
        path = tmp_path / "field.txt"
        path.write_text("F3DT 1\n3 1 1\n1.0 1.0 1.0\n0 0 0\n1 2 3")
        assert read_field(path).values.ravel().tolist() == [1.0, 2.0, 3.0]

    def test_text_bad_value(self, tmp_path):
        path = tmp_path / "field.txt"
        path.write_text("F3DT 1\n2 1 1\n1.0 1.0 1.0\n0 0 0\n1.0\nbogus\n")
        with pytest.raises(FieldFormatError) as err:
            read_field(path)
        assert err.value.offset > 0

    def test_text_layouts_and_error_offsets(self, tmp_path):
        # several values per line and blank lines read like one per line;
        # each payload error, and content after the last value, points at
        # the start of its line
        head = "F3DT 1\n3 1 1\n1.0 1.0 1.0\n0 0 0\n"
        at = len(head)
        cases = {
            "1.5\n-2.0\n3.25\n": None,
            "1.5 -2.0\n\n3.25\n": None,
            "1.5 -2.0 3.25\n": None,
            "1.5\n-2.0\n3.25\n \n\n": None,  # trailing whitespace
            "1.5\n-2.0\n3.25\n7.0\n": at + 14,  # a line past the payload
            "1.5 -2.0\n\n3.25\n\nend\n": at + 16,
            "1.5\nbogus\n3.25\n": at + 4,
            "1.5\n-2.0 3.25 7.0\n": at + 4,
            "1.5\n-2.0\n": at + 9,
        }
        for payload, offset in cases.items():
            path = tmp_path / "field.txt"
            path.write_text(head + payload)
            if offset is None:
                assert read_field(path).values.ravel().tolist() == [
                    1.5, -2.0, 3.25], payload
            else:
                with pytest.raises(FieldFormatError) as err:
                    read_field(path)
                assert err.value.offset == offset, payload

    def test_text_wrong_counts(self, tmp_path):
        path = tmp_path / "field.txt"
        path.write_text("F3DT 1\n2 1\n")
        with pytest.raises(FieldFormatError):
            read_field(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "field.txt"
        path.write_text("F3DT 9\n")
        with pytest.raises(FieldFormatError):
            read_field(path)


class TestNormalization:
    def test_idempotent(self):
        phi = gaussian_field(amp=2.7)
        kc = uniform_like(phi, 10.0)
        once = normalize_mode(phi, kc)
        twice = normalize_mode(once, kc)
        assert mode_norm(once, kc) == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(once.values, twice.values, rtol=1e-12)

    def test_scale_invariance(self):
        phi = gaussian_field(amp=1.0)
        kc = uniform_like(phi, 4.0)
        a = normalize_mode(phi, kc)
        b = normalize_mode(phi.scaled(3.0), kc)
        assert np.allclose(a.values, b.values, rtol=1e-12)

    def test_gaussian_amplitude(self):
        sigma, k_val = 1.0, 5.5
        # odd point count puts r = 0 on the grid, where the peak sits
        phi = gaussian_field(n=65, box=5.0, sigma=sigma, amp=1.0)
        kc = uniform_like(phi, k_val)
        normalized = normalize_mode(phi, kc)
        expected_amp = (2.0 * EPS0 * k_val * math.pi ** 1.5 * sigma ** 3) ** -0.5
        assert normalized.values.max() == pytest.approx(expected_amp, rel=1e-6)

    def test_zero_field_rejected(self):
        phi = ScalarField3D(np.zeros((4, 4, 4)), (1, 1, 1))
        with pytest.raises(ValueError):
            normalize_mode(phi, uniform_like(phi, 1.0))

    def test_bad_inputs_are_input_errors(self):
        phi = ScalarField3D(np.zeros((4, 4, 4)), (1, 1, 1))
        with pytest.raises(InputError, match="zero norm"):
            effective_bhm(uniform_like(phi, 1.0), uniform_like(phi, 0.0), phi,
                          (0, 0, 0))
        with pytest.raises(InputError, match="non-finite"):
            ScalarField3D(np.full((2, 2, 2), np.inf), (1, 1, 1))
        with pytest.raises(InputError, match="grids differ"):
            mode_norm(phi, uniform_like(gaussian_field(n=5), 1.0))
        with pytest.raises(InputError, match="unphysical"):
            effective_bhm(uniform_like(phi, 0.5), uniform_like(phi, 0.0), phi,
                          (0, 0, 0))


class TestHopping:
    def test_self_overlap_is_unity(self):
        phi = normalize_mode(gaussian_field(), uniform_like(gaussian_field(), 2.0))
        kc = uniform_like(phi, 2.0)
        assert hopping_integral(kc, phi, (0, 0, 0)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_displacement_is_the_norm(self):
        phi = gaussian_field(n=20, box=2.0, amp=2.3)
        kc = uniform_like(phi, 3.0)
        assert hopping_integral(kc, phi, (0.0, 0.0, 0.0)) == mode_norm(phi, kc)
        assert effective_bhm(kc, uniform_like(phi, 1e-19), phi, (0, 0, 0)).t == 1.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_overlap_sums_match_shifted_copy(self, data):
        # non-cubic grids with anisotropic spacing; per axis a displacement
        # that is zero, a whole number of steps (either sign) or any length
        # up to 1.3 extents, so partly or wholly outside the box
        shape = tuple(data.draw(st.integers(2, 9)) for _ in range(3))
        spacing = tuple(data.draw(st.floats(0.05, 3.0)) for _ in range(3))
        d = []
        for n, h in zip(shape, spacing):
            kind = data.draw(st.sampled_from(["zero", "steps", "length"]))
            if kind == "zero":
                d.append(0.0)
            elif kind == "steps":
                d.append(data.draw(st.integers(-(n - 1), n - 1)) * h)
            else:
                d.append(data.draw(st.floats(-1.3, 1.3)) * (n - 1) * h)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        phi = ScalarField3D(rng.uniform(0.5, 1.5, shape), spacing)
        kc = ScalarField3D(rng.uniform(1.0, 4.0, shape), spacing)
        outside = any(abs(x) > (n - 1) * h for x, n, h in zip(d, shape, spacing))
        if outside:
            with pytest.warns(RuntimeWarning):
                assert hopping_integral(kc, phi, d) == 0.0
            return
        expected = hopping_by_shifted_copy(kc, phi, d)
        if expected == 0.0:
            assert abs(hopping_integral(kc, phi, d)) <= 1e-300
        else:
            assert hopping_integral(kc, phi, d) == pytest.approx(expected,
                                                                 rel=1e-12)

    def test_gaussian_overlap(self):
        sigma = 1.0
        phi = gaussian_field(n=64, box=5.0, sigma=sigma)
        kc = uniform_like(phi, 7.0)
        phi_n = normalize_mode(phi, kc)
        d = 1.37 * sigma  # deliberately off-grid displacement
        t = hopping_integral(kc, phi_n, (d, 0.0, 0.0))
        assert t == pytest.approx(math.exp(-d * d / (4 * sigma * sigma)), rel=1e-3)

    def test_displacement_symmetry(self):
        phi = gaussian_field(n=40, box=4.0)
        kc = uniform_like(phi, 3.0)
        phi_n = normalize_mode(phi, kc)
        d = (0.83, -0.41, 0.22)
        t_plus = hopping_integral(kc, phi_n, d)
        t_minus = hopping_integral(kc, phi_n, tuple(-x for x in d))
        assert t_plus == pytest.approx(t_minus, rel=1e-9)

    def test_disjoint_supports_warn_and_zero(self):
        phi = gaussian_field(n=16, box=2.0)
        kc = uniform_like(phi, 1.0)
        with pytest.warns(RuntimeWarning):
            assert hopping_integral(kc, phi, (50.0, 0.0, 0.0)) == 0.0

    def test_grid_mismatch_rejected(self):
        phi = gaussian_field(n=16, box=2.0)
        kc = uniform_like(gaussian_field(n=18, box=2.0), 1.0)
        with pytest.raises(ValueError):
            hopping_integral(kc, phi, (0, 0, 0))


class TestKerrU:
    def test_zero_nonlinearity(self):
        phi = gaussian_field()
        assert kerr_u(uniform_like(phi, 0.0), phi) == 0.0

    def test_sign_opposes_chi(self):
        phi = gaussian_field()
        assert kerr_u(uniform_like(phi, 1e-19), phi) < 0.0
        assert kerr_u(uniform_like(phi, -1e-19), phi) > 0.0

    def test_gaussian_closed_form(self):
        sigma, k_val, chi = 1.0, 3.0, 4.7e-19
        phi = gaussian_field(n=64, box=5.0, sigma=sigma)
        kc = uniform_like(phi, k_val)
        phi_n = normalize_mode(phi, kc)
        a2 = 1.0 / (2.0 * EPS0 * k_val * math.pi ** 1.5 * sigma ** 3)
        expected = -6.0 * EPS0 * chi * a2 ** 2 * (math.pi / 2.0) ** 1.5 * sigma ** 3
        assert kerr_u(uniform_like(phi, chi), phi_n) == pytest.approx(
            expected, rel=1e-4)


class TestEffectiveBhm:
    def test_accepts_congruent_material_maps(self):
        phi = gaussian_field(n=8, box=1.0)
        res = effective_bhm(uniform_like(phi, 12.0), uniform_like(phi, -3e-19),
                            phi, (0.3, 0.0, 0.0))
        assert math.isfinite(res.t) and res.u > 0  # chi3 < 0: repulsive

    def test_rejects_incongruent_grids(self):
        a = gaussian_field(n=8, box=1.0)
        b = gaussian_field(n=9, box=1.0)
        with pytest.raises(InputError, match="grids differ"):
            effective_bhm(uniform_like(a, 2.0), uniform_like(b, 1e-19), a,
                          (0, 0, 0))

    def test_rejects_unphysical_dielectric(self):
        phi = gaussian_field(n=8, box=1.0)
        with pytest.raises(InputError, match="unphysical"):
            effective_bhm(uniform_like(phi, 0.5), uniform_like(phi, 0.0), phi,
                          (0, 0, 0))

    @pytest.mark.parametrize("amp,k_c,chi3,match", [
        (1e200, 2.0, 1e-19, "products past the float range"),  # phi^2
        (1e80, 2.0, 1e-19, "products past the float range"),  # phi^4
        (1e77, 1e100, 1e-19, "products past the float range"),
        (1e70, 1e150, 1e-19, "squared mode norm"),  # norm^2
        (1e-80, 2.0, 1e-19, "squared mode norm"),  # norm^2 underflows
        (1e-60, 2.0, 1e300, "squared mode norm"),  # U over norm^2
    ])
    def test_float_range_is_an_input_error(self, amp, k_c, chi3, match):
        # numpy would warn, or Python raise OverflowError or
        # ZeroDivisionError, past the float range
        phi = gaussian_field(n=8, box=1.0, amp=amp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=match):
                effective_bhm(uniform_like(phi, k_c), uniform_like(phi, chi3),
                              phi, (0.3, 0.0, 0.0))

    def test_scale_covariance(self):
        phi = gaussian_field(n=32, box=3.5)
        kc = uniform_like(phi, 2.0)
        chi = uniform_like(phi, 1e-19)
        d = (0.9, 0.0, 0.0)
        a = effective_bhm(kc, chi, phi, d)
        b = effective_bhm(kc, chi, phi.scaled(5.0), d)
        assert a.t == pytest.approx(b.t, rel=1e-12)
        assert a.u == pytest.approx(b.u, rel=1e-12)
        assert b.norm_constant == pytest.approx(25.0 * a.norm_constant, rel=1e-12)

    @pytest.mark.parametrize("d", [(0.9, 0.0, 0.0), (0.9, -0.35, 0.2)])
    def test_holds_one_temporary(self, d):
        # beyond its three input fields, effective_bhm holds one product
        # array at a time (tracemalloc counts numpy's allocations)
        phi = gaussian_field(n=64, box=3.5)
        kc = uniform_like(phi, 2.0)
        chi = uniform_like(phi, 1e-19)
        _, arrays = peak_arrays(phi.values.nbytes, effective_bhm, kc, chi, phi,
                                d)
        assert arrays <= 1.25

    def test_refinement_stability(self):
        # halving the spacing moves the results by well under half a percent
        sigma = 1.0
        coarse = gaussian_field(n=32, box=4.0, sigma=sigma)
        fine = gaussian_field(n=64, box=4.0, sigma=sigma)
        d = (1.1, 0.3, 0.0)
        res_c = effective_bhm(uniform_like(coarse, 2.0), uniform_like(coarse, 1e-19),
                              coarse, d)
        res_f = effective_bhm(uniform_like(fine, 2.0), uniform_like(fine, 1e-19),
                              fine, d)
        assert abs(res_c.t - res_f.t) / abs(res_f.t) < 0.005
        assert abs(res_c.u - res_f.u) / abs(res_f.u) < 0.005

    def test_translation_invariance(self):
        # moving the whole grid (field pair plus origin) leaves t unchanged
        phi = gaussian_field(n=32, box=3.5)
        kc = uniform_like(phi, 2.0)
        chi = uniform_like(phi, 1e-19)
        moved = ScalarField3D(phi.values, phi.spacing, (5.0, -2.0, 0.5))
        kc_m = ScalarField3D(kc.values, kc.spacing, moved.origin)
        chi_m = ScalarField3D(chi.values, chi.spacing, moved.origin)
        d = (0.7, 0.0, 0.0)
        a = effective_bhm(kc, chi, phi, d)
        b = effective_bhm(kc_m, chi_m, moved, d)
        assert a.t == b.t and a.u == b.u

    def test_displacement_ratio(self):
        # doubling d multiplies the Gaussian overlap by exp(-3 d^2 / 4 sigma^2)
        sigma = 1.0
        phi = gaussian_field(n=64, box=5.0, sigma=sigma)
        kc = uniform_like(phi, 2.0)
        chi = uniform_like(phi, 1e-19)
        d = 0.8
        t1 = effective_bhm(kc, chi, phi, (d, 0, 0)).t
        t2 = effective_bhm(kc, chi, phi, (2 * d, 0, 0)).t
        assert t2 / t1 == pytest.approx(math.exp(-3 * d * d / (4 * sigma ** 2)),
                                        rel=1e-3)
