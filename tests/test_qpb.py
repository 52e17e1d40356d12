import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pppa import GenSpec, QpInstance, SymMatrix, gen_sbar_random, parse_qpb, write_qpb
from pppa.errors import DuplicateEntry, IndexOutOfRange, ParseError

MINIMAL = """qpb 1
n 1
q -3
u 1
m 1
1 1 2.0
"""


class TestParse:
    def test_minimal_file(self):
        inst, header = parse_qpb(MINIMAL)
        assert inst.n == 1
        assert inst.q == pytest.approx([-3.0])
        assert inst.u == pytest.approx([1.0])
        assert inst.m.full() == pytest.approx(np.array([[2.0]]))
        assert header == {}

    def test_inf_token(self):
        text = MINIMAL.replace("u 1", "u inf")
        inst, _ = parse_qpb(text)
        assert np.isposinf(inst.u[0])

    def test_comments_and_blank_lines(self):
        text = "qpb 1\n\n# a comment\nn 1\nq 0.5\nu 1\nm 1\n1 1 1.0  # trailing\n"
        inst, _ = parse_qpb(text)
        assert inst.q == pytest.approx([0.5])

    def test_duplicate_triplet(self):
        text = "qpb 1\nn 2\nq 0 0\nu 1 1\nm 2\n1 2 1.0\n2 1 3.0\n"
        with pytest.raises(DuplicateEntry) as err:
            parse_qpb(text)
        assert err.value.line == 7

    def test_index_out_of_range(self):
        text = "qpb 1\nn 2\nq 0 0\nu 1 1\nm 1\n1 3 1.0\n"
        with pytest.raises(IndexOutOfRange):
            parse_qpb(text)

    def test_parse_error_carries_line_number(self):
        text = "qpb 1\nn 2\nq 0 nope\nu 1 1\nm 0\n"
        with pytest.raises(ParseError) as err:
            parse_qpb(text)
        assert err.value.line == 3

    def test_missing_magic(self):
        with pytest.raises(ParseError):
            parse_qpb("n 1\nq 0\nu 1\nm 0\n")

    def test_wrong_vector_length(self):
        with pytest.raises(ParseError):
            parse_qpb("qpb 1\nn 2\nq 0\nu 1 1\nm 0\n")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_qpb(MINIMAL + "extra stuff\n")

    def test_nonpositive_upper_bound_rejected(self):
        with pytest.raises(ParseError):
            parse_qpb(MINIMAL.replace("u 1", "u 0"))


class TestRoundTrip:
    def test_generated_instance_exact(self):
        inst = gen_sbar_random(GenSpec(family="sbar_random", n=9, rho=0.35, seed=4))
        header = {"family": "sbar_random", "seed": 4, "rho": 0.35, "generator-id": "x"}
        text = write_qpb(inst, header)
        back, header2 = parse_qpb(text)
        assert np.array_equal(back.m.full(), inst.m.full())
        assert np.array_equal(back.q, inst.q)
        assert np.array_equal(back.u, inst.u)
        assert header2["family"] == "sbar_random" and header2["seed"] == 4

    def test_tridiagonal_tag_preserved(self):
        m = SymMatrix.from_banded([2.0, 3.0, 2.0], [-1.0, 0.5])
        inst = QpInstance(m, [0.0, 1.0, -1.0], [1.0, np.inf, 2.0])
        back, _ = parse_qpb(write_qpb(inst))
        assert back.m.tridiagonal
        assert np.array_equal(back.m.full(), inst.m.full())
        assert np.array_equal(back.u, inst.u)

    def test_band_inference_without_structure_key(self):
        text = "qpb 1\nn 3\nq 0 0 0\nu 1 1 1\nm 3\n1 1 1\n2 2 1\n3 3 1\n"
        inst, _ = parse_qpb(text)
        assert inst.m.tridiagonal
        text2 = "qpb 1\nn 3\nq 0 0 0\nu 1 1 1\nm 2\n1 3 0.5\n2 2 1\n"
        inst2, _ = parse_qpb(text2)
        assert not inst2.m.tridiagonal

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_arbitrary_values_round_trip(self, data):
        n = data.draw(st.integers(1, 5))
        finite = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)
        q = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
        u_vals = []
        for _ in range(n):
            if data.draw(st.booleans()):
                u_vals.append(np.inf)
            else:
                u_vals.append(data.draw(st.floats(1e-6, 1e9, allow_nan=False)))
        lower = np.tril(np.array(
            data.draw(st.lists(finite, min_size=n * n, max_size=n * n))).reshape(n, n))
        inst = QpInstance(SymMatrix.from_dense(lower + np.tril(lower, -1).T),
                          q, np.array(u_vals))
        back, _ = parse_qpb(write_qpb(inst))
        assert np.array_equal(back.m.full(), inst.m.full())
        assert np.array_equal(back.q, inst.q)
        assert np.array_equal(back.u, inst.u)


class TestBandedParse:
    """Band-limited triplets go to band arrays; the dense array is built only when needed."""

    def test_tridiagonal_parse_memory_is_linear(self):
        import tracemalloc

        from pppa import gen_tridiagonal
        text = write_qpb(gen_tridiagonal(GenSpec(family="tridiagonal", n=20000, seed=1)))
        tracemalloc.start()
        try:
            inst, _ = parse_qpb(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.m._dense is None
        # A dense 20000 x 20000 array alone would take 3.2 GB.
        assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_triplet_order_matches_dense(self, data):
        # Without a structure key, in-band triplets read before the first
        # out-of-band one must survive the switch to dense storage.
        n = data.draw(st.integers(1, 6))
        width = data.draw(st.integers(0, n - 1))
        values = st.floats(-4, 4, allow_nan=False).filter(lambda v: v != 0.0)
        entries = {(i, j): data.draw(values)
                   for i in range(n) for j in range(i, min(n, i + width + 1))
                   if data.draw(st.booleans())}
        order = data.draw(st.permutations(sorted(entries)))
        lines = [f"{j + 1} {i + 1} {entries[i, j]!r}" if data.draw(st.booleans())
                 else f"{i + 1} {j + 1} {entries[i, j]!r}" for i, j in order]
        text = (f"qpb 1\nn {n}\nq {' 0' * n}\nu {' 1' * n}\nm {len(lines)}\n"
                + "".join(line + "\n" for line in lines))
        expected = np.zeros((n, n))
        for (i, j), v in entries.items():
            expected[i, j] = expected[j, i] = v
        inst, _ = parse_qpb(text)
        assert inst.m.tridiagonal == (n >= 2 and all(j - i <= 1 for i, j in entries))
        assert (inst.m._dense is None) == inst.m.tridiagonal
        assert np.array_equal(inst.m.full(), expected)

    def test_dense_parse_wraps_the_filled_array(self):
        # The filled array is already symmetric: no n x n re-symmetrization
        # temporaries, and the same bits as from_dense (-0.0 included).
        import tracemalloc

        n = 600
        text = write_qpb(gen_sbar_random(GenSpec(family="sbar_random", n=n, rho=0.2, seed=3)))
        tracemalloc.start()
        try:
            inst, _ = parse_qpb(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix_bytes = n * n * 8
        assert peak < 4 * matrix_bytes, f"peak {peak / 2 ** 20:.1f} MB"
        signed = parse_qpb("qpb 1\nn 3\nq 0 0 0\nu 1 1 1\nm 4\n"
                           "1 1 -0.0\n1 3 -0.0\n2 2 1.5\n3 2 -2\n")[0]
        for m in (inst.m, signed.m):
            a = m.full()
            assert a.tobytes() == SymMatrix.from_dense(a.copy()).full().tobytes()

    def test_tridiagonal_structure_rejects_out_of_band(self):
        text = ("qpb 1\nstructure tridiagonal\nn 3\nq 0 0 0\nu 1 1 1\nm 3\n"
                "1 1 1\n1 3 0.5\n3 3 1\n")
        with pytest.raises(ParseError, match="outside the band"):
            parse_qpb(text)
