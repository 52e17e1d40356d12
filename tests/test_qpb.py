import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pppa import GenSpec, QpInstance, SymMatrix, gen_sbar_random, parse_qpb, qpb, write_qpb
from pppa.errors import DuplicateEntry, IndexOutOfRange, ParseError, QpbError

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

    # The same two bounds on the line loop: a comment after the m record
    # leaves the whole triplet section to it.

    @staticmethod
    def _loop_peak(text, monkeypatch):
        import tracemalloc

        head, m_line, triplets = text.partition("\nm ")
        count, _, triplets = triplets.partition("\n")
        text = f"{head}{m_line}{count}\n# read by the line loop\n{triplets}"
        calls = []
        loop = qpb._loop_matrix
        monkeypatch.setattr(qpb, "_loop_matrix", lambda *args: calls.append(1) or loop(*args))
        tracemalloc.start()
        try:
            inst, _ = parse_qpb(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [1]
        return inst, peak

    def test_loop_tridiagonal_parse_memory_is_linear(self, monkeypatch):
        from pppa import gen_tridiagonal
        text = write_qpb(gen_tridiagonal(GenSpec(family="tridiagonal", n=20000, seed=1)))
        inst, peak = self._loop_peak(text, monkeypatch)
        assert inst.m._dense is None
        assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_loop_dense_parse_memory(self, monkeypatch):
        n = 600
        text = write_qpb(gen_sbar_random(GenSpec(family="sbar_random", n=n, rho=0.2, seed=3)))
        inst, peak = self._loop_peak(text, monkeypatch)
        assert not inst.m.tridiagonal
        assert peak < 4 * n * n * 8, f"peak {peak / 2 ** 20:.1f} MB"


def _bits(parse, text):
    """What ``parse`` makes of ``text``: the instance's storage bits, or its error."""
    try:
        inst, header = parse(text)
    except QpbError as exc:
        return type(exc), str(exc), exc.line
    m = inst.m
    arrays = m.band() if m.tridiagonal else (m._dense,)
    return (m.tridiagonal, m._dense is None, header,
            [a.tobytes() for a in (*arrays, inst.q, inst.u)])


def _parse_by_loop(text):
    return qpb._parse(text, bulk=False)


@st.composite
def _triplet_files(draw):
    """A valid QPB file as (head up to the m record, triplet lines, n, structure)."""
    n = draw(st.integers(1, 7))
    structure = draw(st.sampled_from([None, "dense", "tridiagonal"]))
    width = draw(st.integers(0, 1 if structure == "tridiagonal" else n - 1))
    band = [(i, j) for i in range(n) for j in range(i, min(n, i + width + 1))]
    keys = draw(st.lists(st.sampled_from(band), min_size=1, unique=True))
    value = st.floats(allow_nan=False, allow_infinity=False)
    space = st.sampled_from([" ", "\t", "  ", " \t "])
    edge = st.sampled_from(["", " ", "\t"])
    lines = []
    for i, j in keys:
        if draw(st.booleans()):
            i, j = j, i
        v = draw(value)
        text_v = repr(v) if draw(st.booleans()) else f"{v:.17g}"
        lines.append(draw(edge) + draw(space).join([str(i + 1), str(j + 1), text_v])
                     + draw(edge))
    head = ("qpb 1\n" + (f"structure {structure}\n" if structure else "")
            + f"n {n}\nq{' -1' * n}\nu{' 2' * n}\n")
    return head, lines, n, structure


class TestBulkMatchesLoop:
    """The bulk triplet read answers exactly as the line loop, or leaves the file to it."""

    @settings(max_examples=150, deadline=None)
    @given(_triplet_files(), st.booleans())
    def test_valid_files(self, drawn, final_newline):
        head, lines, n, structure = drawn
        section = "\n".join(lines) + ("\n" if final_newline else "")
        text = f"{head}m {len(lines)}\n{section}"
        assert qpb._bulk_matrix(section, n, len(lines), structure) is not None
        assert _bits(parse_qpb, text) == _bits(_parse_by_loop, text)

    TOKENS = ("1_0", "\u0661", "+1", "1.0", "nan", "inf", "1e400", "-0.0")
    # str.splitlines breaks a line at each of these; np.loadtxt reads them as spaces.
    BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
    MUTATIONS = ([("token", t) for t in TOKENS] + [("break", b) for b in BREAKS]
                 + [(kind, None) for kind in ("crlf", "blank", "blank_for_triplet", "comment",
                                              "trailing", "duplicate", "out_of_range",
                                              "short", "long")])
    # Only these may leave a plain, valid file that the bulk read answers.
    MAY_STAY_PLAIN = {("token", "+1"), ("token", "1.0"), ("token", "-0.0")}

    @pytest.mark.parametrize("mutation", MUTATIONS, ids=[f"{k}-{a!r}" for k, a in MUTATIONS])
    @settings(max_examples=25, deadline=None)
    @given(drawn=_triplet_files(), data=st.data())
    def test_mutated_files(self, mutation, drawn, data):
        # Every mutation either keeps the file valid (then both reads give the
        # same bits) or breaks it (then both raise the same error, same line).
        head, lines, n, structure = drawn
        kind, arg = mutation
        nnz = len(lines)
        at = data.draw(st.integers(0, nnz - 1))
        tokens = lines[at].split()
        if kind == "token":
            tokens[data.draw(st.integers(0, 2))] = arg
            lines[at] = " ".join(tokens)
        elif kind == "break":
            cut = data.draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:cut] + arg + lines[at][cut:]
        elif kind == "blank":
            lines.insert(at, data.draw(st.sampled_from(["", " ", "\t "])))
        elif kind == "blank_for_triplet":
            lines[at] = data.draw(st.sampled_from(["", " ", "\t "]))
        elif kind == "comment":
            lines[at] += data.draw(st.sampled_from([" # note", "#", "  #1 1 1"]))
        elif kind == "trailing":
            lines.append(data.draw(st.sampled_from(["u 1", "1 1", "extra stuff"])))
        elif kind == "duplicate":
            lines.insert(data.draw(st.integers(0, nnz)), f"{tokens[1]} {tokens[0]} 3.5")
            nnz += 1
        elif kind == "out_of_range":
            tokens[data.draw(st.integers(0, 1))] = str(data.draw(st.sampled_from([0, n + 1])))
            lines[at] = " ".join(tokens)
        elif kind == "short":
            nnz += 1
        elif kind == "long":
            nnz -= 1
        section = "\n".join(lines) + "\n"
        if kind == "crlf":
            section = section.replace("\n", "\r\n")
        text = f"{head}m {nnz}\n{section}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if mutation not in self.MAY_STAY_PLAIN:
                assert qpb._bulk_matrix(section, n, nnz, structure) is None
            assert _bits(parse_qpb, text) == _bits(_parse_by_loop, text)
        assert not caught, "a numpy warning left the bulk read"

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                                     "\x1e", "\x85", "\u2028", "\u2029"])
    def test_line_numbers_follow_splitlines(self, brk):
        records = ["qpb 1", "", "n 2", "q 0 0", "u 1 1", "m 2", "1 1 1", "", "2 2 bogus"]
        text = brk.join(records) + brk
        with pytest.raises(ParseError) as err:
            parse_qpb(text)
        assert err.value.line == 9
        assert _bits(parse_qpb, text) == _bits(_parse_by_loop, text)


def _reals_by_loop(tokens, lineno, allow_inf=False):
    return np.array([qpb._parse_real(t, lineno, allow_inf) for t in tokens], dtype=float)


def _with_record(key, record):
    """A two-variable file whose q (line 3) or u (line 4) record is ``record``."""
    records = {"q": "-1 -1", "u": "1 1", key: record}
    return f"qpb 1\nn 2\nq {records['q']}\nu {records['u']}\nm 1\n1 1 1.0\n"


class TestVectorRecords:
    """The q and u records convert in bulk and answer exactly as the per-token loop."""

    BAD = [("q", "1 inf"), ("q", "-inf 1"), ("q", "nan 1"), ("u", "nan 1"), ("u", "1 -inf"),
           ("q", "1e 1"), ("u", "1 1e"), ("q", "1 abc nan"), ("u", "2 inf nan"),
           ("u", "1"), ("q", "1 1 1"), ("u", "abc"), ("q", "1 1 nan"), ("q", "")]
    VALID = [("u", "1 inf"), ("u", "1e400 2"), ("q", "+1 -0.0"), ("q", "1_0 ١"),
             ("u", "2.5 1E3"), ("q", "-1e-320 7")]

    @staticmethod
    def _both(text, monkeypatch):
        got = _bits(parse_qpb, text)
        monkeypatch.setattr(qpb, "_parse_reals", _reals_by_loop)
        return got, _bits(parse_qpb, text)

    @pytest.mark.parametrize("key, record", BAD)
    def test_bad_record_raises_the_loop_error(self, key, record, monkeypatch):
        got, want = self._both(_with_record(key, record), monkeypatch)
        assert got == want
        assert got[0] is ParseError and got[2] == (3 if key == "q" else 4)

    @pytest.mark.parametrize("key, record", VALID)
    def test_valid_record_matches_the_loop(self, key, record, monkeypatch):
        got, want = self._both(_with_record(key, record), monkeypatch)
        assert got == want
        assert len(got) == 4  # the storage bits, not an error
