import bz2
import gzip
import lzma
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randcp import grid as gridmod
from randcp.als import AlsConfig, run_als
from randcp.matricization import Matricization, column_keys, matricize, partition_to_grid
from randcp.tensor import (BoundsError, ModePermutations, ParseError, SparseTensorCOO,
                           apply_permutations, load_frostt, permute_modes,
                           plan_words, read_matrix, sum_duplicates, write_matrix)
from conftest import assert_same_bits, make_sparse, py_column_key


def write_tns(tmp_path, text, name="t.tns"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadFrostt:
    def test_direct_parse(self, tmp_path):
        path = write_tns(tmp_path, "1 1 1 2.0\n2 1 1 3.0\n")
        t = load_frostt(path)
        assert t.dims == (2, 1, 1)
        entries = {(tuple(i), v) for i, v in zip(t.idx.tolist(), t.vals.tolist())}
        assert entries == {((0, 0, 0), 2.0), ((1, 0, 0), 3.0)}

    def test_zero_value_retained(self, tmp_path):
        path = write_tns(tmp_path, "1 1 1 0.0\n2 2 2 1.0\n")
        t = load_frostt(path)
        assert t.nnz == 2
        assert 0.0 in t.vals

    def test_comments_and_inferred_dims(self, tmp_path):
        path = write_tns(tmp_path, "# header\n2 3 4 1.5\n1 1 1 2.5\n")
        t = load_frostt(path)
        assert t.dims == (2, 3, 4)

    def test_duplicates_summed(self, tmp_path):
        path = write_tns(tmp_path, "1 1 1 2.0\n1 1 1 3.0\n2 1 1 1.0\n")
        t = load_frostt(path)
        assert t.nnz == 2
        assert sorted(t.vals.tolist()) == [1.0, 5.0]

    def test_log_transform(self, tmp_path):
        path = write_tns(tmp_path, "1 1 1 1.0\n2 1 1 7.0\n")
        t = load_frostt(path, log_transform=True)
        assert np.allclose(sorted(t.vals), sorted(np.log1p([1.0, 7.0])))

    def test_malformed_line_reports_number(self, tmp_path):
        path = write_tns(tmp_path, "1 1 1 2.0\n1 1 oops 3.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_frostt(path)

    def test_ragged_line_reports_number(self, tmp_path):
        path = write_tns(tmp_path, "1 1 1 2.0\n1 1 1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_frostt(path)

    def test_out_of_bounds_declared_dims(self, tmp_path):
        t = load_frostt(write_tns(tmp_path, "1 1 5 2.0\n"))
        with pytest.raises(BoundsError, match=r"mode-2 index outside \[0, 2\)"):
            SparseTensorCOO((2, 2, 2), t.idx, t.vals)

    def test_zero_index_rejected(self, tmp_path):
        path = write_tns(tmp_path, "0 1 1 2.0\n")
        with pytest.raises(BoundsError):
            load_frostt(path)

    def test_empty_file(self, tmp_path):
        path = write_tns(tmp_path, "# nothing here\n")
        with pytest.raises(ParseError):
            load_frostt(path)


# Lines that carry no data, each ending with the line break given.
JUNK = ["# comment{nl}", "   # indented comment{nl}", "{nl}", "  \t {nl}"]
PREAMBLE = "# header{nl}{nl}   # indented{nl} \t {nl}1 1 1 2.0  # trailing{nl}#{nl}{nl}"
PREAMBLE_LINES = 7


class TestLoaderErrors:
    """Errors name the file line of the offending entry, counting the
    comment and blank lines before it."""

    @pytest.mark.parametrize("nl", ["\n", "\r\n"])
    @pytest.mark.parametrize("bad,exc,message", [
        ("1 1 oops 3.0", ParseError, "cannot parse 'oops'"),
        ("1 1 1", ParseError, "expected 4 fields, got 3"),
        ("1 1.5 1 3.0", ParseError, "non-integer index"),
        ("1 0 1 3.0", BoundsError, "indices are 1-based"),
    ])
    def test_line_number_after_comments(self, tmp_path, nl, bad, exc, message):
        text = (PREAMBLE + "2 2 2 1.0{nl}" + bad + "{nl}# after{nl}2 1 1 4.0{nl}").format(nl=nl)
        p = tmp_path / "t.tns"
        p.write_bytes(text.encode())
        with pytest.raises(exc, match=r"line %d: %s" % (PREAMBLE_LINES + 2, message)):
            load_frostt(str(p))

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    @pytest.mark.parametrize("bad,exc,message", [
        ("1 1 oops 3.0", ParseError, "cannot parse 'oops'"),
        ("1 0 1 3.0", BoundsError, "indices are 1-based"),
    ])
    def test_compressed_file_errors_name_the_line(self, tmp_path, suffix, bad, exc, message):
        """numpy reads a compressed path decompressed, and so does the rescan."""
        text = (PREAMBLE + "2 2 2 1.0{nl}" + bad + "{nl}2 1 1 4.0{nl}").format(nl="\n")
        p = tmp_path / ("t.tns" + suffix)
        opener = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open}[suffix]
        with opener(p, "wt") as fh:
            fh.write(text)
        with pytest.raises(exc, match=r"line %d: %s" % (PREAMBLE_LINES + 2, message)):
            load_frostt(str(p))

    def test_compressed_file_loads_as_plain(self, tmp_path):
        text = "# c\n1 1 1 2.0\n2 3 1 1.5\n1 1 1 0.5\n"
        with gzip.open(tmp_path / "t.tns.gz", "wt") as fh:
            fh.write(text)
        got = load_frostt(str(tmp_path / "t.tns.gz"))
        want = load_frostt(write_tns(tmp_path, text))
        assert got.dims == want.dims
        assert_same_bits([got.idx, got.vals], [want.idx, want.vals])

    @pytest.mark.parametrize("token", ["1_0", "2.5_0", "1e1_0", "\u0661"])
    def test_tokens_numpy_rejects_name_the_line(self, tmp_path, token):
        """Python's float takes digit separators and non-ASCII digits;
        numpy's C reader does not, and the rescan agrees with numpy."""
        with pytest.raises(ValueError):
            np.loadtxt([token])
        path = write_tns(tmp_path, "1 1 1 2.0\n# c\n1 %s 1 3.0\n" % token)
        with pytest.raises(ParseError, match=r"line 3: cannot parse '%s'" % token):
            load_frostt(path)

    @pytest.mark.parametrize("text", ["", "# only comments\n  # and more\n",
                                      "\n  \n\t\n", "# no final newline"])
    def test_no_entries_raises_without_warning(self, tmp_path, text):
        path = write_tns(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="no tensor entries"):
                load_frostt(path)


def lexsort_sum_duplicates(idx, vals):
    """Reference: an N-column lexsort, then one reduceat per run."""
    order = np.lexsort(idx.T[::-1])
    idx_s, vals_s = idx[order], vals[order]
    new_run = np.ones(idx_s.shape[0], dtype=bool)
    new_run[1:] = (idx_s[1:] != idx_s[:-1]).any(axis=1)
    starts = np.flatnonzero(new_run)
    return idx_s[starts], np.add.reduceat(vals_s, starts)


class TestSumDuplicates:
    @pytest.mark.parametrize("dims,words", [
        ((183, 24, 1140, 1717), 1),      # 35 bits
        ((8192,) * 6, 2),                # 78 bits
        ((1 << 40, 1 << 40, 1, 1 << 40), 3),
        ((1, 1, 1), 1),                  # every index 0: zero-width columns
    ])
    def test_matches_lexsort_reference(self, dims, words):
        gen = np.random.default_rng(len(dims) + words)
        pool = np.stack([gen.integers(0, d, 40) for d in dims], axis=1)
        pool[0] = np.array(dims) - 1     # the widest index of every mode
        idx = pool[gen.integers(0, 40, 400)]  # many repeats, some runs over 8
        vals = gen.standard_normal(400)
        assert len(plan_words([(m, int(c.max()).bit_length())
                               for m, c in enumerate(idx.T)])) == words
        got_idx, got_vals = sum_duplicates(idx, vals)
        ref_idx, ref_vals = lexsort_sum_duplicates(idx, vals)
        assert np.array_equal(got_idx, ref_idx) and got_idx.flags.c_contiguous
        assert_same_bits([got_vals], [ref_vals])

    def test_plan_rejects_a_mode_wider_than_its_word(self):
        fields = [(3, 20), (1, 40), (0, 40)]
        assert plan_words(fields, reserve=23) == [[(3, 20), (1, 40)], [(0, 40)]]
        with pytest.raises(ValueError, match="mode 0"):
            plan_words(fields, reserve=24)

    def test_empty(self):
        idx, vals = sum_duplicates(np.zeros((0, 3), dtype=np.int64), np.zeros(0))
        assert idx.shape == (0, 3) and vals.shape == (0,)

    def test_inputs_not_written(self):
        gen = np.random.default_rng(5)
        idx = gen.integers(0, 4, (300, 3))  # many repeats
        vals = gen.standard_normal(300)
        idx0, vals0 = idx.copy(), vals.copy()
        got_idx, got_vals = sum_duplicates(idx, vals)
        assert np.array_equal(idx, idx0) and np.array_equal(vals, vals0)
        assert not np.shares_memory(got_idx, idx) and not np.shares_memory(got_vals, vals)


class TestIngestMemory:
    """load_frostt holds at most one extra copy of the nonzeros beside the
    tensor it returns; a peak over 2.75x the output's bytes means a second
    copy (the text table, a second gathered index) outlived its pass."""

    N_UNIQUE = 50_000

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """(sorted unique file, shuffled file with repeats, expected idx, vals)."""
        gen = np.random.default_rng(22)
        dims = (183, 24, 1140, 1717)
        keys = np.unique(gen.integers(0, np.prod(dims), self.N_UNIQUE + 500))
        keys = keys[gen.permutation(keys.size)[:self.N_UNIQUE]]
        keys.sort()
        idx = np.stack(np.unravel_index(keys, dims), axis=1).astype(np.int64)
        # Multiples of 1/16: every split and every sum of parts is exact.
        sixteenths = gen.integers(-(1 << 20), 1 << 20, idx.shape[0])
        vals = sixteenths / 16.0
        rows = list(zip(idx.tolist(), vals.tolist()))
        shuffled = list(rows)
        for e in gen.choice(idx.shape[0], 5_000, replace=False):  # 5,000 tuples in 2-4 parts
            parts = gen.integers(-(1 << 16), 1 << 16, gen.integers(1, 4))
            shuffled[e] = (rows[e][0], (sixteenths[e] - parts.sum()) / 16.0)
            shuffled.extend((rows[e][0], p / 16.0) for p in parts)
        shuffled = [shuffled[i] for i in gen.permutation(len(shuffled))]
        out = []
        for name, entries in (("sorted.tns", rows), ("shuffled.tns", shuffled)):
            path = tmp_path_factory.mktemp("ingest") / name
            path.write_text("".join("%d %d %d %d %.17g\n" % (*(i + 1 for i in tup), v)
                                    for tup, v in entries))
            out.append(str(path))
        return out[0], out[1], idx, vals

    @pytest.mark.parametrize("which", [0, 1], ids=["sorted-unique", "shuffled-repeats"])
    def test_peak_within_one_extra_copy(self, files, which):
        path, (_, _, idx, vals) = files[which], files
        load_frostt(path)  # first call: imports and reader set-up untraced
        tracemalloc.start()
        try:
            t = load_frostt(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(t.idx, idx) and t.idx.flags.c_contiguous
        assert_same_bits([t.vals], [vals])
        assert t.dims == tuple(int(c.max()) + 1 for c in idx.T)
        assert peak <= 2.75 * (t.idx.nbytes + t.vals.nbytes)


@st.composite
def frostt_files(draw):
    """(text, entries, log_transform): a FROSTT file with comments, blank
    lines, tabs and mixed line ends, its (0-based index tuple, value)
    entries in file order, and whether to load it log-transformed (its
    values are then >= 0).  Index spaces range from a few bits to over 63."""
    n_modes = draw(st.integers(3, 6))
    dims = [1 << draw(st.sampled_from([2, 11, 22])) for _ in range(n_modes)]
    log_transform = draw(st.booleans())
    # Multiples of 1/16 below 2^20 in magnitude: every sum of a few is exact,
    # so the reference's file-order sums are the only correct results.
    values = st.one_of(st.integers(0 if log_transform else -(1 << 24), 1 << 24).map(
        lambda n: n / 16.0), st.sampled_from([0.0, -0.0]))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = [tuple(int(gen.integers(d)) for d in dims) for _ in range(draw(st.integers(1, 8)))]
    entries = draw(st.lists(st.tuples(st.sampled_from(pool), values), min_size=1, max_size=30))
    lines = []
    for tup, v in entries:
        lines.extend(draw(st.lists(st.sampled_from(JUNK), max_size=2)))
        seps = draw(st.lists(st.sampled_from([" ", "\t", "  ", " \t"]),
                             min_size=n_modes, max_size=n_modes))
        fields = ["%d" % (i + 1) for i in tup] + [draw(st.sampled_from(["%r", "%.17g"])) % v]
        line = draw(st.sampled_from(["", " ", "\t"])) + fields[0]
        line += "".join(s + f for s, f in zip(seps, fields[1:]))
        lines.append(line + draw(st.sampled_from(["", "  # note", "#x"])) + "{nl}")
    lines.extend(draw(st.lists(st.sampled_from(JUNK), max_size=2)))
    text = "".join(ln.format(nl=draw(st.sampled_from(["\n", "\r\n"]))) for ln in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")   # no line break after the last line
    return text, entries, log_transform


def reference_load(entries, n_modes, log_transform=False):
    """Values summed per tuple in file order, tuples in lexicographic order."""
    sums = {}
    for tup, v in entries:
        sums[tup] = sums[tup] + v if tup in sums else v
    keys = sorted(sums)
    idx = np.array(keys, dtype=np.int64).reshape(-1, n_modes)
    vals = np.array([sums[k] for k in keys], dtype=np.float64)
    dims = tuple(int(m) + 1 for m in idx.max(axis=0))
    return dims, idx, np.log1p(vals) if log_transform else vals


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(case=frostt_files())
def test_load_frostt_matches_reference(tmp_path_factory, case):
    text, entries, log_transform = case
    n_modes = len(entries[0][0])
    path = tmp_path_factory.mktemp("frostt") / "t.tns"
    path.write_bytes(text.encode())
    t = load_frostt(str(path), log_transform=log_transform)
    ref_dims, ref_idx, ref_vals = reference_load(entries, n_modes, log_transform)
    assert t.dims == ref_dims
    assert np.array_equal(t.idx, ref_idx)
    assert_same_bits([t.vals], [ref_vals])


class TestIndexBounds:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("past_end", [False, True])
    def test_index_outside_its_mode_names_the_mode(self, mode, past_end):
        dims = (3, 4, 5)
        idx = np.array([[0, 1, 2], [2, 3, 4]])
        idx[1, mode] = dims[mode] if past_end else -1
        with pytest.raises(BoundsError, match=r"mode-%d index outside \[0, %d\)"
                           % (mode, dims[mode])):
            SparseTensorCOO(dims, idx, np.ones(2))


class TestPermutations:
    def test_identity_hook(self):
        t = make_sparse((5, 4, 3), 20, seed=0)
        mp = ModePermutations.identity(t.dims)
        t2 = apply_permutations(t, mp)
        assert np.array_equal(t2.idx, t.idx)
        assert np.array_equal(t2.vals, t.vals)

    def test_value_multiset_invariant(self):
        t = make_sparse((5, 4, 3), 25, seed=1)
        t2, _ = permute_modes(t, seed=99)
        assert t2.nnz == t.nnz
        assert np.allclose(sorted(t2.vals), sorted(t.vals))

    def test_round_trip(self):
        t = make_sparse((5, 4, 3), 25, seed=2)
        t2, mp = permute_modes(t, seed=7)
        t3 = apply_permutations(t2, ModePermutations([np.argsort(p) for p in mp.perms]))
        assert np.array_equal(t3.idx, t.idx) and np.array_equal(t3.vals, t.vals)

    def test_input_not_written_and_values_shared(self):
        t = make_sparse((5, 4, 3), 25, seed=4)
        idx0, vals0 = t.idx.copy(), t.vals.copy()
        t2 = apply_permutations(t, ModePermutations.random(t.dims, seed=11))
        assert np.array_equal(t.idx, idx0) and np.array_equal(t.vals, vals0)
        assert not np.shares_memory(t2.idx, t.idx)
        assert t2.vals is t.vals  # values are never written after ingest

    def test_unpermute_factor_reorders_in_place(self):
        mp = ModePermutations.random((9, 4), seed=13)
        U = np.random.default_rng(14).standard_normal((9, 3))
        expected = U[mp.perms[0]]
        out = mp.unpermute_factor(U, 0)
        assert out is U                      # the factor's own buffer, no second copy
        assert np.array_equal(U, expected)

    def test_same_seed_same_perms(self):
        t = make_sparse((5, 4, 3), 25, seed=3)
        _, mp1 = permute_modes(t, seed=5)
        _, mp2 = permute_modes(t, seed=5)
        for p, q in zip(mp1.perms, mp2.perms):
            assert np.array_equal(p, q)


def column_entries(m, index_tuple):
    """All (row, value) pairs of one off-mode column, through the view's lookup."""
    lo, hi = m.lookup_columns(np.array([index_tuple]))
    pos = m.col_order[lo[0]:hi[0]]
    return m.idx[pos, m.mode], m.vals[pos]


class TestMatricize:
    def test_single_nonzero_mode2(self):
        # 1-based mode 2 of the spec example == index 1 here
        t = SparseTensorCOO((2, 2, 2), np.array([[1, 0, 1]]), np.array([5.0]))
        m = matricize(t, 1)
        assert m.nnz == 1
        assert m.idx[m.col_order[0], 1] == 0
        # one level packs modes 2 and 0, one bit each, mode 2 high: the code
        # equals the mixed-radix key; the mode-1 entry is ignored
        _, plan, codes, col_ptr = m._csc
        assert plan == [[(2, 1), (0, 1)]] and col_ptr.tolist() == [0, 1]
        assert codes[0].tolist() == column_keys(np.array([[1, 1, 1]]), t.dims, 1).tolist() == [3]

    def test_column_keys_reject_int64_overflow(self):
        idx = np.zeros((1, 4), dtype=np.int64)
        assert column_keys(idx, (1 << 21, 1 << 21, (1 << 21) - 1, 5), 3)[0] == 0
        with pytest.raises(ValueError):
            column_keys(idx, (1 << 21, 1 << 21, 1 << 21, 5), 3)  # 2^63 keys

    def test_empty_column_lookup(self):
        t = SparseTensorCOO((2, 2, 2), np.array([[1, 0, 1]]), np.array([5.0]))
        m = matricize(t, 1)
        rows, vals = column_entries(m, (0, 0, 0))
        assert rows.size == 0 and vals.size == 0

    def test_lookup_matches_filter_scan_oracle(self):
        t = make_sparse((10, 10, 10), 200, seed=4)
        for mode in range(3):
            m = matricize(t, mode)
            others = [i for i in range(3) if i != mode]
            for key_tuple in {tuple(r) for r in t.idx[:, others].tolist()}:
                full = [0, 0, 0]
                for o, v in zip(others, key_tuple):
                    full[o] = v
                rows, vals = column_entries(m, full)
                mask = np.all(t.idx[:, others] == np.array(key_tuple), axis=1)
                ref = sorted(zip(t.idx[mask, mode].tolist(), t.vals[mask].tolist()))
                assert sorted(zip(rows.tolist(), vals.tolist())) == ref

    def test_round_trip_multiset(self):
        t = make_sparse((6, 5, 4), 50, seed=5)
        for mode in range(3):
            m = matricize(t, mode)
            assert sorted(m.col_order.tolist()) == list(range(t.nnz))
            rows = np.repeat(np.arange(m.n_rows), np.diff(m.row_ptr))
            last = 2 if mode < 2 else 1
            assert sorted(zip(rows.tolist(), m.row_last.tolist(), m.row_vals.tolist())) \
                == sorted(zip(t.idx[:, mode].tolist(), t.idx[:, last].tolist(), t.vals.tolist()))

    def test_object_key_fallback_huge_dims(self):
        dims = (1 << 22, 1 << 22, 1 << 22, 8)  # off-mode space overflows int64
        gen = np.random.default_rng(6)
        idx = np.stack([gen.integers(0, d, 50) for d in dims], 1)
        t = SparseTensorCOO(dims, idx, gen.standard_normal(50))
        m = matricize(t, 3)
        _, plan, codes, col_ptr = m._csc
        assert len(plan) == 2 and all(a.dtype == np.int64 for a in codes + [col_ptr])
        probe = t.idx[7]
        rows, vals = column_entries(m, probe)
        mask = np.all(np.delete(t.idx, 3, axis=1) == np.delete(probe, 3), axis=1)
        assert sorted(rows.tolist()) == sorted(t.idx[mask, 3].tolist())
        assert np.allclose(sorted(vals), sorted(t.vals[mask]))


    @pytest.mark.parametrize("dims", [(6, 5, 4, 3), (1 << 22,) * 4])
    def test_col_order_matches_key_row_sort(self, dims):
        # Few distinct columns and rows, so columns repeat and some entries
        # share every index; one column level for small dims, two for large.
        gen = np.random.default_rng(11)
        cols = np.stack([gen.integers(0, d, 6) for d in dims], 1)
        for mode in range(len(dims)):
            idx = cols[gen.integers(0, 6, 60)]
            idx[:, mode] = gen.integers(0, min(dims[mode], 3), 60)
            m = Matricization(dims, idx, gen.standard_normal(60), mode)
            keys = [py_column_key(row, dims, mode) for row in idx.tolist()]
            ref = sorted(range(60), key=lambda i: (keys[i], idx[i, mode]))
            assert m.col_order.tolist() == ref
            _, plan, codes, col_ptr = m._csc
            assert len(plan) == (1 if dims[0] < 1000 else 2)
            _, counts = np.unique(np.array(keys, dtype=object), return_counts=True)
            assert np.diff(col_ptr).tolist() == counts.tolist()


class TestPartition:
    @staticmethod
    def check_views_reference_tensor(sched):
        # Mode j's view spans all of mode j over the tensor's own arrays.
        t = make_sparse((7, 6, 5), 80, seed=9)
        g = gridmod.ProcessorGrid(t.dims, (2, 3, 1))
        ls = partition_to_grid(t, g, sched)
        assert [m.mode for m in ls.views] == [0, 1, 2]
        for m in ls.views:
            assert m.idx is t.idx and m.vals is t.vals
            assert m.n_rows == t.dims[m.mode]

    def test_tensor_stationary_views_share_nonzeros(self):
        self.check_views_reference_tensor("tensor-stationary")

    def test_accumulator_stationary_views_share_nonzeros(self):
        self.check_views_reference_tensor("accumulator-stationary")

    @pytest.mark.parametrize("sched", ["tensor-stationary", "accumulator-stationary"])
    def test_partition_keeps_no_per_nonzero_data(self, sched):
        # The views add nothing per nonzero; a copy of the nonzeros would
        # keep 40 bytes each, an owner table one.
        t = make_sparse((40, 30, 20, 10), 20000, seed=13)
        g = gridmod.ProcessorGrid(t.dims, (2, 2, 2, 1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            part = partition_to_grid(t, g, sched)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(part.views) == t.mode_count
        assert kept <= 8192

    @pytest.mark.parametrize("sched,copies", [("tensor-stationary", 1),
                                              ("accumulator-stationary", 3)])
    def test_stored_nnz_counts_each_copy_once(self, sched, copies):
        # A rank's tensor-stationary views share one copy; accumulator-
        # stationary stores one replica per mode.
        t = SparseTensorCOO((4, 3, 2), np.array([[1, 2, 0]]), np.array([1.5]))
        g = gridmod.ProcessorGrid(t.dims, (2, 1, 1))
        assert partition_to_grid(t, g, sched).stored_nnz() == copies

    def test_dimension_mismatch(self):
        t = make_sparse((6, 5, 4), 10, seed=10)
        g = gridmod.ProcessorGrid((7, 5, 4), (1, 1, 1))
        with pytest.raises(ValueError):
            partition_to_grid(t, g, "tensor-stationary")


def layouts(m):
    """The layouts view ``m`` holds: "csc" (col_order and the column
    levels) and "csr" (row_ptr, the prefix table and the entries in row
    order)."""
    return {name for name in ("csc", "csr") if "_" + name in vars(m)}


class TestLayoutOnFirstRead:
    """Each view builds the CSC or the CSR analogue when a run first reads it."""

    @staticmethod
    def set_up(schedule):
        t = make_sparse((9, 8, 7), 200, seed=12)
        g = gridmod.ProcessorGrid(t.dims, (2, 2, 1))
        part = partition_to_grid(t, g, schedule)
        return t, g, part, matricize(t, 2), list(part.views)

    @staticmethod
    def run(t, g, part, fit_mat, **kw):
        cfg = AlsConfig(rank=3, rounds=2, procs=g.P, grid_dims=g.grid_dims, fit_every=1,
                        permute=False, **kw)
        run_als(cfg, tensor=t, grid=g, partition=part, fit_mat=fit_mat)

    @pytest.mark.parametrize("sched", ["tensor-stationary", "accumulator-stationary"])
    def test_set_up_builds_no_layout(self, sched):
        _, _, _, fit_mat, views = self.set_up(sched)
        assert all(layouts(m) == set() for m in views + [fit_mat])
        m = views[0]
        order = m.col_order
        assert layouts(m) == {"csc"}
        assert m.col_order is order and m._csc is m._csc  # built once
        ptr = m.row_ptr
        assert layouts(m) == {"csc", "csr"} and m.row_last is m.row_last
        assert ptr[-1] == m.nnz

    def test_exact_run_builds_rows_only(self):
        t, g, part, fit_mat, views = self.set_up("tensor-stationary")
        self.run(t, g, part, fit_mat)
        assert all(m.nnz for m in views)
        assert all(layouts(m) == {"csr"} for m in views)
        assert layouts(fit_mat) == set()  # the fit reads the last solve's MTTKRP

    @pytest.mark.parametrize("sampler", ["sts", "arls-lev"])
    @pytest.mark.parametrize("sched", ["tensor-stationary", "accumulator-stationary"])
    def test_sampled_run_builds_no_rows(self, sched, sampler):
        t, g, part, fit_mat, views = self.set_up(sched)
        self.run(t, g, part, fit_mat, sampler=sampler, samples=256, schedule=sched)
        assert all("csr" not in layouts(m) for m in views)
        assert any(layouts(m) == {"csc"} for m in views)
        assert layouts(fit_mat) == {"csr"}


def test_matrix_file_round_trip(tmp_path):
    M = np.random.default_rng(0).standard_normal((7, 3))
    path = str(tmp_path / "m.bin")
    write_matrix(path, M)
    assert np.array_equal(read_matrix(path), M)
    sigma = np.array([1.5, 2.5])
    write_matrix(str(tmp_path / "s.bin"), sigma)
    assert np.array_equal(read_matrix(str(tmp_path / "s.bin")), sigma[:, None])
