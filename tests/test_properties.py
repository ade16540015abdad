import threading
from math import comb, factorial, log2

import pytest
from hypothesis import given, settings, strategies as st

from wderiv import (
    PropertyReport,
    build_table,
    check_lemma1,
    check_ratio_bound,
    is_log_concave,
    is_log_concave_weighted,
    is_positive,
    is_unimodal,
    properties,
)
from wderiv.cli import main


def log_concave_sequences():
    """Positive log-concave integer sequences: scaled binomial rows c*C(n,k)*t^k.

    Both factors are log-concave in k and products of log-concave
    sequences are log-concave.
    """
    return st.tuples(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=1000),
    ).map(lambda a: [a[2] * comb(a[0], k) * a[1] ** k for k in range(a[0] + 1)])


class TestPositive:
    def test_examples(self):
        assert is_positive([625, 974, 622, 192, 24]).holds
        assert is_positive([1]).holds
        report = is_positive([2, -1, 3])
        assert not report.holds
        assert report.first_violation == (1,)

    def test_empty_is_domain_error(self):
        with pytest.raises(ValueError):
            is_positive([])

    def test_zero_counts_as_violation(self):
        assert is_positive([1, 0, 2]).first_violation == (1,)


class TestLogConcave:
    def test_examples(self):
        assert is_log_concave([9, 8, 2]).holds            # 9*2 <= 64
        assert is_log_concave([1, 1]).holds               # no interior index
        report = is_log_concave([1, 1, 2])
        assert not report.holds
        assert report.first_violation == (1,)

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            is_log_concave([3, 0, 1])
        with pytest.raises(ValueError):
            is_log_concave([])

    @given(log_concave_sequences())
    def test_construction_is_log_concave(self, seq):
        assert is_log_concave(seq).holds


class TestWeightedLogConcave:
    def test_row5(self, table8):
        assert is_log_concave_weighted(table8.rows[5]).holds

    def test_constant_pair(self):
        assert is_log_concave_weighted([7, 7]).holds

    def test_rows_up_to_40(self, table40):
        for n in range(3, 41):
            assert is_log_concave_weighted(table40.rows[n]).holds

    def test_weighting_matters(self):
        # 1, 1, 1 is log-concave but 0!*1, 1!*1, 2!*1 = 1, 1, 2 is not
        assert is_log_concave([1, 1, 1]).holds
        report = is_log_concave_weighted([1, 1, 1])
        assert not report.holds
        assert report.first_violation == (1,)


class TestUnimodal:
    def test_examples(self):
        report = is_unimodal([64, 79, 36, 6])
        assert report.holds
        assert report.mode_index == 1
        single = is_unimodal([1])
        assert single.holds and single.mode_index == 0
        assert not is_unimodal([1, 3, 2, 4]).holds

    def test_violation_index(self):
        report = is_unimodal([1, 3, 2, 4])
        assert report.first_violation == (2, 3)
        assert report.mode_index is None

    def test_plateau_reports_leftmost_mode(self):
        report = is_unimodal([1, 5, 5, 2])
        assert report.holds
        assert report.mode_index == 1

    def test_monotone_sequences_are_unimodal(self):
        assert is_unimodal([1, 2, 3]).mode_index == 2
        assert is_unimodal([3, 2, 1]).mode_index == 0

    def test_empty_is_domain_error(self):
        with pytest.raises(ValueError):
            is_unimodal([])


class TestRatioBound:
    def test_row5(self, table8):
        report = check_ratio_bound(5, table8.rows[5])
        assert report.holds  # e.g. k=3: 4*24 = 96 < 4*192

    def test_row3_by_hand(self):
        assert check_ratio_bound(3, [9, 8, 2]).holds  # 1*8 < 2*9 and 2*2 < 2*8

    def test_constructed_violation(self):
        report = check_ratio_bound(3, [1, 2, 2])
        assert not report.holds
        assert report.first_violation == (0, 1)  # 1*2 < 2*1 is false

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            check_ratio_bound(2, [2, 1])
        with pytest.raises(ValueError):
            check_ratio_bound(3, [1, 2])
        with pytest.raises(ValueError):
            check_ratio_bound(3, [1, -2, 1])


class TestLemma1:
    def test_row5_hand_instance(self, table8):
        # (k, m) = (2, 2): 622^2 = 386884 >= C(4,2)*625*24 = 90000
        assert check_lemma1(table8.rows[5]).holds

    def test_m_zero_is_trivial_equality(self):
        seq = [4, 4]  # k! weighted: 4, 4 -> log-concave
        assert check_lemma1(seq).holds

    def test_rows_up_to_40(self, table40):
        for n in range(3, 41):
            assert check_lemma1(table40.rows[n]).holds

    def test_precondition_failures(self):
        with pytest.raises(ValueError):
            check_lemma1([1, -1])
        with pytest.raises(ValueError):
            check_lemma1([1, 1, 1])  # weighted sequence not log-concave

    @given(log_concave_sequences())
    def test_holds_whenever_precondition_does(self, seq):
        # the inequality is a theorem for weighted-log-concave sequences, so
        # on valid inputs the check can only confirm it
        if is_log_concave_weighted(seq).holds:
            assert check_lemma1(seq).holds


class TestImplication:
    def test_log_concave_positive_implies_unimodal_on_rows(self, table40):
        for n in range(1, 41):
            row = table40.rows[n]
            assert is_positive(row).holds
            if is_log_concave(row).holds:
                assert is_unimodal(row).holds

    @given(log_concave_sequences())
    def test_on_constructed_sequences(self, seq):
        assert is_unimodal(seq).holds

    @settings(max_examples=200)
    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8))
    def test_on_random_positive_sequences(self, seq):
        if is_log_concave(seq).holds:
            assert is_unimodal(seq).holds


class TestPropertyReport:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            PropertyReport("positive", True, first_violation=(0,))
        with pytest.raises(ValueError):
            PropertyReport("positive", False)

    def test_exhaustive_row_check(self, table40):
        for n in range(3, 41):
            row = table40.rows[n]
            assert is_positive(row).holds
            assert is_log_concave(row).holds
            assert is_log_concave_weighted(row).holds
            assert is_unimodal(row).holds
            assert check_ratio_bound(n, row).holds
            assert check_lemma1(row).holds


# Exact references: plain cross-multiplied loops with no float screen.  The
# screened checks must give the same report, or the same ValueError message,
# on every input.

def _ref_log_concave(seq):
    for k in range(1, len(seq) - 1):
        if seq[k - 1] * seq[k + 1] > seq[k] * seq[k]:
            return (False, (k,))
    return (True, None)


def _ref_require_positive(seq):
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")
    for i, c in enumerate(seq):
        if c <= 0:
            raise ValueError(f"sequence must be positive, entry {i} is {c}")


def _ref_weighted(seq):
    return [factorial(j) * c for j, c in enumerate(seq)]


def ref_is_log_concave(seq):
    _ref_require_positive(seq)
    return _ref_log_concave(seq)


def ref_is_log_concave_weighted(seq):
    _ref_require_positive(seq)
    return _ref_log_concave(_ref_weighted(seq))


def ref_check_lemma1(seq):
    _ref_require_positive(seq)
    a = _ref_weighted(seq)
    if not _ref_log_concave(a)[0]:
        raise ValueError("lemma1 requires {k! c_k} to be log-concave")
    for k in range(len(a)):
        for m in range(min(k + 1, len(a) - 1 - k) + 1):
            if a[k] * a[m] < a[0] * a[k + m]:
                return (False, (k, m))
    return (True, None)


SCREENED = [
    (is_log_concave, ref_is_log_concave),
    (is_log_concave_weighted, ref_is_log_concave_weighted),
    (check_lemma1, ref_check_lemma1),
]


def outcome(check, seq):
    try:
        result = check(seq)
    except ValueError as exc:
        return ("ValueError", str(exc))
    if isinstance(result, PropertyReport):
        return (result.holds, result.first_violation)
    return result


def assert_matches_reference(seq):
    for check, reference in SCREENED:
        assert outcome(check, seq) == outcome(reference, seq), check.__name__


def lemma1_tie_row(length, r):
    """c_j = C r^j / j! with C a multiple of (length-1)!: a_j = j! c_j is
    geometric, so every Lemma 1 pair and every weighted log-concavity
    comparison is an exact tie."""
    big = factorial(length - 1) * 3**1000
    return [big * r**j // factorial(j) for j in range(length)]


def log_concave_tie_row(length):
    """2^j 5^(L-j) 3^1000: geometric, so every log-concavity comparison ties."""
    return [2**j * 5**(length - 1 - j) * 3**1000 for j in range(length)]


def weighted_unit_break_row(length):
    """Plain log-concave, but (k+1) c_{k-1} c_{k+1} = k c_k^2 + 1 at
    k = length - 2 (length >= 3): the (k+1)/k factor alone breaks the
    weighted log-concavity there, by one unit.  Before k the weighted row is
    geometric (exact ties); shorter lengths give a prefix of length 3.
    """
    k = max(length - 2, 1)
    y = (k + 1) * 3**500 + 1  # y = 1 mod k+1, so k y^2 + 1 = 0 mod k+1
    x = (k * y * y + 1) // (k + 1)
    prefix = [x * factorial(k - 1) * 2**(k - 1 - j) // factorial(j) for j in range(k)]
    return (prefix + [y, 1])[:length]


def bumped(seq):
    """seq with one entry moved by +-1, for every entry that stays positive."""
    for j in range(len(seq)):
        for step in (1, -1):
            if seq[j] + step > 0:
                yield seq[:j] + [seq[j] + step] + seq[j + 1:]


def lemma1_precondition_sequences():
    """Positive sequences whose weighted row a_j = j! c_j has non-increasing
    ratios p_j / D, so they meet the Lemma 1 precondition by construction.

    a_0 = s (L-1)! D^(L-1) makes every a_j = a_0 p_1 ... p_j / D^j a
    multiple of (L-1)!, hence c_j = a_j / j! an integer; equal p's give
    exact ties.
    """
    return st.tuples(
        st.lists(st.integers(min_value=1, max_value=60), max_size=11),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=1000),
    ).map(_precondition_row)


def _precondition_row(args):
    ratios, denom, scale = args
    ratios = sorted(ratios, reverse=True)
    length = len(ratios) + 1
    a = [scale * factorial(length - 1) * denom ** (length - 1)]
    for p in ratios:
        a.append(a[-1] * p // denom)
    return [a_j // factorial(j) for j, a_j in enumerate(a)]


class TestScreenMatchesExactReference:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 9, 25])
    def test_exact_ties(self, length):
        for seq in (lemma1_tie_row(length, 1), lemma1_tie_row(length, 7),
                    log_concave_tie_row(length), weighted_unit_break_row(length)):
            assert_matches_reference(seq)
        assert check_lemma1(lemma1_tie_row(length, 7)).holds
        assert is_log_concave(log_concave_tie_row(length)).holds
        assert is_log_concave(weighted_unit_break_row(length)).holds

    @pytest.mark.parametrize("length", [2, 3, 5, 12])
    def test_ties_bumped_in_the_last_bit(self, length):
        for row in (lemma1_tie_row(length, 7), log_concave_tie_row(length),
                    weighted_unit_break_row(length)):
            for seq in bumped(row):
                assert_matches_reference(seq)

    def test_bumped_rows_of_the_table(self):
        table = build_table(200)
        for n in (3, 17, 90, 200):
            row = list(table.rows[n])
            for j in sorted({0, 1, n // 2, n - 2, n - 1}):
                for step in (1, -1):
                    seq = row[:j] + [row[j] + step] + row[j + 1:]
                    assert_matches_reference(seq)

    def test_violations_in_the_last_bit_are_found(self):
        # one unit more at a_1, or one less at a_2, of a geometric row breaks
        # log-concavity at k = 2 and nowhere before
        row = log_concave_tie_row(5)
        assert is_log_concave(row[:1] + [row[1] + 1] + row[2:]).first_violation == (2,)
        assert is_log_concave(row[:2] + [row[2] - 1] + row[3:]).first_violation == (2,)
        # one unit more at the last entry breaks the Lemma 1 precondition
        tie = lemma1_tie_row(4, 7)
        with pytest.raises(ValueError, match="log-concave"):
            check_lemma1(tie[:3] + [tie[3] + 1])
        # the (k+1)/k factor alone, one unit past a tie, breaks k = 3
        assert is_log_concave_weighted(weighted_unit_break_row(5)).first_violation == (3,)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=2**3000),
                    min_size=1, max_size=12))
    def test_random_positive_sequences(self, seq):
        assert_matches_reference(seq)

    @settings(max_examples=300, deadline=None)
    @given(lemma1_precondition_sequences())
    def test_lemma1_on_its_precondition(self, seq):
        # every example meets the precondition, so the pair scan of the
        # reference runs in full and must agree that the inequality holds
        assert outcome(ref_is_log_concave_weighted, seq) == (True, None)
        assert outcome(check_lemma1, seq) == outcome(ref_check_lemma1, seq) == (True, None)


# References for rewrites of the two row walks the battery runs on every
# row: ``is_positive`` as it walked every entry, and the log-concavity
# screen as it indexes its list of logs at each k.  Each report, and each
# count of comparisons that reach the exact test, must be the same.

def walked_is_positive(seq):
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")
    for i, c in enumerate(seq):
        if c <= 0:
            return PropertyReport("positive", False, first_violation=(i,))
    return PropertyReport("positive", True)


def indexed_log_concave(seq, name, weighted):
    _ref_require_positive(seq)
    logs = list(map(log2, seq))
    tol = 1e-9 * max(1.0, max(map(abs, logs)))
    for k in range(1, len(seq) - 1):
        shift = log2((k + 1) / k) if weighted else 0.0
        if 2 * logs[k] - logs[k - 1] - logs[k + 1] - shift <= tol:
            p, q = (k + 1, k) if weighted else (1, 1)
            if p * seq[k - 1] * seq[k + 1] > q * seq[k] * seq[k]:
                return PropertyReport(name, False, first_violation=(k,))
    return PropertyReport(name, True)


class IndexCounted(list):
    """A list that counts its indexed reads.  Iteration, ``len``, ``min``
    and ``map`` do not index it, so only the exact test does, four reads a
    comparison."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


TABLE60 = build_table(60)
TABLE300 = build_table(300)


@st.composite
def edited_rows(draw):
    """A table row, a binomial row s C(n-1, k) p^k q^(n-1-k), a tie row or a
    random list, then perhaps one entry set to 0, negated, or moved by +-1."""
    row = draw(st.one_of(
        st.integers(min_value=1, max_value=60).map(lambda n: list(TABLE60.rows[n])),
        st.tuples(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=6),
                  st.integers(min_value=1, max_value=6),
                  st.integers(min_value=1, max_value=10**6)).map(
            lambda a: [a[3] * comb(a[0] - 1, k) * a[1]**k * a[2]**(a[0] - 1 - k)
                       for k in range(a[0])]),
        st.integers(min_value=1, max_value=12).flatmap(lambda length: st.sampled_from([
            lemma1_tie_row(length, 7), log_concave_tie_row(length),
            weighted_unit_break_row(length)])),
        st.lists(st.integers(min_value=-3, max_value=2**200), min_size=1, max_size=12)))
    j = draw(st.integers(min_value=0, max_value=len(row) - 1))
    edit = draw(st.sampled_from(["none", "zero", "negate", "up", "down"]))
    row[j] = {"none": row[j], "zero": 0, "negate": -row[j],
              "up": row[j] + 1, "down": row[j] - 1}[edit]
    return row


class TestRowWalksMatchTheirCopies:
    @staticmethod
    def counted(check, seq):
        seq = IndexCounted(seq)
        return outcome(check, seq), seq.reads

    @settings(max_examples=400, deadline=None)
    @given(edited_rows())
    def test_reports_and_exact_comparisons(self, seq):
        assert outcome(is_positive, seq) == outcome(walked_is_positive, seq)
        for check, name, weighted in ((is_log_concave, "log_concave", False),
                                      (is_log_concave_weighted, "log_concave_weighted", True)):
            assert self.counted(check, seq) == self.counted(
                lambda s: indexed_log_concave(s, name, weighted), seq), name

    def test_ties_reach_the_exact_test(self):
        # the count is not vacuous: a geometric row sends every interior k
        # to the exact test, four reads each
        row = log_concave_tie_row(9)
        assert self.counted(is_log_concave, row) == ((True, None), 4 * 7)
        assert self.counted(lambda s: indexed_log_concave(s, "log_concave", False),
                            row) == ((True, None), 4 * 7)

    def test_the_default_rows_reach_no_exact_test(self):
        for n, row in enumerate(build_table(200).rows[1:], 1):
            assert self.counted(is_log_concave_weighted, row) == ((True, None), 0), n

    # The weighted screen reads its shifts from ``properties._SHIFTS``, which
    # grows when a longer row arrives.  From the initial table, the walks must
    # give the same reports, and the same exact-test reads, as their copies
    # whatever order the rows come in, and from two threads at once.

    @classmethod
    def walks(cls, seq):
        return (outcome(is_positive, seq), cls.counted(is_log_concave, seq),
                cls.counted(is_log_concave_weighted, seq))

    @classmethod
    def copied_walks(cls, seq):
        return (outcome(walked_is_positive, seq),
                cls.counted(lambda s: indexed_log_concave(s, "log_concave", False), seq),
                cls.counted(lambda s: indexed_log_concave(s, "log_concave_weighted", True), seq))

    @settings(max_examples=5, deadline=None)
    @given(st.randoms(use_true_random=False), st.lists(edited_rows(), max_size=20))
    def test_the_shift_table_grows_partway(self, rnd, edited):
        seqs = [list(row) for row in TABLE300.rows[1:]] + edited
        rnd.shuffle(seqs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(properties, "_SHIFTS", (0.0,))
            for seq in seqs:
                assert self.walks(seq) == self.copied_walks(seq), seq

    def test_two_threads_grow_one_table(self, monkeypatch):
        rows = [list(row) for row in TABLE300.rows[1:201]]
        monkeypatch.setattr(properties, "_SHIFTS", (0.0,))
        start = threading.Barrier(2)
        results = {}

        def run(order):
            start.wait()
            results[order] = [self.walks(rows[n - 1]) for n in order]

        orders = (range(1, 201), range(200, 0, -1))
        threads = [threading.Thread(target=run, args=(order,)) for order in orders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for order in orders:
            assert results[order] == [self.walks(rows[n - 1]) for n in order]


def test_default_verify_computes_each_shift_once(monkeypatch, capsys):
    """The default ``verify`` makes each weighted shift log2((k+1)/k) once
    per process (it made one per interior k of rows 1..200, 19,701 in all),
    and the table holds that very float at every k >= 1."""
    calls = []

    def counted_log2(x):
        if isinstance(x, float):
            calls.append(x)
        return log2(x)

    monkeypatch.setattr(properties, "_SHIFTS", (0.0,))
    monkeypatch.setattr(properties, "log2", counted_log2)
    assert main(["verify"]) == 0
    assert len(calls) < 1000
    shifts = properties._SHIFTS
    assert len(shifts) >= 199
    for k in range(1, len(shifts)):
        assert shifts[k] == log2((k + 1) / k) and shifts[k].hex() == log2((k + 1) / k).hex(), k
