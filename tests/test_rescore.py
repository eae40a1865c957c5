"""Hypothesis rescoring tests: combination arithmetic, ranking, file formats."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hapstack.rescore import (
    Hypothesis,
    combine_scores,
    format_ranked,
    read_beam_file,
    rescore_beam,
)


class TestCombineScores:
    def test_sum(self):
        h = combine_scores(Hypothesis(text="x", original_score=-1.0, non_hap=0.9), 1.0)
        assert h.new_score == pytest.approx(-0.1)

    def test_zero_weight(self):
        h = combine_scores(Hypothesis(text="x", original_score=-1.0, non_hap=0.9), 0.0)
        assert h.new_score == -1.0

    def test_weight_two(self):
        h = combine_scores(Hypothesis(text="x", original_score=-1.0, non_hap=0.5), 2.0)
        assert h.new_score == pytest.approx(0.0)

    def test_missing_non_hap(self):
        with pytest.raises(ValueError):
            combine_scores(Hypothesis(text="x", original_score=-1.0), 1.0)

    def test_other_fields_untouched(self):
        before = Hypothesis(text="x", original_score=-2.5, non_hap=0.25)
        after = combine_scores(before, 1.0)
        assert (after.text, after.original_score, after.non_hap) == ("x", -2.5, 0.25)


OFFENSIVE = Hypothesis(text="always smell like sh*t", original_score=-0.5, non_hap=0.02)
BENIGN = Hypothesis(text="always smell like roses", original_score=-1.2, non_hap=0.99)


class TestRescoreBeam:
    def test_benign_hypothesis_flips_to_first(self):
        ranked = rescore_beam([OFFENSIVE, BENIGN], weight=1.0)
        assert ranked[0].text == BENIGN.text
        assert ranked[0].new_score == pytest.approx(-0.21)
        assert ranked[1].new_score == pytest.approx(-0.48)

    def test_zero_weight_keeps_original_ranking(self):
        ranked = rescore_beam([OFFENSIVE, BENIGN], weight=0.0)
        assert [h.text for h in ranked] == [OFFENSIVE.text, BENIGN.text]

    def test_equal_non_hap_keeps_original_ranking(self):
        hyps = [Hypothesis(text=f"h{i}", original_score=-float(i), non_hap=0.5)
                for i in range(5)]
        ranked = rescore_beam(hyps, weight=1.0)
        assert [h.text for h in ranked] == [f"h{i}" for i in range(5)]

    def test_ties_break_by_input_rank(self):
        first = Hypothesis(text="first", original_score=0.0, non_hap=0.5)
        second = Hypothesis(text="second", original_score=0.5, non_hap=0.0)
        ranked = rescore_beam([first, second], weight=1.0)
        assert [h.text for h in ranked] == ["first", "second"]

    def test_empty_beam(self):
        with pytest.raises(ValueError):
            rescore_beam([])

    def test_missing_scores_without_model(self):
        with pytest.raises(ValueError):
            rescore_beam([Hypothesis(text="x", original_score=0.0)])

    def test_model_fills_missing_scores(self, tiny_model):
        hyps = [Hypothesis(text="some words here", original_score=-1.0),
                Hypothesis(text="other words there", original_score=-2.0, non_hap=0.5)]
        ranked = rescore_beam(hyps, model=tiny_model, weight=1.0)
        assert all(h.non_hap is not None and h.new_score is not None for h in ranked)

    # Scores lie on a 1/64 grid so every sum is exact: with arbitrary floats
    # a shift can round two distinct new_scores into a tie (-2e-100 + 1.0).
    @settings(max_examples=100)
    @given(
        st.lists(st.tuples(st.integers(-640, 640).map(lambda n: n / 64),
                           st.integers(0, 64).map(lambda n: n / 64)),
                 min_size=1, max_size=8),
        st.integers(0, 64).map(lambda n: n / 64),
    )
    @example(rows=[(-0.5, 0.25), (-0.25, 0.0)], shift=0.5)
    def test_constant_shift_preserves_ranking(self, rows, shift):
        hyps = [Hypothesis(text=f"h{i}", original_score=orig, non_hap=nh)
                for i, (orig, nh) in enumerate(rows)]
        shifted = [Hypothesis(text=h.text, original_score=h.original_score,
                              non_hap=min(1.0, h.non_hap + shift)) for h in hyps]
        # only apply exact shifts (clamping would change relative order)
        if any(h.non_hap + shift > 1.0 for h in hyps):
            return
        base = [h.text for h in rescore_beam(hyps, weight=1.0)]
        moved = [h.text for h in rescore_beam(shifted, weight=1.0)]
        assert base == moved

    @settings(max_examples=100)
    @given(
        st.lists(st.tuples(st.floats(-5, 5), st.floats(0, 0.5)), min_size=2, max_size=6),
        st.integers(min_value=0, max_value=5),
        st.floats(0.001, 0.5),
    )
    def test_raising_non_hap_never_lowers_rank(self, rows, target, bump):
        target = target % len(rows)
        hyps = [Hypothesis(text=f"h{i}", original_score=orig, non_hap=nh)
                for i, (orig, nh) in enumerate(rows)]
        bumped = [Hypothesis(text=h.text, original_score=h.original_score,
                             non_hap=h.non_hap + bump if i == target else h.non_hap)
                  for i, h in enumerate(hyps)]
        rank_before = [h.text for h in rescore_beam(hyps, weight=1.0)].index(f"h{target}")
        rank_after = [h.text for h in rescore_beam(bumped, weight=1.0)].index(f"h{target}")
        assert rank_after <= rank_before


class TestBeamFiles:
    def test_read_two_column(self, tmp_path):
        path = tmp_path / "beam.tsv"
        path.write_text("-0.5\tlike sh*t\n-1.2\tlike roses\n", encoding="utf-8")
        hyps = read_beam_file(path)
        assert hyps[0] == Hypothesis(text="like sh*t", original_score=-0.5)
        assert hyps[1].original_score == -1.2

    def test_read_three_column(self, tmp_path):
        path = tmp_path / "beam.tsv"
        path.write_text("-0.5\tlike sh*t\t0.02\n-1.2\tlike roses\t0.99\n", encoding="utf-8")
        hyps = read_beam_file(path)
        assert hyps[0].non_hap == 0.02
        assert hyps[1].non_hap == 0.99

    def test_only_lf_ends_a_line(self, tmp_path):
        path = tmp_path / "beam.tsv"
        path.write_bytes(b"-1.0\tgood\rline\n-2.0\tother\n")
        hyps = read_beam_file(path)
        assert [h.text for h in hyps] == ["good\rline", "other"]

    def test_reject_wrong_field_count(self, tmp_path):
        path = tmp_path / "beam.tsv"
        path.write_text("just text\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_beam_file(path)

    @pytest.mark.parametrize("line, accepted", [
        ("nan\ta", False),
        ("-nan\ta\t0.5", False),
        ("-1\tb\t7.5", False),
        ("-1\tb\t-0.1", False),
        ("-1\tb\tnan", False),
        ("-inf\tc", True),
        ("inf\tc\t0.0", True),
        ("-1\tc\t1.0", True),
    ])
    def test_nan_score_or_out_of_range_non_hap_rejected(self, tmp_path, line, accepted):
        path = tmp_path / "beam.tsv"
        path.write_text(f"-0.5\tfine\n{line}\n", encoding="utf-8")
        if accepted:
            assert len(read_beam_file(path)) == 2
        else:
            with pytest.raises(ValueError, match="beam line 2"):
                read_beam_file(path)

    def test_format_ranked(self):
        ranked = rescore_beam([OFFENSIVE, BENIGN], weight=1.0)
        lines = format_ranked(ranked)
        assert lines[0] == "1\t-0.210000\t-1.2\t0.990000\talways smell like roses"
        assert lines[1].startswith("2\t-0.480000\t-0.5\t0.020000\t")
