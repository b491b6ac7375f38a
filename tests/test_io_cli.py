"""CSV/JSON serialization and the command-line surface.

CLI tests go through cli_dispatch, which is the real entry point (main wraps
it), so exit codes are asserted exactly as a shell would see them.  Floats
are written with shortest round-trip formatting, so file round-trips are
checked for bit equality, which is stronger than the documented 1e-12.
"""

import csv
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ijcov import (
    ChainConfig,
    Dataset,
    NormalMeanModel,
    PoissonGammaREModel,
    bayes_covariance,
    block_bootstrap_se,
    ij_covariance,
    influence_scores,
    map_optimize,
    sample_posterior,
    sandwich_covariance,
)
from ijcov import io as ijcov_io
from ijcov.cli import cli_dispatch
from ijcov.errors import IngestError
from ijcov.io import (
    assemble_sample,
    cov_from_dict,
    cov_to_dict,
    fmt,
    read_dataset_csv,
    write_dataset_csv,
    write_draws_csv,
    write_json,
    write_loglik_csv,
)
from ijcov.samplers import PosteriorSample


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture(scope="module")
def poisson_files(tmp_path_factory):
    """One simulated dataset and one sampled chain, shared read-only."""
    root = tmp_path_factory.mktemp("pois")
    args = ["--seed", "3", "--out", str(root), "simulate", "--model", "poisson_re",
            "--n", "12", "--g-count", "3", "--gamma-true", "0.5",
            "--alpha", "3.0", "--beta", "1.5"]
    assert cli_dispatch(args) == 0
    args = ["--seed", "7", "--out", str(root), "sample", "--model", "poisson_re",
            "--g-count", "3", "--alpha", "3.0", "--beta", "1.5",
            "--m", "300", "--data", str(root / "dataset.csv")]
    assert cli_dispatch(args) == 0
    return {
        "dir": root,
        "dataset": root / "dataset.csv",
        "draws": root / "draws.csv",
        "loglik": root / "loglik.csv",
    }


@pytest.fixture()
def toy_files(tmp_path):
    """Three draw rows, two data points, chosen for hand arithmetic.

    With g = p_2 = (1, 2, 4) the centered g is (-4/3, -1/3, 5/3); the
    centered log-lik columns are (-1, 0, 1) and (-1, -1, 2).  The influence
    scores are psi = N/(M-1) * ll~^T g~ = (3, 5), whose covariance with
    divisor N-1 is 2."""
    d = tmp_path / "d.csv"
    l = tmp_path / "l.csv"
    d.write_text("draw,p_1,p_2\n0,0.5,1.0\n1,1.5,2.0\n2,2.5,4.0\n")
    l.write_text("draw,ll_1,ll_2\n0,1.0,2.0\n1,2.0,2.0\n2,3.0,5.0\n")
    return d, l


class TestFloatFormatting:
    def test_shortest_round_trip(self):
        for x in (0.1, 1.0 / 3.0, 1e-300, -2.5e-17, math.pi, 1e17 + 1.0):
            assert float(fmt(x)) == x

    def test_integers_stay_plain(self):
        assert fmt(7) == "7"
        assert fmt(np.int64(-3)) == "-3"


class TestDatasetCsv:
    def test_poisson_round_trip(self, tmp_path):
        data = Dataset(np.array([[3, 0], [1, 1], [4, 1]], dtype=np.int64))
        path = tmp_path / "ds.csv"
        write_dataset_csv(path, data, "poisson_re")
        back, kind = read_dataset_csv(path)
        assert kind == "poisson_re"
        np.testing.assert_array_equal(back.units, data.units)

    def test_normal_round_trip(self, tmp_path):
        vals = np.array([0.1, -1.0 / 3.0, 2.5e-17])
        path = tmp_path / "ds.csv"
        write_dataset_csv(path, Dataset(vals), "normal")
        back, kind = read_dataset_csv(path)
        assert kind == "normal"
        np.testing.assert_array_equal(np.asarray(back.units, dtype=float), vals)

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            write_dataset_csv(tmp_path / "x.csv", Dataset(np.zeros(2)), "beta")

    def test_unrecognized_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(IngestError, match="header"):
            read_dataset_csv(path)

    def test_fractional_counts_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("y,a\n1.5,0\n")
        with pytest.raises(IngestError, match="integers"):
            read_dataset_csv(path)

    def test_counts_beyond_float_precision_load_exactly(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("y,a\n9007199254740993,0\n9223372036854775807,1\n3.0,1.0\n")
        back, _ = read_dataset_csv(path)
        assert back.units.tolist() == [[2**53 + 1, 0], [2**63 - 1, 1], [3, 1]]

    def test_count_of_two_to_the_63_refused(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("y,a\n1,0\n9223372036854775808,1\n")
        with pytest.raises(IngestError, match=r"row 2: y and a must lie in \[0, 2\^63\)"):
            read_dataset_csv(path)

    def test_ragged_normal_row_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"x\r\n1.0,99\r\n2.0\r\n")
        with pytest.raises(IngestError, match="row 1: expected 1 cell, got 2"):
            read_dataset_csv(path)


def small_chain(m=600):
    data = Dataset(np.array([[3, 0], [1, 1], [4, 2], [2, 2]], dtype=np.int64))
    model = PoissonGammaREModel(group_count=3, alpha=3.0, beta=1.5)
    cfg = ChainConfig(m_draws=m, rng_seed=5)
    return sample_posterior(model, data, cfg=cfg)


class TestDrawFileRoundTrip:
    def test_bit_exact(self, tmp_path):
        sample = small_chain()
        dpath, lpath = tmp_path / "d.csv", tmp_path / "l.csv"
        write_draws_csv(dpath, sample)
        write_loglik_csv(lpath, sample)
        back = assemble_sample(dpath, lpath)
        np.testing.assert_array_equal(back.draws, sample.draws)
        np.testing.assert_array_equal(back.g_values, sample.g_values)
        np.testing.assert_array_equal(back.loglik, sample.loglik)
        assert back.n_data == sample.n_data

    def test_estimate_identical_after_round_trip(self, tmp_path):
        sample = small_chain()
        dpath, lpath = tmp_path / "d.csv", tmp_path / "l.csv"
        write_draws_csv(dpath, sample)
        write_loglik_csv(lpath, sample)
        direct = ij_covariance(influence_scores(sample))
        via_files = ij_covariance(influence_scores(assemble_sample(dpath, lpath)))
        np.testing.assert_array_equal(via_files.v, direct.v)

    def test_minimal_two_draw_file(self, tmp_path):
        d = tmp_path / "d.csv"
        l = tmp_path / "l.csv"
        d.write_text("draw,p_1\n0,1.0\n1,2.0\n")
        l.write_text("draw,ll_1\n0,-0.5\n1,-1.5\n")
        sample = assemble_sample(d, l, g_cols="1")
        psi = influence_scores(sample)
        assert psi.psi.shape == (1, 1)

    def test_bayes_refused_without_a_data_count(self, tmp_path):
        # with no log-likelihood file the sample has n_data = 0, and a Bayes
        # covariance scaled by it would read all zeros
        sample = small_chain()
        dpath = tmp_path / "d.csv"
        write_draws_csv(dpath, sample)
        back = assemble_sample(dpath)
        assert back.n_data == 0 and back.g_values.mean() != 0.0
        with pytest.raises(ValueError, match="data count N"):
            bayes_covariance(back)
        with pytest.raises(ValueError, match="data count N"):
            block_bootstrap_se(back, "bayes_cov", blocks=20, reps=60)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # short blocks
            mean_se = block_bootstrap_se(back, "mean_g", blocks=20, reps=60)
        assert mean_se.xi[0] > 0.0  # mean_g is not scaled by N

    def test_custom_param_names_survive(self, tmp_path):
        sample = small_chain(m=40)
        dpath = tmp_path / "d.csv"
        write_draws_csv(dpath, sample, param_names=["gam", "l1", "l2", "l3"])
        back = assemble_sample(dpath, g_expr="gam")
        np.testing.assert_array_equal(back.g_values[:, 0], sample.draws[:, 0])


class TestIngestValidation:
    def write(self, tmp_path, text, name="d.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_nan_cell_cites_row(self, tmp_path):
        rows = "".join(f"{i},{i}.5\n" for i in range(4))
        path = self.write(tmp_path, "draw,p_1\n" + rows + "4,nan\n5,5.5\n")
        with pytest.raises(IngestError, match="row 5"):
            assemble_sample(path, g_cols="1")

    def test_non_numeric_cell(self, tmp_path):
        path = self.write(tmp_path, "draw,p_1\n0,1.0\n1,oops\n")
        with pytest.raises(IngestError, match="row 2.*not numeric"):
            assemble_sample(path, g_cols="1")

    def test_duplicate_draw_index(self, tmp_path):
        path = self.write(tmp_path, "draw,p_1\n0,1.0\n1,2.0\n1,3.0\n")
        with pytest.raises(IngestError, match="row 3: duplicate"):
            assemble_sample(path, g_cols="1")

    def test_decreasing_draw_index(self, tmp_path):
        path = self.write(tmp_path, "draw,p_1\n0,1.0\n5,2.0\n2,3.0\n")
        with pytest.raises(IngestError, match="row 3: decreasing"):
            assemble_sample(path, g_cols="1")

    def test_fractional_draw_index(self, tmp_path):
        path = self.write(tmp_path, "draw,p_1\n0,1.0\n1.5,2.0\n")
        with pytest.raises(IngestError, match="integer"):
            assemble_sample(path, g_cols="1")

    def test_ragged_row(self, tmp_path):
        path = self.write(tmp_path, "draw,p_1,p_2\n0,1.0,2.0\n1,2.0\n")
        with pytest.raises(IngestError, match="expected 3 cells"):
            assemble_sample(path, g_cols="1")

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(IngestError, match="empty"):
            assemble_sample(path)

    def test_single_draw_rejected(self, tmp_path):
        path = self.write(tmp_path, "draw,p_1\n0,1.0\n")
        with pytest.raises(IngestError, match="at least 2"):
            assemble_sample(path, g_cols="1")

    def test_wrong_lead_column(self, tmp_path):
        path = self.write(tmp_path, "iter,p_1\n0,1.0\n1,2.0\n")
        with pytest.raises(IngestError, match="first column"):
            assemble_sample(path, g_cols="1")

    def test_g_only_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "draw,g_1\n0,1.0\n1,2.0\n")
        with pytest.raises(IngestError, match="no parameter columns"):
            assemble_sample(path)

    def test_row_count_mismatch_across_files(self, tmp_path):
        d = self.write(tmp_path, "draw,p_1\n0,1.0\n1,2.0\n2,3.0\n")
        l = self.write(tmp_path, "draw,ll_1\n0,-1.0\n1,-2.0\n", name="l.csv")
        with pytest.raises(IngestError, match="row-count mismatch"):
            assemble_sample(d, l, g_cols="1")

    def test_draw_index_disagreement_across_files(self, tmp_path):
        d = self.write(tmp_path, "draw,p_1\n0,1.0\n1,2.0\n")
        l = self.write(tmp_path, "draw,ll_1\n0,-1.0\n2,-2.0\n", name="l.csv")
        with pytest.raises(IngestError, match="row 2.*differs"):
            assemble_sample(d, l, g_cols="1")


def csv_fmt_oracle(path, header, rows):
    """The writer the vectorized one replaced: csv.writer over fmt() cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-5, 1e-4,
    1e16, 9999999999999998.0, 1e22, 1.7976931348623157e308, -1.0 / 3.0,
]
float_cells = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def posterior_samples(draw):
    m, d, q, n = (draw(st.integers(lo, hi)) for lo, hi in ((2, 6), (1, 3), (1, 2), (1, 4)))

    def block(cols):
        cells = draw(st.lists(float_cells, min_size=m * cols, max_size=m * cols))
        return np.array(cells, dtype=np.float64).reshape(m, cols)

    return PosteriorSample(draws=block(d), g_values=block(q), loglik=block(n), n_data=n)


class TestWriterMatchesCsvOracle:
    @settings(max_examples=60, deadline=None)
    @given(sample=posterior_samples())
    def test_bytes_equal(self, sample):
        m, d, q, n = sample.m, sample.draws.shape[1], sample.q, sample.n_data
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_draws_csv(tmp / "d.csv", sample)
            csv_fmt_oracle(
                tmp / "d0.csv",
                ["draw", *[f"p_{j + 1}" for j in range(d)], *[f"g_{j + 1}" for j in range(q)]],
                ([i, *sample.draws[i], *sample.g_values[i]] for i in range(m)),
            )
            write_loglik_csv(tmp / "l.csv", sample)
            csv_fmt_oracle(
                tmp / "l0.csv",
                ["draw", *[f"ll_{j + 1}" for j in range(n)]],
                ([i, *sample.loglik[i]] for i in range(m)),
            )
            assert (tmp / "d.csv").read_bytes() == (tmp / "d0.csv").read_bytes()
            assert (tmp / "l.csv").read_bytes() == (tmp / "l0.csv").read_bytes()

    def test_five_digit_draw_indices(self, tmp_path):
        m = 10_050
        vals = np.resize(np.array(EDGE_FLOATS), (m, 1))
        sample = PosteriorSample(draws=vals, g_values=-vals, loglik=vals, n_data=1)
        write_loglik_csv(tmp_path / "l.csv", sample)
        csv_fmt_oracle(tmp_path / "l0.csv", ["draw", "ll_1"],
                       ([i, *vals[i]] for i in range(m)))
        assert (tmp_path / "l.csv").read_bytes() == (tmp_path / "l0.csv").read_bytes()


def parse_outcome(parse, path):
    """Everything a parser's result or refusal exposes, in comparable form."""
    try:
        idx, cols, vals = parse(path, "draw")
    except IngestError as exc:
        return str(exc)
    return idx.dtype.str, idx.tobytes(), cols, vals.dtype.str, vals.shape, vals.tobytes()


def assert_paths_agree(path):
    fast = parse_outcome(ijcov_io._parse_indexed_block, path)
    assert fast == parse_outcome(ijcov_io._parse_indexed_cells, path)
    return fast


BODY = [["0", "0.5", "-1.25"], ["1", "1e-05", "5e-324"],
        ["2", "-0.0", "9999999999999998.0"], ["3", "1e16", "2.5"]]


def render(rows, end="\r\n", header="draw,p_1,p_2", final=True):
    lines = [header, *(",".join(r) for r in rows)]
    return end.join(lines) + (end if final else "")


def with_cell(r, c, text):
    rows = [list(row) for row in BODY]
    rows[r][c] = text
    return rows


FAST_CASES = {
    "crlf": render(BODY),
    "lf_only": render(BODY, end="\n"),
    "no_trailing_newline": render(BODY, final=False),
    "whitespace_padded": render(with_cell(1, 1, " \t1e-05 ")),
    "large_draw_indices": render([["-5", "1.0", "2.0"], ["9007199254740993", "1.0", "2.0"],
                                  ["9.2e18", "3.0", "4.0"]]),
    "mixed_crlf_and_lf": render(BODY[:2]) + render(BODY[2:], end="\n", header="")[1:],
    "cr_only": render(BODY, end="\r"),
    "cr_no_final_newline": render(BODY, end="\r", final=False),
    "mixed_cr_lf_crlf": "".join(line + end for line, end in zip(
        render(BODY, end="\n").splitlines(), ["\r", "\n", "\r\n", "\r", "\n"])),
}
FALLBACK_CASES = {
    "quoted_cell": render(with_cell(2, 1, '"-0.0"')),
    "quoted_header": render(BODY, header='"draw",p_1,p_2'),
    "underscore_digits": render(with_cell(1, 2, "1_0")),
    "arabic_digit": render(with_cell(1, 2, "\u0661")),
    "blank_line_mid_body": render(BODY[:2] + [[]] + BODY[2:]),
    "whitespace_line": render(BODY[:2] + [["  "]] + BODY[2:]),
    "trailing_blank_line": render(BODY) + "\r\n",
    "stray_cr": render(BODY).replace("-1.25\r\n", "-1.25\r\r\n"),
    "nan": render(with_cell(0, 2, "nan")),
    "inf": render(with_cell(3, 1, "-inf")),
    "overflow": render(with_cell(3, 1, "1e400")),
    "ragged_short": render(BODY[:2] + [["2", "1.0"]] + BODY[3:]),
    "ragged_long": render(BODY[:1] + [["1", "1.0", "2.0", "3.0"]] + BODY[2:]),
    "empty_cell": render(with_cell(0, 1, "")),
    "non_numeric": render(with_cell(2, 2, "oops")),
    "fractional_draw": render(with_cell(1, 0, "1.5")),
    "duplicate_draw": render(with_cell(2, 0, "1")),
    "decreasing_draw": render(with_cell(3, 0, "0")),
    "one_row_body": render(BODY[:1]),
    "header_only": "draw,p_1,p_2\r\n",
    "empty_file": "",
    "leading_blank_line": "\r\n" + render(BODY),
    "wrong_lead_column": render(BODY, header="iter,p_1,p_2"),
    "no_data_columns": render([["0"], ["1"]], header="draw"),
    "header_wider_than_body": render(BODY, header="draw,p_1,p_2,p_3"),
    "draw_index_beyond_int64": render(with_cell(3, 0, "1e19")),
}


class TestReaderMatchesCellParser:
    """The fast path against the per-cell validator, called directly as the
    oracle: bit-equal arrays, or the same IngestError message."""

    def write(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        return path

    @pytest.mark.parametrize("name", sorted(FAST_CASES))
    def test_well_formed_file_takes_fast_path(self, tmp_path, name):
        path = self.write(tmp_path, FAST_CASES[name])
        assert ijcov_io._load_indexed_block(path, "draw") is not None
        assert not isinstance(assert_paths_agree(path), str)

    @pytest.mark.parametrize("name", sorted(FALLBACK_CASES))
    def test_malformed_file_reaches_cell_parser(self, tmp_path, name):
        path = self.write(tmp_path, FALLBACK_CASES[name])
        assert ijcov_io._load_indexed_block(path, "draw") is None
        assert_paths_agree(path)

    def test_well_formed_file_opened_once(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, FAST_CASES["crlf"])
        opened = []
        real_open = open

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return real_open(*args, **kwargs)

        monkeypatch.setattr(ijcov_io, "open", counting_open, raising=False)
        ijcov_io._parse_indexed_block(path, "draw")
        assert opened == [path]

    def test_row_numbered_message_survives(self, tmp_path):
        path = self.write(tmp_path, FALLBACK_CASES["blank_line_mid_body"])
        assert assert_paths_agree(path) == "row 3: expected 3 cells, got 0"

    @settings(max_examples=200, deadline=None)
    @given(
        x=float_cells,
        form=st.sampled_from(["{!r}", "{:.17g}", "{:.3e}", "{:+.6E}", "{:.20f}", " {!r}\t"]),
    )
    def test_float_text_parses_to_same_bits(self, x, form):
        text = render(with_cell(1, 1, form.format(x)))
        with tempfile.TemporaryDirectory() as tmp:
            assert_paths_agree(self.write(Path(tmp), text))

    @settings(max_examples=200, deadline=None)
    @given(cell=st.text(alphabet="0123456789.-+eEinfa_ \t\u0661\u00a0", max_size=8),
           row=st.integers(0, 3), col=st.integers(0, 2))
    def test_arbitrary_cell_text_agrees(self, cell, row, col):
        text = render(with_cell(row, col, cell))
        with tempfile.TemporaryDirectory() as tmp:
            assert_paths_agree(self.write(Path(tmp), text))


class TestGResolution:
    def test_file_columns_win(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("draw,p_1,g_1\n0,1.0,10.0\n1,2.0,20.0\n")
        sample = assemble_sample(path, g_cols="1")
        np.testing.assert_array_equal(sample.g_values[:, 0], [10.0, 20.0])

    def test_g_cols_selects_parameters(self, toy_files):
        d, l = toy_files
        sample = assemble_sample(d, l, g_cols="2,1")
        np.testing.assert_array_equal(sample.g_values[:, 0], [1.0, 2.0, 4.0])
        np.testing.assert_array_equal(sample.g_values[:, 1], [0.5, 1.5, 2.5])

    def test_g_cols_not_integers(self, toy_files):
        d, _ = toy_files
        with pytest.raises(IngestError, match="integers"):
            assemble_sample(d, g_cols="p_2")

    def test_g_cols_out_of_range(self, toy_files):
        d, _ = toy_files
        with pytest.raises(IngestError, match="out of range"):
            assemble_sample(d, g_cols="3")

    def test_g_expr_arithmetic(self, toy_files):
        d, _ = toy_files
        sample = assemble_sample(d, g_expr="p_1 + 2*p_2")
        np.testing.assert_allclose(sample.g_values[:, 0], [2.5, 5.5, 10.5])

    def test_g_expr_failure_wrapped(self, toy_files):
        d, _ = toy_files
        with pytest.raises(IngestError, match="--g-expr failed"):
            assemble_sample(d, g_expr="nope + 1")

    def test_g_expr_numpy_functions(self, toy_files):
        d, _ = toy_files
        sample = assemble_sample(d, g_expr="np.log(p_1) + 2*p_2")
        want = np.log([0.5, 1.5, 2.5]) + 2 * np.array([1.0, 2.0, 4.0])
        np.testing.assert_array_equal(sample.g_values[:, 0], want)

    @pytest.mark.parametrize("expr", [
        "().__class__.__bases__[0].__subclasses__()",
        "p_1.__class__",
        "np.load('x.npy')",
        "__import__('os')",
        "[p_1][0]",
        "9**9**9",
    ])
    def test_g_expr_outside_whitelist_refused(self, toy_files, expr):
        d, _ = toy_files
        with pytest.raises(IngestError, match="--g-expr failed"):
            assemble_sample(d, g_expr=expr)

    def test_no_g_anywhere(self, toy_files):
        d, _ = toy_files
        with pytest.raises(IngestError, match="--g-cols or --g-expr"):
            assemble_sample(d)


class TestCovJson:
    def test_round_trip_with_se(self):
        from ijcov.estimators import CovEstimate

        est = CovEstimate(
            v=np.array([[2.0, 0.5], [0.5, 1.0]]), method="ij", b_or_m=100
        ).with_se(np.array([[0.1, 0.2], [0.2, 0.3]]))
        back = cov_from_dict(cov_to_dict(est))
        np.testing.assert_array_equal(back.v, est.v)
        np.testing.assert_array_equal(back.se, est.se)
        assert back.method == "ij" and back.b_or_m == 100

    def test_round_trip_without_se(self):
        from ijcov.estimators import CovEstimate

        est = CovEstimate(v=np.array([[1.5]]), method="boot", b_or_m=50)
        back = cov_from_dict(cov_to_dict(est))
        assert back.se is None
        np.testing.assert_array_equal(back.v, est.v)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_refused_before_writing(self, tmp_path, value):
        # NaN and Infinity are not JSON
        path = tmp_path / "out" / "v.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(path, {"v": [[1.0, value]]})
        assert not path.exists()


class TestCliIj:
    def test_toy_file_hand_value(self, capsys, toy_files):
        d, l = toy_files
        code, out, _ = run_cli(capsys, "ij", "--draws", str(d), "--loglik", str(l),
                               "--g-cols", "2")
        assert code == 0
        assert float(out.strip().splitlines()[0]) == pytest.approx(2.0, rel=1e-12)

    def test_json_payload(self, capsys, toy_files, tmp_path):
        d, l = toy_files
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "--out", str(out_dir), "--format", "json",
                               "ij", "--draws", str(d), "--loglik", str(l),
                               "--g-cols", "2")
        assert code == 0
        payload = json.loads((out_dir / "v_ij.json").read_text())
        assert payload["method"] == "ij"
        assert payload["v"][0][0] == pytest.approx(2.0, rel=1e-12)

    def test_csv_payload(self, capsys, toy_files, tmp_path):
        d, l = toy_files
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "--out", str(out_dir), "ij",
                               "--draws", str(d), "--loglik", str(l), "--g-cols", "2")
        assert code == 0
        lines = (out_dir / "v_ij.csv").read_text().splitlines()
        assert lines[0] == "i,j,estimate,se"
        assert len(lines) == 2  # q = 1

    def test_missing_loglik_names_flag(self, capsys, toy_files):
        d, _ = toy_files
        code, _, err = run_cli(capsys, "ij", "--draws", str(d))
        assert code == 1
        assert "--loglik" in err

    def test_g_expr_needs_one_value_per_draw(self, capsys, toy_files):
        d, l = toy_files
        code, out, err = run_cli(capsys, "ij", "--draws", str(d), "--loglik", str(l),
                                 "--g-expr", "2.0")
        assert code == 1 and out == ""
        assert err == "error: --g-expr must give one value per draw (3), got shape ()\n"

    def test_unknown_option(self, capsys):
        code, _, err = run_cli(capsys, "ij", "--bogus")
        assert code == 1
        assert "option" in err.lower()

    def test_ingest_error_exits_1(self, capsys, tmp_path):
        d = tmp_path / "d.csv"
        l = tmp_path / "l.csv"
        d.write_text("draw,p_1\n0,1.0\n1,nan\n")
        l.write_text("draw,ll_1\n0,-1.0\n1,-2.0\n")
        code, _, err = run_cli(capsys, "ij", "--draws", str(d), "--loglik", str(l),
                               "--g-cols", "1")
        assert code == 1
        assert "row 2" in err

    def test_draw_index_beyond_int64_exits_1(self, capsys, tmp_path):
        d = tmp_path / "d.csv"
        l = tmp_path / "l.csv"
        d.write_text("draw,p_1\n0,1.0\n1e19,2.0\n")
        l.write_text("draw,ll_1\n0,-1.0\n1,-2.0\n")
        code, out, err = run_cli(capsys, "ij", "--draws", str(d), "--loglik", str(l),
                                 "--g-cols", "1")
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: row 2: draw index 1e19 outside int64"]


class TestCliSimulateSample:
    def test_simulate_normal_row_count(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "--out", str(tmp_path), "simulate",
                               "--model", "normal", "--n", "17")
        assert code == 0
        assert sum(1 for _ in open(tmp_path / "dataset.csv")) == 18

    def test_simulate_poisson_writes_truth(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "--seed", "2", "--out", str(tmp_path),
                             "simulate", "--model", "poisson_re", "--n", "9",
                             "--g-count", "3")
        assert code == 0
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert len(truth["theta_true"]) == 4  # global + one effect per group

    def test_same_seed_byte_identical(self, capsys, poisson_files, tmp_path):
        outs = []
        for sub in ("a", "b"):
            code, _, _ = run_cli(
                capsys, "--seed", "7", "--out", str(tmp_path / sub), "sample",
                "--model", "poisson_re", "--g-count", "3", "--alpha", "3.0",
                "--beta", "1.5", "--m", "200", "--data", str(poisson_files["dataset"]),
            )
            assert code == 0
            outs.append((tmp_path / sub / "draws.csv").read_bytes()
                        + (tmp_path / sub / "loglik.csv").read_bytes())
        assert outs[0] == outs[1]
        code, _, _ = run_cli(
            capsys, "--seed", "8", "--out", str(tmp_path / "c"), "sample",
            "--model", "poisson_re", "--g-count", "3", "--alpha", "3.0",
            "--beta", "1.5", "--m", "200", "--data", str(poisson_files["dataset"]),
        )
        assert (tmp_path / "c" / "draws.csv").read_bytes() != outs[0][: len(outs[0])]

    def test_sample_reports_min_ess(self, capsys, poisson_files, tmp_path):
        code, out, _ = run_cli(
            capsys, "--out", str(tmp_path), "sample", "--model", "poisson_re",
            "--g-count", "3", "--alpha", "3.0", "--beta", "1.5", "--m", "200",
            "--data", str(poisson_files["dataset"]),
        )
        assert code == 0
        assert "min ESS" in out

    def test_config_file_fills_required_options(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"n": 5, "model": "normal"}}))
        code, _, _ = run_cli(capsys, "--config", str(cfg), "--out",
                             str(tmp_path / "o"), "simulate")
        assert code == 0
        assert sum(1 for _ in open(tmp_path / "o" / "dataset.csv")) == 6

    @pytest.mark.parametrize(
        "doc, argv",
        [([1, 2], ["simulate"]), ({"ij": 3}, ["ij", "--draws", "x", "--loglik", "y"])],
        ids=["top_level_array", "non_object_section"],
    )
    def test_config_must_be_object_of_objects(self, capsys, tmp_path, doc, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "--config", str(cfg), "--out",
                                 str(tmp_path / "o"), *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {cfg}: --config must be a JSON object")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_malformed_config_json_names_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{simulate: {}}")
        code, out, err = run_cli(capsys, "--config", str(cfg), "simulate")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {cfg}: Expecting property name")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("row", ["100000000000000000000,1", "-3,1", "2,-1"],
                             ids=["count_beyond_int64", "negative_count", "negative_group"])
    def test_out_of_range_dataset_row_refused(self, capsys, tmp_path, row):
        data = tmp_path / "dataset.csv"
        data.write_text(f"y,a\n2,0\n{row}\n1,2\n")
        code, out, err = run_cli(capsys, "--out", str(tmp_path / "o"), "sample",
                                 "--model", "poisson_re", "--g-count", "3", "--m", "40",
                                 "--data", str(data))
        assert code == 1 and out == ""
        assert err == "error: row 2: y and a must lie in [0, 2^63)\n"
        assert not (tmp_path / "o").exists()

    def test_dataset_kind_mismatch(self, capsys, poisson_files):
        code, _, err = run_cli(capsys, "sandwich", "--model", "normal",
                               "--data", str(poisson_files["dataset"]))
        assert code == 1
        assert "expected normal" in err


class TestCliEstimators:
    def test_sandwich_matches_library(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "--seed", "4", "--out", str(tmp_path),
                             "simulate", "--model", "normal", "--n", "60")
        assert code == 0
        code, out, _ = run_cli(capsys, "sandwich", "--model", "normal",
                               "--data", str(tmp_path / "dataset.csv"))
        assert code == 0
        data, _ = read_dataset_csv(tmp_path / "dataset.csv")
        model = NormalMeanModel(known_sd=1.0)
        want = sandwich_covariance(map_optimize(model, data), model).v[0, 0]
        assert float(out.strip().splitlines()[0]) == pytest.approx(want, rel=1e-12)

    def test_sandwich_poisson_re_refused_before_compute(self, capsys, tmp_path):
        # flat direction gamma + c, lambda - c makes the RE information
        # singular, so the command refuses before reading the (here
        # malformed) dataset
        junk = tmp_path / "junk.csv"
        junk.write_text("not a dataset\n")
        code, out, err = run_cli(capsys, "sandwich", "--model", "poisson_re",
                                 "--g-count", "3", "--data", str(junk))
        assert code == 1 and out == ""
        assert err.startswith("error: sandwich is undefined for poisson_re")
        assert len(err.strip().splitlines()) == 1

    def test_bootstrap_smoke(self, capsys, poisson_files, tmp_path):
        code, out, _ = run_cli(
            capsys, "--seed", "1", "--out", str(tmp_path), "bootstrap",
            "--model", "poisson_re", "--g-count", "3", "--alpha", "3.0",
            "--beta", "1.5", "--m", "200", "--b", "12",
            "--data", str(poisson_files["dataset"]),
        )
        assert code == 0
        assert "se:" in out
        assert (tmp_path / "v_boot.csv").exists()

    @pytest.mark.parametrize("sub", ["sample", "bootstrap"])
    def test_method_option_is_gone(self, capsys, tmp_path, sub):
        data = tmp_path / "dataset.csv"
        data.write_text("x\n0.5\n-1.0\n2.0\n")
        code, out, err = run_cli(capsys, "--out", str(tmp_path / "o"), sub,
                                 "--model", "normal", "--m", "40", "--data", str(data),
                                 "--method", "gibbs" if sub == "sample" else "mh")
        assert code == 1 and out == ""
        assert "No such option" in err and "--method" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("how", ["flag_zero", "env_negative"])
    def test_threads_below_one_refused_before_compute(self, capsys, monkeypatch,
                                                      poisson_files, tmp_path, how):
        def no_compute(*args, **kwargs):
            raise AssertionError("bootstrap ran with threads < 1")

        monkeypatch.setattr("ijcov.cli.bootstrap_covariance", no_compute)
        argv = ["--out", str(tmp_path / "o")]
        if how == "flag_zero":
            argv = ["--threads", "0", *argv]
        else:
            monkeypatch.setenv("IJCOV_THREADS", "-3")
        code, out, err = run_cli(capsys, *argv, "bootstrap", "--model", "poisson_re",
                                 "--g-count", "3", "--m", "200", "--b", "12",
                                 "--data", str(poisson_files["dataset"]))
        assert code == 1 and out == ""
        assert "Invalid value for '--threads'" in err
        assert not (tmp_path / "o").exists()

    def test_bootstrap_group_label_out_of_range_exits_1(self, capsys, monkeypatch, tmp_path):
        # checked once before any replicate starts; it used to fail inside
        # replicate 0 as a numerical failure (exit 2)
        def no_replicates(*args, **kwargs):
            raise AssertionError("replicates started on invalid data")

        monkeypatch.setattr("ijcov.estimators.map_replicates", no_replicates)
        data = tmp_path / "dataset.csv"
        data.write_text("y,a\n2,0\n3,5\n1,2\n")
        code, out, err = run_cli(capsys, "--out", str(tmp_path / "o"), "bootstrap",
                                 "--model", "poisson_re", "--g-count", "3", "--m", "40",
                                 "--b", "10", "--data", str(data))
        assert code == 1 and out == ""
        assert err == "error: group labels outside [0, group_count)\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sample", "bootstrap"])
    def test_all_zero_counts_exit_1(self, capsys, monkeypatch, tmp_path, command):
        # refused before any chain starts; it used to exit 2 as an improper
        # conditional from inside the chain
        def no_chain(*args, **kwargs):
            raise AssertionError("a chain started on invalid data")

        monkeypatch.setattr("ijcov.samplers._gibbs_poisson_re", no_chain)
        data = tmp_path / "dataset.csv"
        data.write_text("y,a\n0,0\n0,1\n0,2\n")
        extra = ["--b", "10"] if command == "bootstrap" else []
        code, out, err = run_cli(capsys, "--out", str(tmp_path / "o"), command,
                                 "--model", "poisson_re", "--g-count", "3", "--m", "40",
                                 *extra, "--data", str(data))
        assert code == 1 and out == ""
        assert err.startswith("error: all counts are zero") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_bootstrap_too_few_replicates(self, capsys, poisson_files):
        code, _, err = run_cli(
            capsys, "bootstrap", "--model", "poisson_re", "--g-count", "3",
            "--alpha", "3.0", "--beta", "1.5", "--m", "200", "--b", "8",
            "--data", str(poisson_files["dataset"]),
        )
        assert code == 1
        assert "replicates" in err

    def test_bootstrap_too_few_replicates_refused_before_chains(self, capsys, monkeypatch,
                                                               poisson_files):
        def no_replicates(*args, **kwargs):
            raise AssertionError("replicate chains started with --b below the floor")

        monkeypatch.setattr("ijcov.estimators.map_replicates", no_replicates)
        code, out, err = run_cli(
            capsys, "bootstrap", "--model", "poisson_re", "--g-count", "3",
            "--alpha", "3.0", "--beta", "1.5", "--m", "200", "--b", "9",
            "--data", str(poisson_files["dataset"]),
        )
        assert code == 1 and out == ""
        assert err == "error: --b must be >= 10 replicates for the delta-method SE\n"


class TestCliMcse:
    def test_prints_nonnegative_matrix(self, capsys, poisson_files):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, _ = run_cli(
                capsys, "mcse", "--draws", str(poisson_files["draws"]),
                "--loglik", str(poisson_files["loglik"]),
                "--statistic", "ij_cov", "--reps", "60",
            )
        assert code == 0
        val = float(out.strip().splitlines()[0])
        assert val >= 0.0 and math.isfinite(val)

    def test_bayes_cov_json_sidecar(self, capsys, poisson_files, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, _, _ = run_cli(
                capsys, "--out", str(tmp_path), "--format", "json", "mcse",
                "--draws", str(poisson_files["draws"]),
                "--loglik", str(poisson_files["loglik"]),
                "--statistic", "bayes_cov", "--reps", "60",
            )
        assert code == 0
        payload = json.loads((tmp_path / "xi_bayes_cov.json").read_text())
        assert set(payload) == {"xi", "method", "blocks", "reps"}
        assert payload["reps"] == 60


class TestCliDiagnose:
    def test_reports_kappa_and_flag(self, capsys, poisson_files, tmp_path):
        code, out, _ = run_cli(
            capsys, "--out", str(tmp_path), "--format", "json", "diagnose",
            "--data", str(poisson_files["dataset"]),
            "--draws", str(poisson_files["draws"]),
            "--g-count", "3", "--alpha", "3.0", "--beta", "1.5",
            "--ij-se", "1e-6",
        )
        assert code == 0
        assert "kappa_hat = " in out
        assert "predicted IJ bias: LIKELY" in out
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        assert set(payload) == {"kappa_hat", "resid_t1_hat", "per_group_trace",
                                "rho_nn_mean", "predicted_bias"}
        assert payload["predicted_bias"] is True

    def test_g_from_model_when_file_has_no_g_columns(self, capsys, poisson_files, tmp_path):
        lines = poisson_files["draws"].read_text().splitlines()
        assert lines[0].endswith(",g_1")
        no_g = tmp_path / "no_g.csv"
        no_g.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
        outs = []
        for draws in (poisson_files["draws"], no_g):
            code, out, err = run_cli(
                capsys, "diagnose", "--data", str(poisson_files["dataset"]),
                "--draws", str(draws), "--g-count", "3", "--alpha", "3.0", "--beta", "1.5",
            )
            assert code == 0, err
            outs.append(out)
        assert outs[0].startswith("kappa_hat = ")
        assert outs[1] == outs[0]

    def test_wrong_draw_dimension(self, capsys, poisson_files, tmp_path):
        d = tmp_path / "d.csv"
        d.write_text("draw,p_1,g_1\n0,1.0,1.0\n1,2.0,2.0\n")
        code, _, err = run_cli(
            capsys, "diagnose", "--data", str(poisson_files["dataset"]),
            "--draws", str(d), "--g-count", "3", "--alpha", "3.0", "--beta", "1.5",
        )
        assert code == 1
        assert "parameter columns" in err

    @pytest.mark.parametrize("ij_se", ["-1", "nan", "inf", "-inf"])
    def test_bad_ij_se_refused_before_reading(self, capsys, monkeypatch, poisson_files,
                                              tmp_path, ij_se):
        def no_read(*args, **kwargs):
            raise AssertionError("diagnose read a file with a bad --ij-se")

        monkeypatch.setattr("ijcov.cli._load_data", no_read)
        monkeypatch.setattr("ijcov.cli.assemble_sample", no_read)
        code, out, err = run_cli(
            capsys, "--out", str(tmp_path / "o"), "diagnose",
            "--data", str(poisson_files["dataset"]), "--draws", str(poisson_files["draws"]),
            "--g-count", "3", "--alpha", "3.0", "--beta", "1.5", f"--ij-se={ij_se}",
        )
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: --ij-se must be finite and >= 0, got {float(ij_se)!r}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sub", ["simulate", "sample", "diagnose"])
    @pytest.mark.parametrize("prior", [("--alpha", "inf"), ("--alpha", "nan"),
                                       ("--beta", "inf"), ("--beta", "nan")])
    def test_nonfinite_prior_refused(self, capsys, poisson_files, tmp_path, sub, prior):
        args = {
            "simulate": ["--n", "12"],
            "sample": ["--m", "40", "--data", str(poisson_files["dataset"])],
            "diagnose": ["--data", str(poisson_files["dataset"]),
                         "--draws", str(poisson_files["draws"])],
        }[sub]
        if sub != "diagnose":
            args = ["--model", "poisson_re", *args]
        code, out, err = run_cli(capsys, "--out", str(tmp_path / "o"), sub,
                                 "--g-count", "3", *args, *prior)
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: alpha and beta must be finite and positive"]
        assert not (tmp_path / "o").exists()


class TestCliBcltCheck:
    def test_prints_slope_and_writes_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "--out", str(tmp_path), "bclt-check",
            "--model", "poisson_gamma", "--phi", "square",
            "--n-grid", "50,100,200",
        )
        assert code == 0
        assert "slope = " in out
        lines = (tmp_path / "bclt_check.csv").read_text().splitlines()
        assert lines[0] == "n,posterior_mean,phi_map,correction,residual"
        assert len(lines) == 4

    def test_bad_grid_values(self, capsys):
        code, _, err = run_cli(capsys, "bclt-check", "--n-grid", "50,x")
        assert code == 1
        assert "--n-grid" in err

    def test_single_size_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bclt-check", "--n-grid", "100")
        assert code == 1
        assert "two sizes" in err


class TestCliSettingsRefused:
    """Bad settings are refused with one error line before any file is
    read or written and before any chain or MAP fit starts."""

    @pytest.mark.parametrize("argv, message", [
        (["--model", "normal", "--scale", "nan"], "scale must be finite and positive, got nan"),
        (["--model", "normal", "--dist", "gaussian", "--scale", "inf"],
         "scale must be finite and positive, got inf"),
        (["--model", "normal", "--dist", "student_t", "--df", "nan"],
         "student_t needs a finite df > 2 (finite variance), got nan"),
        (["--model", "normal", "--dist", "student_t", "--df", "inf"],
         "student_t needs a finite df > 2 (finite variance), got inf"),
        (["--model", "poisson_re", "--gamma-true", "-inf"], "gamma_true must be finite, got -inf"),
    ], ids=["normal_scale_nan", "gaussian_scale_inf", "student_t_df_nan", "student_t_df_inf",
            "gamma_true_minus_inf"])
    def test_simulate_writes_nothing(self, capsys, tmp_path, argv, message):
        out = tmp_path / "o"
        code, stdout, err = run_cli(capsys, "--out", str(out), "simulate", "--n", "12", *argv)
        assert code == 1 and stdout == ""
        assert err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("sub, patched", [("sample", "sample_posterior"),
                                              ("sandwich", "map_optimize")])
    def test_known_sd_nan_refused_before_fit(self, capsys, monkeypatch, tmp_path, sub, patched):
        def no_fit(*args, **kwargs):
            raise AssertionError(f"{patched} ran with known_sd = nan")

        monkeypatch.setattr(f"ijcov.cli.{patched}", no_fit)
        data = tmp_path / "dataset.csv"
        data.write_text("x\n0.5\n-1.0\n2.0\n")
        extra = ["--m", "40"] if sub == "sample" else []
        code, out, err = run_cli(capsys, "--out", str(tmp_path / "o"), sub, "--model", "normal",
                                 "--known-sd", "nan", *extra, "--data", str(data))
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: known_sd must be finite and positive, got nan"]
        assert not (tmp_path / "o").exists()

    def test_experiment_known_sd_nan_refused_before_study(self, capsys, monkeypatch, tmp_path):
        def never(cfg):
            raise AssertionError("the study must not start")

        monkeypatch.setattr("ijcov.cli.run_experiment", never)
        code, out, err = run_cli(capsys, "--out", str(tmp_path / "o"), "experiment",
                                 "--model", "normal_misspec", "--n", "50", "--known-sd", "nan")
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: known_sd must be finite and positive, got nan"]
        assert not (tmp_path / "o").exists()

    def test_experiment_unused_non_finite_settings_refused(self, capsys, monkeypatch, tmp_path):
        # poisson_re reads neither known_sd nor scale, but result.json
        # would carry both, and NaN or Infinity is not JSON
        def never(*args, **kwargs):
            raise AssertionError("a chain must not start")

        monkeypatch.setattr("ijcov.experiment.sample_posterior", never)
        monkeypatch.setattr("ijcov.estimators.posterior_means", never)
        code, out, err = run_cli(capsys, "--out", str(tmp_path / "o"), "experiment",
                                 "--model", "poisson_re", "--n", "12", "--g-count", "4",
                                 "--m", "200", "--b", "10", "--r", "10",
                                 "--known-sd", "nan", "--scale", "inf")
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: scale must be finite, got inf"]
        assert not (tmp_path / "o").exists()

    def test_simulate_has_no_known_sd(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "--out", str(tmp_path / "o"), "simulate",
                                 "--model", "normal", "--n", "12", "--known-sd", "2")
        assert code == 1 and out == ""
        assert "No such option" in err and "--known-sd" in err
        assert not (tmp_path / "o").exists()

    def test_mcse_reps_floor_before_reading(self, capsys, monkeypatch, poisson_files, tmp_path):
        def no_read(*args, **kwargs):
            raise AssertionError("mcse read the draw files with --reps below the floor")

        monkeypatch.setattr("ijcov.cli.assemble_sample", no_read)
        code, out, err = run_cli(capsys, "--out", str(tmp_path / "o"), "mcse",
                                 "--draws", str(poisson_files["draws"]),
                                 "--loglik", str(poisson_files["loglik"]), "--reps", "49")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: --reps must be >= 50 replicates for the block-bootstrap SE"]
        assert not (tmp_path / "o").exists()


class TestCliSurface:
    def test_experiment_forwards_every_option(self, capsys, monkeypatch, tmp_path):
        class Captured(Exception):
            pass

        seen = []

        def capture(cfg):
            seen.append(cfg)
            raise Captured

        monkeypatch.setattr("ijcov.cli.run_experiment", capture)
        want = dict(model="normal_misspec", n=40, gamma_true=0.25, true_dist="student_t",
                    scale=2.0, df=5.0, g_count=4, alpha=3.0, beta=1.5, known_sd=1.5,
                    m_draws=300, burn_in=0, b_boot=11, r_ground_truth=12, blocks=7,
                    se_reps=60)
        flags = {"true_dist": "--dist", "m_draws": "--m", "burn_in": "--burn", "b_boot": "--b",
                 "r_ground_truth": "--r"}
        argv = []
        for name, value in want.items():
            argv += [flags.get(name, "--" + name.replace("_", "-")), str(value)]
        with pytest.raises(Captured):
            cli_dispatch(["--seed", "9", "--threads", "2", "--out", str(tmp_path / "o"),
                          "experiment", *argv])
        capsys.readouterr()
        (cfg,) = seen
        assert {name: getattr(cfg, name) for name in want} == want
        assert (cfg.seed, cfg.threads, cfg.output_dir) == (9, 2, str(tmp_path / "o"))

    @pytest.mark.parametrize("sub, options", [
        ("", "seed config out threads format"),
        ("simulate", "model g-count alpha beta n gamma-true dist scale df"),
        ("sample", "model g-count alpha beta known-sd m burn thin data"),
        ("ij", "draws loglik g-cols g-expr"),
        ("bootstrap", "model g-count alpha beta known-sd m burn thin data b"),
        ("sandwich", "model g-count alpha beta known-sd data"),
        ("mcse", "draws loglik g-cols g-expr statistic blocks reps"),
        ("diagnose", "data draws g-count alpha beta ij-se"),
        ("bclt-check", "model phi n-grid rate"),
        ("experiment", "model n gamma-true dist scale df g-count alpha beta known-sd m burn b r "
                       "blocks se-reps"),
        ("report", "result"),
    ], ids=lambda v: v or "ijcov")
    def test_help_lists_the_options(self, capsys, sub, options):
        code, out, _ = run_cli(capsys, *filter(None, [sub]), "--help")
        assert code == 0
        want = [f"--{name}" for name in options.split()] + ["--help"]
        assert re.findall(r"^  (--[a-z][a-z-]*)", out, re.M) == want
