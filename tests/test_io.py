"""Tests for CSV ingestion, config resolution, and output tables."""

import json

import numpy as np
import pytest

from robroc.errors import DataError, UsageError
from robroc.io import (RunConfig, load_config, parse_grid, parse_knots,
                       parse_values, read_csv, read_table, write_manifest,
                       write_table)


def write_data(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


BASIC = """outcome,disease,age
1.5,0,30
2.5,1,40
3.5,1,50
"""


class TestReadCsv:
    def test_basic_file(self, tmp_path):
        ds = read_csv(write_data(tmp_path, BASIC), "outcome", "disease", ["age"])
        assert ds.n == 3
        np.testing.assert_array_equal(ds.outcomes, [1.5, 2.5, 3.5])
        np.testing.assert_array_equal(ds.disease, [0, 1, 1])
        assert ds.covariates.shape == (3, 1)
        np.testing.assert_array_equal(ds.rows, [1, 2, 3])
        assert ds.n_skipped == 0
        assert ds.covariate_names == ["age"]

    def test_group_split(self, tmp_path):
        ds = read_csv(write_data(tmp_path, BASIC), "outcome", "disease", ["age"])
        nd = ds.group(0)
        d = ds.group(1)
        assert nd.label == "nondiseased"
        assert d.label == "diseased"
        np.testing.assert_array_equal(nd.outcomes, [1.5])
        np.testing.assert_array_equal(d.rows, [2, 3])

    def test_unknown_column(self, tmp_path):
        with pytest.raises(DataError, match="'weight' not in data file"):
            read_csv(write_data(tmp_path, BASIC), "outcome", "disease",
                     ["weight"])

    def test_bad_disease_value_names_row(self, tmp_path):
        text = "outcome,disease,age\n1.0,0,30\n2.0,2,40\n"
        with pytest.raises(DataError, match="must be 0 or 1.*row 2"):
            read_csv(write_data(tmp_path, text), "outcome", "disease", ["age"])

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        text = "outcome,disease,age\n1.0,0,30\n2.0,1,old\n"
        with pytest.raises(DataError, match="'old' in column 'age' at data row 2"):
            read_csv(write_data(tmp_path, text), "outcome", "disease", ["age"])

    @pytest.mark.parametrize("token", ["", "NA", "nan", "NULL"])
    def test_missing_tokens_abort_by_default(self, tmp_path, token):
        text = f"outcome,disease,age\n1.0,0,30\n{token},1,40\n2.0,1,50\n"
        with pytest.raises(DataError, match="missing value.*row 2"):
            read_csv(write_data(tmp_path, text), "outcome", "disease", ["age"])

    def test_skip_missing_counts_rows(self, tmp_path):
        text = "outcome,disease,age\n1.0,0,30\nNA,1,40\n2.0,1,50\n"
        ds = read_csv(write_data(tmp_path, text), "outcome", "disease",
                      ["age"], skip_missing=True)
        assert ds.n == 2
        assert ds.n_skipped == 1
        np.testing.assert_array_equal(ds.rows, [1, 3])

    def test_missing_in_unused_column_is_ignored(self, tmp_path):
        text = "outcome,disease,age,extra\n1.0,0,30,NA\n2.0,1,40,\n"
        ds = read_csv(write_data(tmp_path, text), "outcome", "disease", ["age"])
        assert ds.n == 2

    def test_single_class_rejected(self, tmp_path):
        text = "outcome,disease,age\n1.0,1,30\n2.0,1,40\n"
        with pytest.raises(DataError, match="no rows with disease == 0"):
            read_csv(write_data(tmp_path, text), "outcome", "disease", ["age"])

    def test_empty_file_rejected(self, tmp_path):
        text = "outcome,disease,age\n"
        with pytest.raises(DataError, match="no usable data rows"):
            read_csv(write_data(tmp_path, text), "outcome", "disease", ["age"])

    def test_no_covariates_gives_empty_matrix(self, tmp_path):
        ds = read_csv(write_data(tmp_path, BASIC), "outcome", "disease", [])
        assert ds.covariates.shape == (3, 0)
        assert ds.group(1).covariates.shape == (2, 0)

    def test_absent_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open data file"):
            read_csv(tmp_path / "nope.csv", "outcome", "disease", ["age"])


class TestLoadConfig:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# fit options\n\ntuning = 2.0\nknots=1,2\n")
        assert load_config(path) == {"tuning": "2.0", "knots": "1,2"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("tuning 2.0\n")
        with pytest.raises(UsageError, match="line 1 is not key=value"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read config file"):
            load_config(tmp_path / "absent.cfg")


class TestRunConfig:
    def test_flag_beats_config_beats_default(self):
        cfg = RunConfig.resolve({"tuning": 2.5, "seed": None},
                                {"tuning": "9.9", "alpha": "0.1"})
        assert cfg.tuning == 2.5       # flag wins
        assert cfg.alpha == 0.1        # config wins over default
        assert cfg.seed == 0           # default
        assert cfg.replicates == 1000

    def test_unknown_config_key(self):
        with pytest.raises(UsageError, match="unknown config keys: bandwidth"):
            RunConfig.resolve({}, {"bandwidth": "1"})

    def test_typed_parsing_from_config(self):
        cfg = RunConfig.resolve({}, {"max_iterations": "7", "tol": "1e-6",
                                     "skip_missing": "yes",
                                     "covariates": "age, bmi"})
        assert cfg.max_iterations == 7
        assert cfg.tol == 1e-6
        assert cfg.skip_missing is True
        assert cfg.covariates == ["age", "bmi"]

    def test_bad_typed_value(self):
        with pytest.raises(UsageError, match="expected int"):
            RunConfig.resolve({}, {"seed": "soon"})
        with pytest.raises(UsageError, match="expected a boolean"):
            RunConfig.resolve({}, {"skip_missing": "perhaps"})

    def test_simulate_keys_accepted(self):
        cfg = RunConfig.resolve({}, {"scenario": "I", "sizes": "200,100",
                                     "reps": "50", "contamination": "0.05",
                                     "kappa": "15,20", "estimators": "robust",
                                     "grid_points": "11"})
        assert cfg.scenario == "I"
        assert cfg.sizes == "200,100"
        assert cfg.reps == 50
        assert cfg.contamination == 0.05
        assert cfg.grid_points == 11


class TestParsers:
    def test_parse_knots_broadcast(self):
        assert parse_knots("2", 3) == [2, 2, 2]
        assert parse_knots("1,cat,0", 3) == [1, None, 0]

    def test_parse_knots_errors(self):
        with pytest.raises(UsageError, match="bad knot count"):
            parse_knots("two", 1)
        with pytest.raises(UsageError, match=">= 0"):
            parse_knots("-1", 1)
        with pytest.raises(UsageError, match="2 knot entries for 3"):
            parse_knots("1,2", 3)

    def test_parse_grid(self):
        grid = parse_grid("0:1:5")
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
        with pytest.raises(UsageError):
            parse_grid("0:1")
        with pytest.raises(UsageError):
            parse_grid("0:1:0")
        with pytest.raises(UsageError):
            parse_grid("a:b:3")

    def test_parse_values(self):
        np.testing.assert_allclose(parse_values("1.5, 2, -3"), [1.5, 2.0, -3.0])
        with pytest.raises(UsageError):
            parse_values("1,foo")


class TestTables:
    def test_roundtrip_preserves_full_precision(self, tmp_path):
        path = tmp_path / "table.csv"
        values = [1 / 3, np.pi, 1e-17, -2.5000000000000004]
        write_table(path, ["name", "value"],
                    [[f"v{i}", v] for i, v in enumerate(values)])
        header, rows = read_table(path)
        assert header == ["name", "value"]
        assert [float(r[1]) for r in rows] == values

    def test_integer_and_bool_cells(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(path, ["a", "b", "c"], [[np.int64(7), True, False]])
        _, rows = read_table(path)
        assert rows == [["7", "1", "0"]]

    def test_byte_identical_rewrite(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [[i, rng.normal()] for i in range(20)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table(p1, ["i", "x"], rows)
        write_table(p2, ["i", "x"], rows)
        assert p1.read_bytes() == p2.read_bytes()


class TestManifest:
    def test_structure_and_stability(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, "fit", {"seed": 1, "knots": "2"},
                       [tmp_path / "coefficients.csv"])
        payload = json.loads(path.read_text())
        assert set(payload) == {"command", "options", "outputs",
                                "package_version"}
        assert payload["command"] == "fit"
        assert payload["options"]["seed"] == 1
        assert payload["outputs"] == [str(tmp_path / "coefficients.csv")]
        first = path.read_bytes()
        write_manifest(path, "fit", {"seed": 1, "knots": "2"},
                       [tmp_path / "coefficients.csv"])
        assert path.read_bytes() == first
