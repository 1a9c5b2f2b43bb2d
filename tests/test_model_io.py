"""Model file round trips and failure modes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import windglass as wg
from windglass.model_io import FORMAT_VERSION, ModelFormatError
from conftest import resign_model_file, small_fit


@pytest.fixture
def lag_matrix():
    frame = wg.make_autocorrelated_series(400, seed=2)
    raw = wg.build_lag_features(frame, n_lags=6, horizon_steps=1)
    split = wg.chronological_split(raw.n_rows)
    return wg.normalize_fit_apply(raw, split.train), split


class TestRoundTrip:
    def test_glassbox_predictions_bit_identical(self, trained_setup, tmp_path):
        model, matrix, _ = trained_setup
        path = tmp_path / "m.json"
        wg.save_model(model, path)
        loaded = wg.load_model(path)
        rng = np.random.default_rng(0)
        probe = rng.uniform(size=(1000, matrix.n_features))
        np.testing.assert_array_equal(loaded.predict(probe), model.predict(probe))
        assert loaded.feature_names == model.feature_names
        assert loaded.config == model.config

    def test_save_twice_byte_identical(self, trained_setup, tmp_path):
        model, _, _ = trained_setup
        wg.save_model(model, tmp_path / "a.json")
        wg.save_model(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_linear_round_trip(self, lag_matrix, tmp_path):
        matrix, split = lag_matrix
        model = wg.fit_ols(matrix, split.train)
        wg.save_model(model, tmp_path / "lr.json")
        loaded = wg.load_model(tmp_path / "lr.json")
        np.testing.assert_array_equal(loaded.predict(matrix.X), model.predict(matrix.X))

    def test_persistence_round_trip(self, lag_matrix, tmp_path):
        matrix, _ = lag_matrix
        model = wg.PersistenceModel.from_matrix(matrix)
        wg.save_model(model, tmp_path / "pm.json")
        loaded = wg.load_model(tmp_path / "pm.json")
        np.testing.assert_array_equal(loaded.predict(matrix.X), model.predict(matrix.X))

    def test_rt_round_trip(self, lag_matrix, tmp_path):
        matrix, split = lag_matrix
        model = wg.fit_rt_baseline(matrix, split.train, max_bins=32)
        wg.save_model(model, tmp_path / "rt.json")
        loaded = wg.load_model(tmp_path / "rt.json")
        np.testing.assert_array_equal(loaded.predict(matrix.X), model.predict(matrix.X))


class TestFailureModes:
    def test_truncated_file_is_corrupt(self, trained_setup, tmp_path):
        model, _, _ = trained_setup
        path = tmp_path / "m.json"
        wg.save_model(model, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ModelFormatError, match="corrupt model file"):
            wg.load_model(path)

    def test_future_version_rejected(self, trained_setup, tmp_path):
        model, _, _ = trained_setup
        path = tmp_path / "m.json"
        wg.save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="unsupported model format version"):
            wg.load_model(path)

    @pytest.mark.parametrize("version", [True, False, 1.0, "1", None],
                             ids=["true", "false", "float", "string", "null"])
    def test_non_integer_version_rejected(self, tmp_path, version):
        """``true`` parses to a bool, which is an int subclass equal to 1;
        a re-signed file carrying it is still not version 1."""
        path = tmp_path / "m.json"
        wg.save_model(wg.LinearModel(0.5, np.array([1.0]), ("a",)), path)
        resign_model_file(path, lambda doc: doc.update(format_version=version))
        with pytest.raises(ModelFormatError, match="unsupported model format version"):
            wg.load_model(path)

    def test_tampered_payload_fails_checksum(self, trained_setup, tmp_path):
        model, _, _ = trained_setup
        path = tmp_path / "m.json"
        wg.save_model(model, path)
        doc = json.loads(path.read_text())
        doc["intercept"] = doc["intercept"] + 0.001
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="checksum mismatch"):
            wg.load_model(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        wg.save_model(wg.LinearModel(0.5, np.array([1.0]), ("a",)), path)
        resign_model_file(path, lambda doc: doc.update(kind="mystery"))
        with pytest.raises(ModelFormatError, match="unknown model kind"):
            wg.load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["metadata"]["config"].update(bogus_key=1),  # TypeError
        lambda doc: doc.pop("intercept"),  # KeyError
    ], ids=["unknown_config_key", "missing_field"])
    def test_checksummed_but_malformed_rejected(self, trained_setup, tmp_path, edit):
        model, _, _ = trained_setup
        path = tmp_path / "m.json"
        wg.save_model(model, path)
        resign_model_file(path, edit)
        with pytest.raises(ModelFormatError, match="malformed glassbox model file"):
            wg.load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["shape_functions"][0].update(
            values=doc["shape_functions"][0]["values"][:3]),
        lambda doc: doc["shape_functions"][0].update(feature=99),
        lambda doc: doc["pair_terms"][0].update(i=99),
        lambda doc: doc["pair_terms"][0].update(
            i=doc["pair_terms"][0]["j"], j=doc["pair_terms"][0]["i"]),
        lambda doc: doc["coarse_maps"].pop(str(doc["pair_terms"][0]["j"])),
        lambda doc: doc["coarse_maps"].update({"0": doc["coarse_maps"]["0"][:-1]}),
        lambda doc: doc["coarse_maps"].update({"0": doc["coarse_maps"]["0"][::-1]}),
        lambda doc: doc["coarse_maps"]["0"].__setitem__(0, -1),
        lambda doc: doc["pair_terms"][0].update(grid=doc["pair_terms"][0]["grid"][:-1]),
        lambda doc: doc["pair_terms"][0].update(
            grid=[row[:-1] for row in doc["pair_terms"][0]["grid"]]),
        lambda doc: doc["bin_edges"].pop(),
        lambda doc: doc["shape_functions"].reverse(),
        lambda doc: doc["shape_functions"].append(doc["shape_functions"][0]),
        lambda doc: doc["shape_functions"].pop(),
        lambda doc: doc["pair_terms"].append(doc["pair_terms"][0]),
        lambda doc: doc["coarse_maps"].update({"0": [0] * len(doc["coarse_maps"]["0"])}),
        lambda doc: doc["bin_populations"][0].pop(),
    ], ids=["short_shape", "shape_feature_out_of_range", "pair_index_out_of_range",
            "pair_not_ordered", "pair_without_coarse_map", "short_coarse_map",
            "decreasing_coarse_map", "negative_coarse_map", "grid_missing_row",
            "grid_missing_column", "fewer_binned_features", "shapes_reordered",
            "shape_repeated", "shape_missing", "pair_repeated",
            "coarse_map_monotone_but_wrong", "short_populations"])
    def test_structurally_inconsistent_glassbox_rejected(self, trained_setup,
                                                         tmp_path, edit):
        """Checksummed files whose tables would index out of range at
        predict time, or that are not what ``save_model`` writes for the
        model they describe, are rejected on load."""
        model, _, _ = trained_setup
        assert model.pairs
        # An all-zero coarse map of feature 0 is monotone but wrong.
        assert model.bins.n_bins(0) > model.config.pair_bins
        path = tmp_path / "m.json"
        wg.save_model(model, path)
        resign_model_file(path, edit)
        with pytest.raises(ModelFormatError, match="malformed glassbox model file"):
            wg.load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["tree"]["left"].__setitem__(0, 99),
        lambda doc: doc["tree"]["left"].__setitem__(0, -1),
        lambda doc: doc["tree"]["right"].__setitem__(0, 0),
        lambda doc: doc["tree"]["feature"].__setitem__(0, 99),
        lambda doc: [doc["tree"][key].clear() for key in
                     ("feature", "threshold", "left", "right", "value", "count")],
        lambda doc: doc["bin_edges"].pop(),
    ], ids=["child_past_end", "negative_child", "child_is_itself",
            "split_feature_out_of_range", "no_nodes", "fewer_binned_features"])
    def test_malformed_rt_tree_rejected(self, lag_matrix, tmp_path, edit):
        """A checksummed RT file whose tree ``predict`` could not walk
        (an index error, a wrapped negative index or a cycle) is
        rejected on load."""
        matrix, split = lag_matrix
        model = wg.fit_rt_baseline(matrix, split.train, max_bins=32)
        assert not model.tree.nodes[0].is_leaf
        path = tmp_path / "rt.json"
        wg.save_model(model, path)
        resign_model_file(path, edit)
        with pytest.raises(ModelFormatError, match="malformed rt model file"):
            wg.load_model(path)

    @pytest.mark.parametrize("lag_column", [-1, 6])
    def test_persistence_lag_column_out_of_range_rejected(self, lag_matrix, tmp_path,
                                                          lag_column):
        matrix, _ = lag_matrix
        assert matrix.n_features == 6
        path = tmp_path / "pm.json"
        wg.save_model(wg.PersistenceModel.from_matrix(matrix), path)
        resign_model_file(path, lambda doc: doc.update(lag_column=lag_column))
        with pytest.raises(ModelFormatError, match="malformed persistence model file"):
            wg.load_model(path)

    def test_unserializable_type_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="cannot serialize"):
            wg.save_model(object(), tmp_path / "m.json")


@pytest.fixture(scope="module")
def small_glassbox_file(tmp_path_factory):
    """A ~6 KB glass-box file with pair grids, its model and probe rows."""
    model, _, _ = small_fit(seed=4, n_features=3, rounds=3)
    assert model.pairs
    path = tmp_path_factory.mktemp("flips") / "m.json"
    wg.save_model(model, path)
    probe = np.random.default_rng(0).uniform(-0.2, 1.2, size=(200, 3))
    return path, model, probe


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_byte_change_refused_or_harmless(small_glassbox_file, data):
    """Changing any one byte of a file either gets it refused or leaves
    a model whose every table and forecast are bit-identical, e.g. a
    changed space or an exponent's ``e`` made ``E``."""
    path, model, probe = small_glassbox_file
    original = path.read_bytes()
    at = data.draw(st.integers(0, len(original) - 1), label="at")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != original[at]), label="byte")
    flipped = path.with_name("flipped.json")
    flipped.write_bytes(original[:at] + bytes([byte]) + original[at + 1:])
    try:
        loaded = wg.load_model(flipped)
    except ModelFormatError:
        return
    resaved = path.with_name("resaved.json")
    wg.save_model(loaded, resaved)
    assert resaved.read_bytes() == original
    assert loaded.predict(probe).tobytes() == model.predict(probe).tobytes()
