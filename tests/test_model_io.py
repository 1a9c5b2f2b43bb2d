"""Model file round trips and failure modes."""

import hashlib
import json
import tempfile
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import windglass as wg
from windglass import model_io
from windglass.model_io import FORMAT_VERSION, ModelFormatError
from conftest import resign_model_file, small_fit

INF, NAN = float("inf"), float("nan")


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

    def test_rt_file_bytes_are_pinned(self, lag_matrix, tmp_path):
        """One fixed RT fit writes the same file bytes: a change to the
        node type or the fitter that shifts them fails here (the
        benchmark digests hash no RT model file)."""
        matrix, split = lag_matrix
        model = wg.fit_rt_baseline(matrix, split.train, max_bins=32)
        wg.save_model(model, tmp_path / "rt.json")
        data = (tmp_path / "rt.json").read_bytes()
        assert len(model.tree.nodes) == 31 and len(data) == 8533
        assert hashlib.sha256(data).hexdigest() == (
            "a75f1b70927fbfb3974e8ac62ac5e5a8bd3468e4c6b1ae74f6418ca8465ed0a6")

    @pytest.mark.parametrize("bagging_count, size, digest", [
        (1, 58221, "749d029304600ee5755b1616dbd52b7cc0affe14a6ef6ae338c8cecb2df1297c"),
        (2, 56335, "daa3bd7a447a2fa5d7427ce592f8348544fd99e13119caaab5f8a4fa1fb5efe6"),
    ], ids=["single", "bagged"])
    def test_pair_model_file_bytes_are_pinned(self, bagging_count, size, digest, tmp_path):
        """One fixed fit with every pair, alone and bagged, writes the
        same file bytes: a change to the pair trees, their tables, the
        pair cells or the bagged average that shifts them fails here."""
        raw = wg.make_interaction_data(1200, 5, seed=5)
        split = wg.chronological_split(raw.n_rows)
        matrix = wg.normalize_fit_apply(raw, split.train)
        config = wg.TrainConfig(learning_rate=0.1, max_rounds=40, early_stop_patience=40,
                                max_bins=40, pair_bins=12, interaction_budget="all",
                                bagging_count=bagging_count, seed=3)
        model = wg.train(matrix, split, config)
        wg.save_model(model, tmp_path / "m.json")
        data = (tmp_path / "m.json").read_bytes()
        assert len(model.pairs) == 10 and model.rounds_pairs == 40
        assert len(data) == size and hashlib.sha256(data).hexdigest() == digest


def swap_two_edges(doc):
    edges = doc["bin_edges"][0]
    edges[10], edges[20] = edges[20], edges[10]


def repeat_an_edge(doc):
    edges = doc["bin_edges"][1]
    edges[5] = edges[4]


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

    def test_unhashable_kind_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        wg.save_model(wg.LinearModel(0.5, np.array([1.0]), ("a",)), path)
        resign_model_file(path, lambda doc: doc.update(kind=["linear"]))
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
        lambda doc: doc["bin_vmin"].__setitem__(0, 5.0),
        lambda doc: doc["bin_vmax"].__setitem__(1, -5.0),
        lambda doc: doc["bin_vmin"].pop(),
    ], ids=["short_shape", "shape_feature_out_of_range", "pair_index_out_of_range",
            "pair_not_ordered", "pair_without_coarse_map", "short_coarse_map",
            "decreasing_coarse_map", "negative_coarse_map", "grid_missing_row",
            "grid_missing_column", "fewer_binned_features", "shapes_reordered",
            "shape_repeated", "shape_missing", "pair_repeated",
            "coarse_map_monotone_but_wrong", "short_populations",
            "vmin_above_edges", "vmax_below_edges", "vmin_missing"])
    def test_structurally_inconsistent_glassbox_rejected(self, trained_setup,
                                                         tmp_path, edit):
        """Checksummed files whose tables would index out of range at
        predict time, that are not what ``save_model`` writes for the
        model they describe, or whose bin bounds ``[vmin, edges..., vmax]``
        are missing or out of order, are rejected on load."""
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
        lambda doc: doc["bin_vmin"].__setitem__(0, 5.0),
    ], ids=["child_past_end", "negative_child", "child_is_itself",
            "split_feature_out_of_range", "no_nodes", "fewer_binned_features",
            "vmin_above_edges"])
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

    @pytest.mark.parametrize("kind", ["glassbox", "rt"])
    @pytest.mark.parametrize("edit", [swap_two_edges, repeat_an_edge],
                             ids=["swapped", "duplicated"])
    def test_unsorted_bin_edges_rejected(self, trained_setup, lag_matrix, tmp_path,
                                         kind, edit):
        """Bins are binary-search (and cell-index) positions only in
        strictly increasing edges: a re-signed file with two edges of
        feature 0 swapped, or an edge of feature 1 repeated, is refused."""
        if kind == "glassbox":
            model = trained_setup[0]
        else:
            matrix, split = lag_matrix
            model = wg.fit_rt_baseline(matrix, split.train, max_bins=32)
        assert min(len(e) for e in model.bins.edges[:2]) > 20
        path = tmp_path / "m.json"
        wg.save_model(model, path)
        resign_model_file(path, edit)
        with pytest.raises(ModelFormatError,
                           match=f"malformed {kind} model file.*not strictly increasing"):
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

    @pytest.mark.parametrize("kind, message", [
        ("nan_grid", "non-finite pair grid"), ("inf_intercept", "non-finite intercept"),
        ("nan_leaf", "non-finite leaf value"), ("lag_column", "lag column 6 of 6"),
    ])
    def test_save_refuses_what_load_refuses(self, trained_setup, lag_matrix, tmp_path,
                                            kind, message):
        """``save_model`` runs ``load_model``'s check before it opens the
        path: a model no file of which would load raises, creates no
        file, and leaves an existing file's bytes alone."""
        model, _, _ = trained_setup
        matrix, split = lag_matrix
        if kind == "nan_grid":
            grid = model.pairs[0].grid.copy()
            grid[0, 0] = NAN
            bad = replace(model, pairs=(replace(model.pairs[0], grid=grid), *model.pairs[1:]))
        elif kind == "inf_intercept":
            bad = replace(model, intercept=INF)
        elif kind == "nan_leaf":
            rt = wg.fit_rt_baseline(matrix, split.train, max_bins=32)
            nodes = tuple(nd._replace(value=NAN) if nd.is_leaf else nd
                          for nd in rt.tree.nodes)
            bad = replace(rt, tree=replace(rt.tree, nodes=nodes))
        else:
            bad = replace(wg.PersistenceModel.from_matrix(matrix), lag_column=6)
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match=message):
            wg.save_model(bad, path)
        assert not path.exists()
        path.write_bytes(b"kept")
        with pytest.raises(ValueError, match=message):
            wg.save_model(bad, path)
        assert path.read_bytes() == b"kept"


def assert_same_model(a, b, where="model"):
    """``a`` equals ``b`` in every dataclass field, recursively: arrays by
    dtype, shape and bytes, every other value by type and ``repr``."""
    assert type(a) is type(b), where
    if is_dataclass(a):
        for f in fields(a):
            assert_same_model(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert a.tobytes() == b.tobytes(), where
    elif isinstance(a, (tuple, list, dict)):
        assert len(a) == len(b), where
        keys = list(a) if isinstance(a, dict) else range(len(a))
        for k in keys:
            assert_same_model(a[k], b[k], f"{where}[{k!r}]")
    else:
        assert repr(a) == repr(b), where


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n_features=st.integers(2, 4),
       budget=st.sampled_from([0, 1, "all"]), bagging_count=st.integers(1, 2),
       n_lags=st.integers(2, 5))
def test_every_model_reloads_equal_field_for_field(seed, n_features, budget,
                                                   bagging_count, n_lags):
    """A model is exactly what its file holds: ``load_model`` of a saved
    model of any kind gives a model equal to it in every field."""
    glassbox, _, _ = small_fit(seed, n_features, 2, budget=budget,
                               bagging_count=bagging_count)
    frame = wg.make_autocorrelated_series(150, seed=seed)
    raw = wg.build_lag_features(frame, n_lags=n_lags, horizon_steps=1)
    split = wg.chronological_split(raw.n_rows)
    matrix = wg.normalize_fit_apply(raw, split.train)
    models = [glassbox, wg.fit_rt_baseline(matrix, split.train, max_bins=8),
              wg.fit_ols(matrix, split.train), wg.PersistenceModel.from_matrix(matrix)]
    with tempfile.TemporaryDirectory() as folder:
        for k, model in enumerate(models):
            path = Path(folder) / f"{k}.json"
            wg.save_model(model, path)
            assert_same_model(wg.load_model(path), model)


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """A small file of every kind (the glass-box one ~6 KB, with pair
    grids) with its model, and probe rows for all of them."""
    glassbox, _, _ = small_fit(seed=4, n_features=3, rounds=3)
    assert glassbox.pairs
    frame = wg.make_autocorrelated_series(200, seed=2)
    raw = wg.build_lag_features(frame, n_lags=3, horizon_steps=1)
    split = wg.chronological_split(raw.n_rows)
    matrix = wg.normalize_fit_apply(raw, split.train)
    models = {
        "glassbox": glassbox,
        "rt": wg.fit_rt_baseline(matrix, split.train, max_bins=8),
        "linear": wg.fit_ols(matrix, split.train),
        "persistence": wg.PersistenceModel.from_matrix(matrix),
    }
    assert not models["rt"].tree.nodes[0].is_leaf
    folder = tmp_path_factory.mktemp("kinds")
    files = {}
    for kind, model in models.items():
        files[kind] = (folder / f"{kind}.json", model)
        wg.save_model(model, files[kind][0])
    probe = np.random.default_rng(0).uniform(-0.2, 1.2, size=(200, 3))
    return files, probe


def resigned_copy(source, folder, edit):
    """A copy of model file ``source`` in ``folder``, edited and re-signed."""
    path = folder / source.name
    path.write_bytes(source.read_bytes())
    resign_model_file(path, edit)
    return path


@pytest.mark.parametrize("kind", ["glassbox", "rt", "linear", "persistence"])
def test_load_encodes_one_document(model_files, kind):
    """A successful load encodes only the loaded model's document: the
    one the stored checksum is checked against."""
    path, model = model_files[0][kind]
    with mock.patch.object(model_io, "_encode_leaves",
                           wraps=model_io._encode_leaves) as encode:
        loaded = wg.load_model(path)
    assert encode.call_count == 1
    assert type(loaded) is type(model)


@pytest.mark.parametrize("kind, edit", [
    ("glassbox", lambda doc: doc.update(intercept=str(doc["intercept"]))),
    ("glassbox", lambda doc: doc["metadata"].update(rounds_main=1.5)),
    ("glassbox", lambda doc: doc["feature_names"].__setitem__(0, 7)),
    ("glassbox", lambda doc: doc["metadata"]["val_curve_main"].__setitem__(0, "0.5")),
    ("glassbox", lambda doc: doc["coarse_maps"]["0"].__setitem__(0, True)),
    ("rt", lambda doc: doc["tree"]["params"].update(split_criterion="sse")),
    ("rt", lambda doc: doc["tree"]["params"].pop("split_criterion")),
    ("rt", lambda doc: doc["tree"]["params"].update(max_depth=4.0)),
    ("linear", lambda doc: doc["weights"].__setitem__(0, str(doc["weights"][0]))),
    ("persistence", lambda doc: doc["normalization"].update(target_min=0)),
], ids=["string_intercept", "fractional_rounds", "numeric_feature_name",
        "string_curve_entry", "boolean_coarse_map_entry", "sse_criterion",
        "no_criterion", "float_tree_param", "string_weight", "int_norm_bound"])
def test_resigned_file_not_written_back_refused(model_files, tmp_path, kind, edit):
    """A re-signed file loads only if its model writes the stored
    checksum back, so a field of the wrong JSON type is refused even
    where the reader's conversion would accept it."""
    path = resigned_copy(model_files[0][kind][0], tmp_path, edit)
    with pytest.raises(ModelFormatError,
                       match=f"malformed {kind} model file.*not what save_model writes"):
        wg.load_model(path)


@pytest.mark.parametrize("key, value", [
    ("max_rounds", True), ("bagging_count", False), ("interaction_budget", 2.5),
    ("interaction_budget", True), ("seed", 1.0), ("max_bins", "256"),
    ("learning_rate", True), ("learning_rate", "0.05"), ("early_stop_tol", None),
], ids=["bool_rounds", "bool_bagging", "fractional_budget", "bool_budget",
        "float_seed", "string_bins", "bool_learning_rate", "string_learning_rate",
        "null_tolerance"])
def test_config_value_of_the_wrong_type_refused(model_files, tmp_path, key, value):
    """Each such value writes itself back, so only ``TrainConfig``'s own
    type check refuses the file."""
    path = resigned_copy(model_files[0]["glassbox"][0], tmp_path,
                         lambda doc: doc["metadata"]["config"].update({key: value}))
    with pytest.raises(ModelFormatError,
                       match=f"malformed glassbox model file.*TypeError: {key} must be"):
        wg.load_model(path)


def test_integer_in_a_float_config_field_loads(model_files, tmp_path):
    """``save_model`` writes ``"learning_rate": 1`` for a config built with
    the int 1, and that file loads and re-saves byte for byte."""
    model = model_files[0]["glassbox"][1]
    model = replace(model, config=replace(model.config, learning_rate=1))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    wg.save_model(model, first)
    assert json.loads(first.read_text())["metadata"]["config"]["learning_rate"] == 1
    loaded = wg.load_model(first)
    assert type(loaded.config.learning_rate) is int
    wg.save_model(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_numpy_scalar_config_round_trips(model_files, tmp_path):
    """A config given numpy scalars holds the Python numbers they equal,
    so its model saves the bytes those numbers give, and loads."""
    model = model_files[0]["glassbox"][1]
    plain = replace(model.config, max_rounds=2, learning_rate=0.01)
    scalars = replace(model.config, max_rounds=np.int64(2), learning_rate=np.float64(0.01))
    assert type(scalars.max_rounds) is int and type(scalars.learning_rate) is float
    first, second = tmp_path / "plain.json", tmp_path / "scalars.json"
    wg.save_model(replace(model, config=plain), first)
    wg.save_model(replace(model, config=scalars), second)
    assert second.read_bytes() == first.read_bytes()
    assert wg.load_model(second).config == plain


def test_hand_built_model_round_trips(tmp_path):
    """Writers convert fields as the readers do, so a model built with
    an int intercept and a numeric feature name writes a file that
    loads."""
    wg.save_model(wg.LinearModel(1, np.array([2.0]), (7,)), tmp_path / "m.json")
    loaded = wg.load_model(tmp_path / "m.json")
    assert (loaded.intercept, loaded.feature_names) == (1.0, ("7",))
    assert type(loaded.intercept) is float


def test_unsigned_coarse_map_edit_loads_as_original(model_files, tmp_path):
    """The coarse maps are derived on load, so an edit to a stored map
    that was not re-signed still gives the file's model."""
    source, model = model_files[0]["glassbox"]
    doc = json.loads(source.read_text())
    doc["coarse_maps"]["0"][0] = 5
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    wg.save_model(wg.load_model(path), tmp_path / "resaved.json")
    assert (tmp_path / "resaved.json").read_bytes() == source.read_bytes()


@pytest.mark.parametrize("kind, edit", [
    ("glassbox", lambda doc: doc["metadata"].update(rounds_main=INF)),
    ("glassbox", lambda doc: doc.update(max_bins=-INF)),
    ("glassbox", lambda doc: doc["shape_functions"][0].update(feature=INF)),
    ("rt", lambda doc: doc["tree"]["threshold"].__setitem__(0, INF)),
    ("rt", lambda doc: doc["tree"]["params"].update(max_depth=INF)),
    ("persistence", lambda doc: doc.update(lag_column=INF)),
], ids=["rounds_main", "max_bins", "shape_feature", "tree_threshold",
        "tree_param", "lag_column"])
def test_infinite_integer_field_refused(model_files, tmp_path, kind, edit):
    """``int(inf)`` raises OverflowError, which is reported as a
    malformed file like every other failed conversion."""
    path = resigned_copy(model_files[0][kind][0], tmp_path, edit)
    with pytest.raises(ModelFormatError, match=f"malformed {kind} model file"):
        wg.load_model(path)


def first_leaf(tree_doc):
    return tree_doc["feature"].index(-1)


@pytest.mark.parametrize("kind, edit", [
    ("glassbox", lambda doc: doc.update(intercept=NAN)),
    ("glassbox", lambda doc: doc["shape_functions"][1]["values"].__setitem__(0, NAN)),
    ("glassbox", lambda doc: doc["pair_terms"][0]["grid"][0].__setitem__(0, INF)),
    ("glassbox", lambda doc: doc["bin_edges"][0].__setitem__(-1, INF)),
    ("glassbox", lambda doc: doc["bin_vmin"].__setitem__(0, -INF)),
    ("glassbox", lambda doc: doc["bin_vmax"].__setitem__(2, NAN)),
    ("glassbox", lambda doc: doc["normalization"]["feature_min"].__setitem__(0, NAN)),
    ("glassbox", lambda doc: doc["normalization"]["feature_max"].__setitem__(1, INF)),
    ("glassbox", lambda doc: doc["normalization"].update(target_min=NAN)),
    ("glassbox", lambda doc: doc["normalization"].update(target_max=INF)),
    ("rt", lambda doc: doc["tree"]["value"].__setitem__(first_leaf(doc["tree"]), NAN)),
    ("rt", lambda doc: doc["bin_edges"][1].__setitem__(0, -INF)),
    ("linear", lambda doc: doc["normalization"].update(target_max=NAN)),
    ("persistence", lambda doc: doc["normalization"]["feature_min"].__setitem__(0, INF)),
], ids=["intercept", "shape_table", "pair_grid", "bin_edge", "bin_vmin", "bin_vmax",
        "feature_min", "feature_max", "target_min", "target_max", "rt_leaf_value",
        "rt_bin_edge", "linear_normalization", "persistence_normalization"])
def test_non_finite_number_refused(model_files, tmp_path, kind, edit):
    """NaN and infinity write back as themselves, so the write-back rule
    cannot refuse them: the readers do, wherever a forecast uses the
    number."""
    path = resigned_copy(model_files[0][kind][0], tmp_path, edit)
    with pytest.raises(ModelFormatError, match=f"malformed {kind} model file.*non-finite"):
        wg.load_model(path)


MAX = np.finfo(np.float64).max


@st.composite
def fit_columns(draw):
    """Columns ``fit_bins`` may be given: constant, two-valued, a few
    adjacent floats, ties, or magnitudes near the largest float."""
    n = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(["constant", "two", "adjacent", "ties", "huge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    value = st.floats(allow_nan=False, allow_infinity=False)
    if kind == "constant":
        return np.full(n, draw(value))
    if kind == "two":
        return np.where(rng.random(n) < 0.5, draw(value), draw(value))
    if kind == "adjacent":
        run = [draw(value)]
        for _ in range(draw(st.integers(1, 8))):
            run.append(np.nextafter(run[-1], 0.0))
        return rng.choice(run, n)
    if kind == "ties":
        return rng.integers(-4, 5, n) * draw(st.floats(-MAX / 4, MAX / 4))
    signs = rng.choice([-1.0, 1.0], n) if draw(st.booleans()) else 1.0
    return rng.uniform(1e308, MAX, n) * signs


@settings(max_examples=200, deadline=None)
@given(col=fit_columns(), max_bins=st.integers(2, 64))
@example(col=np.array([1e308, 1.5e308, 1.7e308]), max_bins=8)
@example(col=np.concatenate([np.linspace(1e308, 1.7e308, 150),
                             np.linspace(-1e308, -1.7e308, 150)]), max_bins=256)
def test_fit_bins_writes_only_loadable_bins(col, max_bins):
    """``fit_bins`` refuses a column whose edges overflow, naming it, or
    fits bins that a model file keeps bit for bit, with every feature's
    ``[vmin, edges..., vmax]`` non-decreasing: the loader's bin rules
    refuse nothing ``fit_bins`` writes."""
    raw = wg.SupervisedMatrix(X=col.reshape(-1, 1), y=np.arange(len(col)) % 3.0,
                              feature_names=["x"])
    try:
        model = wg.fit_rt_baseline(raw, (0, len(col)), max_bins=max_bins)
    except ValueError as exc:
        assert str(exc).startswith("feature column 0 spans more than the largest float")
        assert np.abs(col).max() > MAX / 2
        return
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "rt.json"
        wg.save_model(model, path)
        bins = wg.load_model(path).bins
    assert bins.edges[0].tobytes() == model.bins.edges[0].tobytes()
    bounds = wg.data.bin_boundaries(bins, 0)
    assert np.all(bounds[:-1] <= bounds[1:])


def test_deeply_nested_file_is_corrupt(tmp_path):
    """Nesting too deep for the JSON parser's recursion is a corrupt
    file, not a RecursionError."""
    path = tmp_path / "m.json"
    path.write_text("[" * 2000 + "]" * 2000)
    with pytest.raises(ModelFormatError, match="corrupt model file"):
        wg.load_model(path)


@pytest.mark.parametrize("kind", ["glassbox", "rt", "linear"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_byte_change_refused_or_harmless(model_files, kind, data):
    """Changing any one byte of a file either gets it refused or leaves
    a model whose every table and forecast are bit-identical, e.g. a
    changed space or an exponent's ``e`` made ``E``."""
    (path, model), probe = model_files[0][kind], model_files[1]
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


def leaf_paths(node, path=()):
    """The key paths of a document's scalars, except the checksum and
    the training config's."""
    if not isinstance(node, (dict, list)):
        yield path
        return
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if path + (key,) not in {("checksum",), ("metadata", "config")}:
            yield from leaf_paths(value, path + (key,))


def retyped(value):
    """``value`` as other JSON types: a number's string or a string's
    number, the other of int and float, true and null."""
    if isinstance(value, str):
        others = [7]
    elif isinstance(value, int):
        others = [str(value), float(value)]
    elif isinstance(value, float):
        others = [repr(value), int(value)]
    else:
        others = [1]
    return [v for v in others + [True, None] if type(v) is not type(value)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_retyped_leaf_refused_or_harmless(model_files, data):
    """A re-signed file with one number, string, boolean or null swapped
    for a value of another JSON type either is refused or loads a model
    that writes the original file back. Config values are left out:
    they keep their JSON type, and only training reads them."""
    files = model_files[0]
    path, _ = files[data.draw(st.sampled_from(sorted(files)), label="kind")]
    *parents, last = data.draw(st.sampled_from(list(leaf_paths(json.loads(path.read_text())))),
                               label="leaf")

    def edit(doc):
        for key in parents:
            doc = doc[key]
        doc[last] = data.draw(st.sampled_from(retyped(doc[last])), label="value")

    folder = path.parent / "retyped"
    folder.mkdir(exist_ok=True)
    edited = resigned_copy(path, folder, edit)
    try:
        loaded = wg.load_model(edited)
    except ModelFormatError:
        return
    wg.save_model(loaded, folder / "resaved.json")
    assert (folder / "resaved.json").read_bytes() == path.read_bytes()
