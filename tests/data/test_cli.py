"""Tests for the ``biggerfish data`` commands."""

import pytest

from repro.cli import main
from repro.data import DatasetConfig, ShardedDataset, build_dataset

from tests.data import FOREIGN_X_LAYOUTS, rewrite_store_x

CONFIG_ARGS = ["--sites", "3", "--traces", "2", "--trace-seconds", "0.4"]


def data_main(argv: list[str]) -> int:
    return main(["data", *argv])


def test_build_ls_verify(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert data_main(["build", store, *CONFIG_ARGS, "--shard-sites", "2"]) == 0
    out = capsys.readouterr().out
    assert "6 rows" in out

    assert data_main(["ls", store, "--shards"]) == 0
    out = capsys.readouterr().out
    assert "status:         complete" in out
    assert "shard-0000.npz" in out and "shard-0001.npz" in out

    assert data_main(["verify", store]) == 0
    assert "OK" in capsys.readouterr().out


def test_build_resumes(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert data_main(["build", store, *CONFIG_ARGS, "--shard-sites", "1"]) == 0
    capsys.readouterr()
    assert data_main(["build", store, *CONFIG_ARGS, "--shard-sites", "1"]) == 0
    err = capsys.readouterr().err
    assert "skipping" in err


def test_verify_fails_on_corruption(tmp_path, capsys):
    store = tmp_path / "store"
    assert data_main(["build", str(store), *CONFIG_ARGS]) == 0
    shard = store / "shard-0000.npz"
    blob = bytearray(shard.read_bytes())
    blob[-1] ^= 0xFF
    shard.write_bytes(bytes(blob))
    assert data_main(["verify", str(store)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("layout", FOREIGN_X_LAYOUTS)
def test_verify_reports_foreign_x_layout(tmp_path, capsys, layout):
    store = tmp_path / "store"
    assert data_main(["build", str(store), *CONFIG_ARGS]) == 0
    capsys.readouterr()
    rewrite_store_x(store, layout)
    assert data_main(["verify", str(store)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  shard-0000.npz: unreadable" in out and "x.npy" in out


def test_merge_command(tmp_path, capsys):
    a, b, out = str(tmp_path / "a"), str(tmp_path / "b"), str(tmp_path / "m")
    assert data_main(["build", a, *CONFIG_ARGS]) == 0
    assert data_main(["build", b, *CONFIG_ARGS]) == 0
    assert data_main(["merge", out, a, b]) == 0
    assert "12 rows" in capsys.readouterr().out


def test_config_mismatch_is_usage_error(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert data_main(["build", store, *CONFIG_ARGS]) == 0
    assert data_main(["build", store, "--sites", "5", "--traces", "2"]) == 2
    assert "different" in capsys.readouterr().err


def test_version_mismatch_is_usage_error(tmp_path, capsys, monkeypatch):
    import repro

    store = str(tmp_path / "store")
    assert data_main(["build", store, *CONFIG_ARGS]) == 0
    monkeypatch.setattr(repro, "__version__", "0.0.0-other")
    assert data_main(["build", store, *CONFIG_ARGS]) == 2
    assert "simulator versions" in capsys.readouterr().err


def test_ls_on_non_store_fails(tmp_path, capsys):
    assert data_main(["ls", str(tmp_path)]) == 1
    assert "not a dataset store" in capsys.readouterr().err


@pytest.fixture
def truncated_store(tmp_path):
    """A 2-site store whose only shard is cut to half its size."""
    store = tmp_path / "store"
    build_dataset(
        store, DatasetConfig(n_sites=2, traces_per_site=3, trace_seconds=0.4)
    )
    shard = store / "shard-0000.npz"
    blob = shard.read_bytes()
    shard.write_bytes(blob[: len(blob) // 2])
    return store


@pytest.mark.parametrize(
    "argv, code",
    [(["data", "ls"], 1), (["train", "--out", "model", "--dataset"], 2)],
    ids=["data-ls", "train-dataset"],
)
def test_truncated_shard_is_a_clean_error(
    truncated_store, monkeypatch, capsys, argv, code
):
    monkeypatch.chdir(truncated_store.parent)
    assert main([*argv, str(truncated_store)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "shard-0000.npz" in err and "biggerfish data verify" in err


def test_no_subcommand_prints_help(capsys):
    assert data_main([]) == 2
    assert "build" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, env",
    [
        (["--jobs", "0"], {}),
        (["--jobs", "-3"], {}),
        (["--retries", "-5"], {}),
        ([], {"BIGGERFISH_JOBS": "abc"}),
        (["--shard-sites", "0"], {}),
    ],
    ids=[
        "jobs-zero", "jobs-negative", "retries-negative", "jobs-env-not-an-int",
        "shard-sites-zero",
    ],
)
def test_build_rejects_bad_engine_flags(tmp_path, capsys, monkeypatch, flags, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    store = tmp_path / "store"
    assert data_main(["build", str(store), *CONFIG_ARGS, *flags]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be" in err
    assert all(name in err for name in env)
    assert not store.exists()


def test_runner_dispatches_data(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["data", "build", store, *CONFIG_ARGS]) == 0
    assert main(["data", "verify", store]) == 0


def test_train_from_store(tmp_path, capsys):
    from repro.ml.artifact import load_artifact, load_info

    store = tmp_path / "store"
    config = DatasetConfig(n_sites=3, traces_per_site=4, trace_seconds=0.4)
    build_dataset(store, config, shard_sites=1)
    out = tmp_path / "model"
    assert main(["train", "--out", str(out), "--dataset", str(store)]) == 0
    info = load_info(out)
    assert info.provenance["dataset_config"] == config.as_dict()
    assert info.provenance["n_traces"] == 12
    assert sorted(info.classes) == ShardedDataset(store).classes
    # The artifact is usable end to end.
    model = load_artifact(out)
    x, _ = ShardedDataset(store).stacked()
    assert model.predict_proba(x).shape == (12, 3)

