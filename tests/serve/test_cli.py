"""Tests for the train/serve/predict commands of the ``biggerfish`` CLI."""

import io
import json

import numpy as np

from repro.cli import main


class TestDispatch:
    def test_runner_dispatches_serve_subcommands(self, monkeypatch):
        seen = {}

        def fake_predict(args):
            seen["artifact"] = args.artifact
            return 0

        monkeypatch.setattr("repro.serve.cli._predict", fake_predict)
        assert main(["predict", "--artifact", "x"]) == 0
        assert seen["artifact"] == "x"

    def test_parser_rejects_unknown_command(self, capsys):
        assert main(["deploy"]) == 2
        assert "unknown experiment 'deploy'" in capsys.readouterr().err

    def test_missing_artifact_is_clean_error(self, tmp_path, capsys):
        """A bad --artifact path exits 2 with a one-line message, not a
        traceback (the CLI convention for usage errors)."""
        code = main(
            ["predict", "--artifact", str(tmp_path / "nope"), "--scale", "smoke"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("biggerfish predict:")
        assert "Traceback" not in err


class TestServeJsonl:
    def _run(self, lines, artifact_dir, monkeypatch, capsys, extra=()):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("\n".join(lines) + "\n")
        )
        code = main(["serve", "--artifact", str(artifact_dir), *extra])
        assert code == 0
        out = capsys.readouterr().out
        return [json.loads(line) for line in out.splitlines() if line.strip()]

    def test_requests_answered_in_order(self, artifact_dir, dataset, monkeypatch, capsys):
        x, _ = dataset
        lines = [
            json.dumps({"id": i, "vector": list(x[i])}) for i in range(3)
        ]
        responses = self._run(lines, artifact_dir, monkeypatch, capsys)
        assert [r["id"] for r in responses] == [0, 1, 2]
        assert all(r["ok"] for r in responses)
        assert all("label" in r and "confidence" in r for r in responses)

    def test_probs_flag_includes_rows(self, artifact_dir, dataset, monkeypatch, capsys):
        x, _ = dataset
        lines = [json.dumps({"vector": list(x[0])})]
        responses = self._run(
            lines, artifact_dir, monkeypatch, capsys, extra=("--probs",)
        )
        assert len(responses[0]["probs"]) == 4
        assert abs(sum(responses[0]["probs"]) - 1.0) < 1e-9

    def test_malformed_lines_reported_not_fatal(self, artifact_dir, dataset, monkeypatch, capsys):
        x, _ = dataset
        lines = ["{not json", json.dumps({"id": 1, "vector": list(x[0])})]
        responses = self._run(lines, artifact_dir, monkeypatch, capsys)
        assert responses[0]["ok"] is False and responses[0]["error"] == "bad_input"
        assert responses[1]["ok"] is True

    def test_wrong_length_for_lstm_model_answers_not_ok(
        self, lstm_artifact_dir, dataset, monkeypatch, capsys
    ):
        x, _ = dataset
        lines = [
            json.dumps({"id": 1, "vector": list(x[0][:90])}),
            json.dumps({"id": 2, "vector": list(x[0])}),
        ]
        responses = self._run(lines, lstm_artifact_dir, monkeypatch, capsys)
        assert responses[0]["ok"] is False and responses[0]["error"] == "model_error"
        assert "120 samples" in responses[0]["detail"]
        assert "label" not in responses[0]
        assert responses[1]["ok"] is True

    def test_named_artifact_spec(self, artifact_dir, dataset, monkeypatch, capsys):
        x, _ = dataset
        lines = [json.dumps({"vector": list(x[0]), "model": "fish"})]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(["serve", "--artifact", f"fish={artifact_dir}"])
        assert code == 0
        response = json.loads(capsys.readouterr().out.splitlines()[0])
        assert response["ok"] is True


class TestPredictCommand:
    def test_check_direct_on_synthetic_artifact(self, tmp_path, capsys):
        """End to end through real smoke-scale collection: an artifact
        trained on matching-length synthetic traces classifies freshly
        collected eval traces through the batched server, bit-identical
        to direct evaluation."""
        from repro.config import SMOKE
        from repro.core.pipeline import FingerprintingPipeline
        from repro.ml.models import FeatureFingerprinter
        from repro.sim.machine import MachineConfig
        from repro.workload.browser import CHROME

        pipeline = FingerprintingPipeline(
            MachineConfig(), CHROME, scale=SMOKE, seed=0
        )
        length = pipeline.collector.spec.n_samples
        sites = [site.name for site in pipeline.sites()]
        rng = np.random.default_rng(5)
        x = rng.normal(1.0, 0.05, size=(4 * len(sites), length))
        y = np.repeat(np.arange(len(sites)), 4)
        model = FeatureFingerprinter(seed=5).fit(x, y, len(sites))
        artifact = tmp_path / "model"
        model.save(artifact, classes=sorted(sites))
        code = main(
            [
                "predict", "--artifact", str(artifact), "--scale", "smoke",
                "--seed", "0", "--traces", "1", "--check-direct",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical" in out

    def test_lstm_artifact_of_another_length_fails_cleanly(self, tmp_path, capsys):
        """An LSTM trained on 120-sample rows, asked to classify smoke-scale
        traces: exit 1 with one stderr line naming both lengths."""
        from repro.ml.models import LstmFingerprinter

        rng = np.random.default_rng(5)
        x = rng.normal(1.0, 0.05, size=(16, 120))
        y = np.repeat(np.arange(8), 2)
        model = LstmFingerprinter(conv_filters=4, lstm_units=4, epochs=1, seed=5)
        artifact = tmp_path / "model"
        model.fit(x, y, 8).save(artifact)
        code = main(
            [
                "predict", "--artifact", str(artifact), "--scale", "smoke",
                "--seed", "0", "--traces", "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "accuracy" not in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("biggerfish predict: 8 request(s) failed")
        assert "120 samples" in lines[0] and "400)" in lines[0]
        assert "Traceback" not in captured.err
