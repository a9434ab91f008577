"""``biggerfish train / serve / predict`` — the model-serving CLI.

Usage::

    biggerfish train --out model/ --scale smoke --seed 0
    biggerfish serve --artifact model/ < requests.jsonl > results.jsonl
    biggerfish predict --artifact model/ --scale smoke --check-direct

``train`` collects the closed-world dataset at the requested scale,
fits the scale's classifier backend (override with ``--backend``) and
writes a schema-versioned artifact directory (:mod:`repro.ml.artifact`)
recording weights, label classes and training provenance.

``serve`` loads artifacts into a :class:`~repro.serve.server.FingerprintServer`
and answers JSON-Lines requests on stdin — one object per line, e.g.
``{"id": 7, "vector": [24871, ...], "deadline_ms": 50}`` — with one
JSON result per line on stdout.  It answers one line before reading the
next, so each request is a batch of its own; each answer reports its
queue wait and model time (``wait_ms``, ``compute_ms``).  The server
runs at its defaults: batches of up to 32 requests, a queue of 256.

``predict`` is the evaluation loop in one command: collect fresh
evaluation traces (disjoint trace indices from training), classify them
through the batched server, and report accuracy.  ``--check-direct``
additionally runs the model directly on the same matrix and fails
unless the batched probabilities are bit-identical — the CI smoke gate
for the serving path.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from repro.config import SCALES
from repro.ml.artifact import ArtifactError


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument("--seed", type=int, default=0)


def add_parser(sub, engine_flags: argparse.ArgumentParser) -> None:
    """Register ``train``, ``serve`` and ``predict`` on the ``biggerfish`` parser."""
    train = sub.add_parser("train", help="train + save a model artifact")
    _add_scale_args(train)
    train.add_argument("--out", required=True, help="artifact directory to write")
    train.add_argument(
        "--backend", choices=("feature", "lstm"), default=None,
        help="classifier backend (default: the scale's backend)",
    )
    train.add_argument(
        "--dataset", default=None, metavar="DIR",
        help=(
            "train from a sharded repro.data store via the streaming reader "
            "instead of collecting traces (--scale then only picks the "
            "default backend)"
        ),
    )

    serve = sub.add_parser("serve", help="batched JSONL inference server")
    serve.add_argument(
        "--artifact", action="append", required=True, metavar="NAME=DIR|DIR",
        help="artifact to load (repeatable; bare DIR is named 'default')",
    )
    serve.add_argument(
        "--probs", action="store_true",
        help="include the full probability row in each result",
    )

    predict = sub.add_parser("predict", help="classify eval traces via the server")
    predict.add_argument("--artifact", required=True, help="artifact directory")
    _add_scale_args(predict)
    predict.add_argument(
        "--traces", type=int, default=2, help="evaluation traces per site"
    )
    predict.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline forwarded to the server",
    )
    predict.add_argument(
        "--check-direct", action="store_true",
        help="fail unless batched probabilities equal direct predict_proba",
    )
    for parser, command in ((train, _train), (serve, _serve), (predict, _predict)):
        parser.set_defaults(handler=functools.partial(_run, parser.prog, command))


# ----------------------------------------------------------------------
# train


def _train_matrix_from_store(store_dir: str, seed: int):
    """Assemble the training set through the streaming reader.

    Batches come from :meth:`~repro.data.reader.ShardedDataset.stream_batches`,
    whose seeded row permutation is independent of shard layout — so a
    model trained from any sharding of the same config sees the same
    rows in the same order, and only one batch of trace data is resident
    beyond the accumulating matrix at any point.
    """
    from repro.data.reader import ShardedDataset

    store = ShardedDataset(store_dir)
    parts_x, parts_labels = [], []
    for batch_x, batch_labels in store.stream_batches(256, seed=seed):
        parts_x.append(batch_x)
        parts_labels.append(batch_labels)
    x = np.concatenate(parts_x)
    labels = np.concatenate(parts_labels).tolist()
    provenance = {
        "dataset": str(store_dir),
        "dataset_config": store.manifest.config.as_dict(),
        "dataset_rows": store.n_rows,
    }
    return x, labels, provenance


def _train(args: argparse.Namespace) -> int:
    from repro.ml.encoding import LabelEncoder
    from repro.ml.models import make_fingerprinter

    scale = SCALES[args.scale]
    backend = args.backend or scale.backend
    provenance = {
        "seed": args.seed,
        "scale": scale.name,
        "scale_params": scale.as_dict(),
        "backend": backend,
        "trained_by": "biggerfish train",
    }
    if args.dataset is not None:
        print(f"streaming training set from store {args.dataset}...")
        x, labels, source = _train_matrix_from_store(args.dataset, args.seed)
        provenance.update(source)
    else:
        from repro.core.pipeline import FingerprintingPipeline
        from repro.sim.machine import MachineConfig
        from repro.workload.browser import CHROME

        pipeline = FingerprintingPipeline(
            MachineConfig(), CHROME, scale=scale, seed=args.seed
        )
        print(
            f"collecting {scale.n_sites} sites x {scale.traces_per_site} traces "
            f"(scale={scale.name}, seed={args.seed})..."
        )
        x, labels = pipeline.collect_closed_world()
    encoder = LabelEncoder()
    y = encoder.fit_transform(list(labels))
    print(f"training {backend} backend on {len(x)} traces...")
    model = make_fingerprinter(backend, seed=args.seed)
    model.fit(x, y, encoder.n_classes)
    provenance["n_traces"] = int(len(x))
    path = model.save(args.out, classes=encoder.classes, provenance=provenance)
    print(f"wrote artifact: {Path(path).resolve()}")
    return 0


# ----------------------------------------------------------------------
# serve


def _parse_artifacts(specs: list[str]):
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry()
    for spec in specs:
        name, _, path = spec.partition("=")
        if not path:
            name, path = "default", spec
        registry.add(name, path)
    return registry


def _serve(args: argparse.Namespace) -> int:
    from repro.serve.server import FingerprintServer

    registry = _parse_artifacts(args.artifact)
    served = 0
    with FingerprintServer(registry) as server:
        print(
            f"serving {registry.names()} (max_batch={server.max_batch}, "
            f"queue={server.max_queue})",
            file=sys.stderr,
        )
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                print(
                    json.dumps({"ok": False, "error": "bad_input", "detail": str(exc)})
                )
                continue
            result = server.predict(
                request.get("vector"),
                model=request.get("model"),
                deadline_ms=request.get("deadline_ms"),
            )
            response = {"ok": result.ok}
            if "id" in request:
                response["id"] = request["id"]
            if result.ok:
                response["label"] = result.label
                response["confidence"] = round(result.confidence, 6)
                response["batch_size"] = result.batch_size
                response["wait_ms"] = round(result.wait_ms, 3)
                response["compute_ms"] = round(result.compute_ms, 3)
                if args.probs:
                    response["probs"] = [float(p) for p in result.probs]
            else:
                response["error"] = result.error
                response["detail"] = result.detail
            print(json.dumps(response), flush=True)
            served += 1
    print(f"served {served} request(s)", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# predict


def _predict(args: argparse.Namespace) -> int:
    from repro.core.pipeline import FingerprintingPipeline
    from repro.ml.artifact import load_artifact, load_info
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import FingerprintServer
    from repro.sim.machine import MachineConfig
    from repro.workload.browser import CHROME

    info = load_info(args.artifact)
    scale = SCALES[args.scale]
    pipeline = FingerprintingPipeline(
        MachineConfig(), CHROME, scale=scale, seed=args.seed
    )
    # Evaluation traces start past the training indices, so train and
    # eval never share a trace even with identical seed and scale.
    x, labels = pipeline.collector.collect(
        pipeline.sites(), args.traces, start_index=scale.traces_per_site
    ).stacked()
    registry = ModelRegistry()
    registry.add("default", args.artifact)
    with FingerprintServer(registry) as server:
        results = server.predict_many(list(x), deadline_ms=args.deadline_ms)
    failed = [r for r in results if not r.ok]
    if failed:
        print(
            f"biggerfish predict: {len(failed)} request(s) failed "
            f"(first: {failed[0].error}: {failed[0].detail})",
            file=sys.stderr,
        )
        return 1
    correct = sum(1 for r, want in zip(results, labels) if r.label == want)
    sizes = [r.batch_size for r in results]
    print(
        f"model: {info.backend} ({args.artifact}), schema v{info.schema_version}, "
        f"repro {info.repro_version}"
    )
    print(
        f"classified {len(results)} eval traces: accuracy "
        f"{100.0 * correct / len(results):.1f}% "
        f"({correct}/{len(results)}), mean batch {np.mean(sizes):.1f}"
    )
    if args.check_direct:
        direct = load_artifact(args.artifact).predict_proba(x)
        batched = np.stack([r.probs for r in results])
        if not np.array_equal(direct, batched):
            print(
                "biggerfish predict: batched probabilities differ from "
                "direct predict_proba",
                file=sys.stderr,
            )
            return 1
        direct_accuracy = 0
        if info.classes is not None:
            hits = [
                info.classes[int(row.argmax())] == want
                for row, want in zip(direct, labels)
            ]
            direct_accuracy = sum(hits)
        if direct_accuracy != correct:
            print(
                "biggerfish predict: batched accuracy disagrees with direct "
                f"evaluation ({correct} != {direct_accuracy})",
                file=sys.stderr,
            )
            return 1
        print("check-direct: batched results bit-identical to direct predict_proba")
    return 0


def _run(prog: str, command, args: argparse.Namespace) -> int:
    try:
        return command(args)
    except (ArtifactError, ValueError) as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return 2
