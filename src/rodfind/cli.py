"""Batch command-line front end: gen-dataset, voxelize, train, tune, index,
query, eval. Exit codes: 0 success, 1 usage error, 2 data/runtime error."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _data_root(value: str | None) -> Path:
    return Path(value or os.environ.get("RODFIND_DATA_DIR") or ".")


def _at_least_one(text: str) -> int:
    """`--threads` and `query --k`: an integer of at least 1; argparse
    names the option in its message."""
    message = f"must be an integer of at least 1, got {text!r}"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if value < 1:
        raise argparse.ArgumentTypeError(message)
    return value


def _k_values(text: str) -> list[int]:
    """`eval --k`: comma-separated integers, each at least 1."""
    return [_at_least_one(k) for k in text.split(",")]


# `train`'s option defaults; `tune` trains every design row with these for
# the factors its design leaves out
_TRAIN_DEFAULTS = {"epochs": 100, "batch_size": 4, "learning_rate": 1e-5,
                   "margin": 0.5, "mu": 1.0, "layers": 7}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rodfind", description=__doc__)
    parser.add_argument("--config", help="JSON file with default option values")
    parser.add_argument("--threads", type=_at_least_one, default=None,
                        help="cap BLAS threads (1 forces full determinism)")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-dataset", help="generate the paired corpus of 16^3 grids")
    p.add_argument("--out", default=None, help="output directory (default: data root)")
    p.add_argument("--bases", type=int, default=15)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--total", type=int, default=None)
    group.add_argument("--per-base", type=int, default=None)
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("voxelize", help="STL file to a 16^3 NRRD occupancy grid")
    p.add_argument("--stl", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("fill", "surface"), default="fill")

    p = sub.add_parser("train", help="train the joint embedding from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="training log CSV path")
    p.add_argument("--epochs", type=int, default=_TRAIN_DEFAULTS["epochs"])
    p.add_argument("--batch-size", type=int, default=_TRAIN_DEFAULTS["batch_size"])
    p.add_argument("--lr", type=float, default=_TRAIN_DEFAULTS["learning_rate"])
    p.add_argument("--margin", type=float, default=_TRAIN_DEFAULTS["margin"])
    p.add_argument("--mu", type=float, default=_TRAIN_DEFAULTS["mu"])
    p.add_argument("--layers", type=int, default=_TRAIN_DEFAULTS["layers"],
                   help="shape-encoder convolution layers (3-7)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("tune", help="orthogonal-experiment hyperparameter search")
    p.add_argument("--manifest", required=True)
    p.add_argument("--design", required=True, help="design JSON (kind, factors)")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("index", help="embed a gallery and persist the index")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("train", "val", "all"), default="all")

    p = sub.add_parser("query", help="top-k shapes for a textual requirement")
    p.add_argument("--index", required=True)
    p.add_argument("--checkpoint", required=True)
    text = p.add_mutually_exclusive_group(required=True)
    text.add_argument("--text")
    text.add_argument("--text-file")
    p.add_argument("--k", type=_at_least_one, default=8)
    p.add_argument("--strict", action="store_true",
                   help="reject texts with unrecognized sentences")
    p.add_argument("--json", action="store_true")
    p.add_argument("--previews", default=None,
                   help="directory for OBJ previews of the matches")

    p = sub.add_parser("eval", help="recall@k of a checkpoint on a manifest split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=("train", "val", "all"), default="val")
    p.add_argument("--k", type=_k_values, default="1,8", help="comma-separated k values")
    p.add_argument("--json", action="store_true")
    parser.commands = sub.choices
    return parser


def _apply_config(parser, argv):
    """Make the keys of `--config FILE` (a JSON object) the defaults of the
    chosen subcommand's options; a key is an option name spelled with '-'
    or '_'. An option the file supplies is no longer required on the
    command line."""
    path = command = None
    tokens = iter(argv)
    for token in tokens:
        if token == "--config":
            path = next(tokens, None)
        elif token == "--threads":
            next(tokens, None)
        elif token.startswith("--config="):
            path = token.partition("=")[2]
        elif not token.startswith("-"):
            command = token
            break
    if path is None or command not in parser.commands:
        return  # argparse reports the missing file argument or command
    config = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise ValueError(f"{path}: --config must hold a JSON object")
    sub = parser.commands[command]
    options = {a.dest: a for a in sub._actions if a.option_strings}
    for key, value in config.items():
        action = options.get(key.replace("-", "_"))
        if action is None or action.dest == "help":
            raise _UsageError(f"rodfind: --config key {key!r} is not an option "
                              f"of {command}\n{sub.format_usage()}")
        if action.type is not None and isinstance(value, (int, float)):
            value = str(value)  # argparse converts a string default with the type
        action.default = value
        action.required = False


def dispatch(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        if args.command is None:
            sys.stderr.write(parser.format_usage())
            return 1
        if args.threads is not None:
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[var] = str(args.threads)
        handler = globals()[f"_cmd_{args.command.replace('-', '_')}"]
        return handler(args)
    except _UsageError as exc:
        sys.stderr.write(str(exc) + "\n")
        return 1
    except Exception as exc:  # data/runtime errors
        sys.stderr.write(f"rodfind: error: {exc}\n")
        return 2


def main():
    sys.exit(dispatch())


# ---------------------------------------------------------------------------
# command implementations (heavy imports stay inside the handlers so that
# --threads can pin the BLAS pool before numpy loads it)

def _cmd_gen_dataset(args) -> int:
    from . import dataset as ds
    from .encoders import GRID_EDGE

    out = _data_root(args.out)
    samples = ds.generate_variants(bases=args.bases, per_base=args.per_base,
                                   total=args.total, seed=args.seed)
    train, val = ds.split_samples(samples, args.val_fraction, seed=args.seed)
    (out / "grids").mkdir(parents=True, exist_ok=True)
    val_ids = {s.id for s in val}

    rows = []
    for sample in samples:
        rel = f"grids/{sample.id}.nrrd"
        (out / rel).write_bytes(ds.write_nrrd(sample.grid))
        rows.append(ds.ManifestRow(sample.id, sample.text, rel,
                                   "val" if sample.id in val_ids else "train"))
    manifest = ds.DatasetManifest(rows, {
        "schema_version": 1,
        "resolution": GRID_EDGE,
        "seed": args.seed,
        "bases": args.bases,
    })
    ds.write_manifest(manifest, out / "manifest.csv")
    print(f"wrote {len(samples)} samples ({len(train)} train / {len(val)} val) "
          f"under {out}")
    return 0


def _cmd_voxelize(args) -> int:
    from . import dataset as ds
    from . import geometry as geo
    from .encoders import GRID_EDGE

    data = Path(args.stl).read_bytes()
    mesh = geo.parse_stl(data)
    grid = geo.voxelize_mesh(mesh, GRID_EDGE, mode=args.mode)
    Path(args.out).write_bytes(ds.write_nrrd(grid))
    print(f"voxelized {args.stl} ({len(mesh)} triangles) -> {args.out} "
          f"({grid.occupied_count}/{grid.resolution ** 3} occupied)")
    return 0


def _load_splits(manifest_path, *splits):
    """The manifest, read once, then one sample list per split name
    ("train", "val" or "all")."""
    from . import dataset as ds

    manifest = ds.read_manifest(manifest_path)
    base = Path(manifest_path).parent

    def samples(split):
        return [ds.Sample(row.id, None, row.text,
                          ds.read_nrrd((base / row.nrrd_path).read_bytes()))
                for row in manifest.rows if split in ("all", row.split)]

    return (manifest, *map(samples, splits))


def _cmd_train(args) -> int:
    from . import encoders as enc
    from . import training as tr

    config = tr.TrainerConfig(batch_size=args.batch_size, learning_rate=args.lr,
                              epochs=args.epochs, margin=args.margin, mu=args.mu,
                              seed=args.seed)
    shape_config = enc.ShapeEncoderConfig(num_conv_layers=args.layers)
    _, train_samples, val_samples = _load_splits(args.manifest, "train", "val")
    result = tr.fit(train_samples, val_samples, config, shape_config=shape_config)
    enc.save_checkpoint(args.out, result.text_params, result.shape_params,
                        result.vocab.word_to_id,
                        {"seed": args.seed, "epochs": args.epochs,
                         "layers": args.layers, "lr": args.lr,
                         "batch_size": args.batch_size, "margin": args.margin,
                         "mu": args.mu})
    if args.log:
        with open(args.log, "w", encoding="utf-8") as stream:
            stream.write("epoch,train_loss,val_recall1,wall_seconds\n")
            for row in result.log:
                stream.write(f"{row.epoch},{row.train_loss:.6f},"
                             f"{row.val_recall1:.6f},{row.wall_seconds:.3f}\n")
    last = result.log[-1]
    print(f"trained {args.epochs} epochs: loss {last.train_loss:.4f}, "
          f"val recall@1 {last.val_recall1:.3f}; checkpoint at {args.out}")
    return 0


_FACTOR_ALIASES = {
    "batch size": "batch_size", "batch_size": "batch_size",
    "learning rate": "learning_rate", "learning_rate": "learning_rate",
    "epoch": "epochs", "epochs": "epochs",
    "convolution layer number": "layers", "conv layers": "layers",
    "layers": "layers",
}


def _cmd_tune(args) -> int:
    from . import doe
    from . import encoders as enc
    from . import training as tr

    design_data = json.loads(Path(args.design).read_text(encoding="utf-8"))
    factors = [doe.Factor(f["name"], tuple(f["levels"]))
               for f in design_data["factors"]]
    design = doe.make_design(design_data["kind"], factors)

    _, train_samples, val_samples = _load_splits(args.manifest, "train", "val")
    if not val_samples:
        raise ValueError(f"{args.manifest}: tuning needs a val split")

    def configs(assignment):
        settings = dict(_TRAIN_DEFAULTS)
        named = {}  # option -> the factor that set it
        for name, value in assignment.items():
            key = _FACTOR_ALIASES.get(name.lower())
            if key is None:
                raise ValueError(f"design factor {name!r} is not tunable")
            if key in named:
                raise ValueError(f"design factors {named[key]!r} and {name!r} "
                                 f"both set {key}")
            settings[key] = value
            named[key] = name
        layers = settings.pop("layers")
        return (tr.TrainerConfig(seed=args.seed, **settings),
                enc.ShapeEncoderConfig(num_conv_layers=layers))

    def objective(assignment):
        result = tr.fit(train_samples, val_samples, *configs(assignment))
        # fit's last epoch already measured val recall@1 with the final params
        return 100.0 * result.log[-1].val_recall1

    # every row's configs are built first, so a bad level stops the run before any row trains
    doe.map_rows(design, configs)
    report = doe.run_tuning(design, objective)
    csv_text = report.to_csv()
    Path(args.out).write_text(csv_text, encoding="utf-8")
    print(csv_text)
    print(f"best combination {report.ranges.best_combination} "
          f"({'ran' if report.recommended_was_run else 'not run'}): "
          f"{report.recommended}")
    return 0


def _cmd_index(args) -> int:
    from . import encoders as enc
    from . import retrieval as rt

    checkpoint = enc.load_checkpoint(args.checkpoint)
    manifest_path = Path(args.manifest)
    manifest, samples = _load_splits(manifest_path, args.split)
    paths = {row.id: str((manifest_path.parent / row.nrrd_path).resolve())
             for row in manifest.rows}
    index = rt.build_index(samples, checkpoint, nrrd_paths=paths)
    rt.save_index(index, args.out)
    print(f"indexed {len(index)} shapes -> {args.out}")
    return 0


def _cmd_query(args) -> int:
    from . import dataset as ds
    from . import encoders as enc
    from . import retrieval as rt
    from .errors import RetrievalError

    text = args.text if args.text is not None else Path(args.text_file).read_text(
        encoding="utf-8").strip()
    checkpoint = enc.load_checkpoint(args.checkpoint)
    index = rt.load_index(args.index)
    result = rt.query(text, index, checkpoint, k=args.k, lenient=not args.strict)
    if args.previews:
        # check every match before printing any: an index built without
        # `nrrd_paths` stores "" for each entry
        by_id = dict(zip(index.ids, index.nrrd_paths))
        sources = [(sample_id, by_id[sample_id]) for sample_id, _ in result.matches]
        missing = [sample_id for sample_id, path in sources if not path]
        if missing:
            raise RetrievalError(f"{args.index}: no NRRD path stored for {missing}; "
                                 "cannot write previews")
    if args.json:
        print(json.dumps({"query": result.query_text, "k": result.k,
                          "matches": [{"id": i, "distance": d}
                                      for i, d in result.matches]}, indent=2))
    else:
        print("rank\tid\tdistance")
        for rank, (sample_id, distance) in enumerate(result.matches, start=1):
            print(f"{rank}\t{sample_id}\t{distance:.6f}")
    if args.previews:
        preview_dir = Path(args.previews)
        preview_dir.mkdir(parents=True, exist_ok=True)
        for sample_id, path in sources:
            grid = ds.read_nrrd(Path(path).read_bytes())
            (preview_dir / f"{sample_id}.obj").write_bytes(rt.export_preview(grid))
        print(f"previews under {preview_dir}")
    return 0


def _cmd_eval(args) -> int:
    from . import dataset as ds
    from . import encoders as enc
    from . import training as tr

    checkpoint = enc.load_checkpoint(args.checkpoint)
    _, samples = _load_splits(args.manifest, args.split)
    vocab = ds.Vocabulary(dict(checkpoint.vocab_words))
    text_embs = tr.embed_texts(checkpoint.text, samples, vocab)
    shape_embs = tr.embed_shapes(checkpoint.shape, samples)
    ids = [s.id for s in samples]
    values = {k: tr.recall_from_embeddings(text_embs, shape_embs, ids, k) for k in args.k}
    if args.json:
        print(json.dumps({"split": args.split, "count": len(samples),
                          "recall": {str(k): v for k, v in values.items()}}, indent=2))
    else:
        for k in args.k:
            print(f"recall@{k}\t{values[k]:.4f}")
    return 0


if __name__ == "__main__":
    main()
