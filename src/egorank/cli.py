"""Command-line interface.

Subcommands: ingest, rank, targets, run (ingest then targets), synth (generator).
Exit codes: 0 success, 1 usage/config error, 2 data error.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .config import RESOURCE_KEYS, load_config
from .errors import ConfigError, EgorankError
from .pipeline import (
    INGEST_REPORT_NAME,
    load_bundle,
    run_ingest,
    run_rank,
    run_targets,
)

# Named, not __name__: under ``python -m egorank.cli`` that is "__main__".
log = logging.getLogger("egorank.cli")

# At exit, hide every live object from the collector, so the full
# collections that interpreter shutdown runs do not walk objects that are
# about to be freed anyway. Registered here, not in main(): a process that
# calls main() and keeps running must go on collecting its cyclic garbage.
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _override_flags() -> argparse.ArgumentParser:
    """The flags of ingest, rank, targets and run, built once for all four."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", required=True, help="pipeline config JSON")
    parser.add_argument("--platform", help="Facebook, Twitter or LinkedIn")
    parser.add_argument("--ego-id", dest="ego_id")
    parser.add_argument("--bucket", help="'all' or 'Category/Sentiment'")
    parser.add_argument("--n-it", dest="n_it", type=int)
    parser.add_argument("--threshold", type=int)
    parser.add_argument("--normalization")
    parser.add_argument("--allow-small", dest="allow_small", action="store_const", const=True)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--since")
    parser.add_argument("--until")
    for key in RESOURCE_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="egorank", description=__doc__)
    parser.add_argument("--version", action="version", version=f"egorank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = _override_flags()
    for name, help_text in (
        ("ingest", "load, preprocess, classify and bucket all datasets into a labelled bundle"),
        ("rank", "rank the bundle's buckets that have no current ranking"),
        ("targets", "select top-most influenceable targets from a ranking"),
        ("run", "ingest, then targets: rank what has no current ranking and select"),
    ):
        sub.add_parser(name, help=help_text, parents=[shared])

    synth = sub.add_parser("synth", help="write a deterministic synthetic corpus + config")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--seed", type=int, default=7)
    synth.add_argument("--members", type=int, default=60)
    synth.add_argument("--docs-per-member", dest="docs_per_member", type=int, default=12)
    synth.add_argument("--planted", type=int, default=10)
    synth.add_argument("--dim", type=int, default=50)
    synth.add_argument("--extra-vocab", dest="extra_vocab", type=int, default=0,
                       help="pad the embedding vocabulary to this size")
    return parser


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import synth  # here, not at the top: no other command needs it

    out = Path(args.out)
    truth = synth(
        out,
        seed=args.seed,
        members=args.members,
        docs_per_member=args.docs_per_member,
        planted=args.planted,
        dim=args.dim,
        extra_vocab=args.extra_vocab,
    )
    print(f"synthetic corpus written to {out}")
    print(f"  members={args.members} docs_per_member={args.docs_per_member} "
          f"planted={len(truth.planted)} mega={len(truth.mega)}")
    print(f"  ego bucket: {truth.ego_bucket[0]}/{truth.ego_bucket[1]}")
    print(f"  run it with: egorank run --config {out / 'config.json'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    # Scoring never calls BLAS, so spare numpy's import the start of its threads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        # load_config reads only the dests that name a config field
        cfg = load_config(args.config, vars(args))
        if args.command == "ingest":
            run_ingest(cfg)
            sys.stdout.write((cfg.out_dir / INGEST_REPORT_NAME).read_text(encoding="utf-8"))
            return EXIT_OK
        if args.command == "rank":
            for bucket, ranking in run_rank(cfg, load_bundle(cfg)).items():
                print(f"{bucket}: {len(ranking.entries)} ranked members")
            return EXIT_OK
        # targets, or run: ingest then targets
        if args.command == "run":
            run_ingest(cfg)
        for bucket, sel in run_targets(cfg).items():
            print(f"{bucket}: N_it={sel.n_it} D_it={sel.d_it} effective={len(sel.effective)}")
        return EXIT_OK
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except EgorankError as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except OSError as exc:  # such as an out_dir that names a file, or a path under one
        log.error("%s", exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
