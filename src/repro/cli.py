"""Command-line interface: ``python -m repro <command>``.

Regenerates each of the paper's evaluation artifacts from the terminal:

- ``table1``   — analysis-vs-simulation check at the Table I defaults;
- ``theory``   — the Theorem 1-4 closed forms at given parameters;
- ``dsss``     — a jammed-HELLO PHY sweep exercising the spread /
  despread / ECC hot path and its artifact caches;
- ``chaos``    — an invariant-checked fault-injection soak driving a
  seeded :class:`~repro.faults.FaultPlan` against a small event
  network (exits non-zero if any invariant breaks);
- ``campaign`` — sharded, resumable sweep campaigns
  (``launch`` / ``resume`` / ``status`` / ``query`` / ``diff``)
  backed by the :mod:`repro.campaigns` SQLite results store; a killed
  campaign resumes from completed shards only and finishes with a
  store bit-identical to an uninterrupted run's.  Each figure of the
  paper is one spec (``examples/fig2.json`` … ``examples/fig5.json``):
  ``campaign launch --spec`` it, then ``campaign query [--chart]``
  prints what the figure plots.

Every command accepts ``--runs`` (Monte Carlo runs per point of
``table1`` and ``validate``; the paper uses 100), ``--seed``, and
``--metrics-out <path.json>`` — the latter
installs a :class:`~repro.obs.MetricsRegistry` for the duration of the
command and writes the resulting
:class:`~repro.obs.MetricsSnapshot` as JSON, giving benchmark runs
machine-readable telemetry to regress against.

A command refused with a :class:`~repro.errors.ConfigurationError` (a
bad spec, a missing or damaged store) prints one ``error:`` line on
stderr and exits with :data:`EXIT_CONFIGURATION_ERROR`.  A campaign
``launch``/``resume`` whose pool worker died prints one ``error:``
line naming the resume command and exits with
:data:`EXIT_WORKER_POOL_ERROR`; its committed shards are kept.  A
reader that closes stdout early (``| head``) ends the command quietly with
:data:`EXIT_STDOUT_CLOSED`; a campaign still finishes and commits.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import List, Optional

from repro.adversary.jammer import JammerStrategy
from repro.analysis.combined import combined_latency
from repro.analysis.dndp_theory import (
    dndp_expected_latency,
    dndp_probability_bounds,
)
from repro.analysis.mndp_theory import (
    mndp_expected_latency,
    mndp_two_hop_bound,
)
from repro.core.config import JRSNDConfig
from repro.errors import ConfigurationError, WorkerPoolError
from repro.experiments.reporting import format_series_table
from repro.experiments.runner import NetworkExperiment

__all__ = [
    "main", "build_parser", "EXIT_CONFIGURATION_ERROR",
    "EXIT_STDOUT_CLOSED", "EXIT_WORKER_POOL_ERROR",
]

#: Exit code of a command refused with a ``ConfigurationError``; 1 means
#: an incomplete campaign or a broken invariant, 2 an argument error.
EXIT_CONFIGURATION_ERROR = 4

#: Exit code of a campaign ``launch``/``resume`` stopped by a
#: ``WorkerPoolError``: a pool worker died.  Committed shards are kept,
#: so ``campaign resume`` finishes the store.
EXIT_WORKER_POOL_ERROR = 3

#: Exit code of a command whose stdout was closed by its reader: 128 +
#: SIGPIPE, what a shell reports for a writer the signal ended.
EXIT_STDOUT_CLOSED = 141


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JR-SND (ICDCS 2011) reproduction toolkit",
    )
    parser.add_argument("--runs", type=int, default=5,
                        help="Monte Carlo runs per sweep point "
                             "(paper: 100)")
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="collect metrics across the command and "
                             "write the snapshot as JSON to PATH")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="defaults consistency check")
    theory = sub.add_parser("theory", help="Theorem 1-4 closed forms")
    theory.add_argument("--q", type=int, default=20)
    theory.add_argument("--nu", type=int, default=2)
    dsss = sub.add_parser(
        "dsss",
        help="jammed-HELLO PHY sweep (spread, jam, despread, decode)",
    )
    dsss.add_argument("--messages", type=int, default=100,
                      help="distinct HELLO senders (each sent twice, so "
                           "the waveform cache registers hits)")
    dsss.add_argument("--burst", type=float, default=0.2,
                      help="fraction of coded bits erased by a "
                           "contiguous jamming burst")
    sub.add_parser(
        "validate",
        help="sweep a config grid checking Theorem 1 agreement",
    )
    chaos = sub.add_parser(
        "chaos",
        help="invariant-checked fault-injection soak "
             "(exits non-zero on any violation)",
    )
    chaos.add_argument("--nodes", type=int, default=8,
                       help="event-network size")
    chaos.add_argument("--duration", type=float, default=30.0,
                       help="simulated seconds to soak")
    chaos.add_argument("--drop", type=float, default=0.05,
                       help="per-delivery drop probability (0 disables)")
    chaos.add_argument("--burst", type=float, default=0.5,
                       help="chip-burst jam window length in seconds "
                            "(0 disables)")
    chaos.add_argument("--burst-period", type=float, default=5.0,
                       help="seconds between jam windows")
    chaos.add_argument("--no-churn", action="store_true",
                       help="disable node crash/restart churn")
    chaos.add_argument("--skew", type=float, default=1e-3,
                       help="max per-node clock skew in seconds "
                            "(0 disables)")
    chaos.add_argument("--duplicate", type=float, default=0.02,
                       help="duplicate-delivery probability (0 disables)")
    chaos.add_argument("--reorder", type=float, default=0.02,
                       help="reordered-delivery probability (0 disables)")
    chaos.add_argument("--no-faults", action="store_true",
                       help="run with the NullFaultPlan (baseline)")
    campaign = sub.add_parser(
        "campaign",
        help="sharded, resumable sweep campaigns backed by a "
             "SQLite results store",
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", required=True
    )
    for verb, blurb in (
        ("launch", "start a campaign (skips shards already stored)"),
        ("resume", "continue an interrupted campaign"),
    ):
        runner = campaign_sub.add_parser(
            verb, help=blurb,
            epilog="exit status: 0 complete (or stopped by "
                   "--max-shards), 1 incomplete, 3 a pool worker died "
                   "(committed shards are kept: resume), 4 a bad spec "
                   "or store",
        )
        runner.add_argument("--spec", metavar="PATH", default=None,
                            help="campaign spec JSON file")
        runner.add_argument("--store", metavar="PATH", required=True,
                            help="SQLite results store")
        runner.add_argument("--campaign", metavar="NAME", default=None,
                            help="reuse the spec stored under NAME "
                                 "instead of --spec")
        runner.add_argument("--processes", type=int, default=None,
                            help="worker processes (sizes the "
                                 "persistent pool; 1 runs in-process)")
        runner.add_argument("--max-shards", type=int, default=None,
                            help="stop (resumably) after this many "
                                 "shards")
        runner.add_argument("--kill-after-shards", type=int,
                            default=None,
                            help="testing hook: SIGKILL this process "
                                 "after the commit that brings the "
                                 "committed shards to at least N")
        runner.add_argument("--revision", default=None,
                            help="override the git revision key "
                                 "(default: git rev-parse HEAD)")
    status = campaign_sub.add_parser(
        "status", help="per-campaign shard progress and store digest"
    )
    status.add_argument("--store", metavar="PATH", required=True)
    status.add_argument("--json", action="store_true",
                        help="machine-readable status (shards done "
                             "and pending, canonical digest)")
    query = campaign_sub.add_parser(
        "query", help="per-point aggregated results of a campaign"
    )
    query.add_argument("--store", metavar="PATH", required=True)
    query.add_argument("--campaign", metavar="NAME", required=True)
    query.add_argument("--revision", default=None,
                       help="revision to query (default: latest)")
    query.add_argument("--chart", action="store_true",
                       help="also chart the probabilities against the "
                            "first numeric axis with several values, "
                            "one chart per combination of the others")
    diff = campaign_sub.add_parser(
        "diff",
        help="per-point deltas of one campaign across two revisions "
             "or two stores",
    )
    diff.add_argument("--store", metavar="PATH", required=True)
    diff.add_argument("--campaign", metavar="NAME", required=True)
    diff.add_argument("--revision", default=None,
                      help="baseline revision (default: latest)")
    diff.add_argument("--against", default=None,
                      help="revision to compare against the baseline")
    diff.add_argument("--other", metavar="PATH", default=None,
                      help="read the --against side from this store "
                           "instead")
    return parser


def _cmd_table1(args: argparse.Namespace) -> None:
    config = JRSNDConfig()
    low, high = dndp_probability_bounds(config, config.n_compromised)
    reactive = NetworkExperiment(
        config, seed=args.seed, strategy=JammerStrategy.REACTIVE
    ).run(args.runs)
    random_ = NetworkExperiment(
        config, seed=args.seed, strategy=JammerStrategy.RANDOM
    ).run(args.runs)
    print(format_series_table(
        [{
            "p_dndp_reactive": reactive.discovery_probability("dndp"),
            "theory_P_minus": low,
            "p_dndp_random": random_.discovery_probability("dndp"),
            "theory_P_plus": high,
            "p_jrsnd": reactive.discovery_probability("jrsnd"),
        }],
        title="Table I defaults: simulation vs Theorem 1",
    ))


def _cmd_theory(args: argparse.Namespace) -> None:
    config = JRSNDConfig().replace(n_compromised=args.q, nu=args.nu)
    low, high = dndp_probability_bounds(config, args.q)
    print(format_series_table(
        [{
            "q": float(args.q),
            "P_minus": low,
            "P_plus": high,
            "P_M_bound": mndp_two_hop_bound(low, config.expected_degree),
            "T_D": dndp_expected_latency(config),
            "T_M": mndp_expected_latency(config),
            "T": combined_latency(config),
        }],
        title=f"Theorems 1-4 at q={args.q}, nu={args.nu}",
    ))


def _cmd_dsss(args: argparse.Namespace) -> None:
    """Drive the PHY hot path end to end: frame, ECC-encode, spread,
    superpose, despread, burst-erase, decode.

    Each distinct HELLO is transmitted twice with the same spread code,
    so the run exercises the waveform/rs_codec artifact caches and the
    Reed-Solomon codec — all visible in a ``--metrics-out`` snapshot
    via the ``cache.*`` and ``ecc.*`` counters.
    """
    import numpy as np

    from repro.dsss.channel import ChipChannel
    from repro.dsss.frame import Frame, FrameCodec, MessageType
    from repro.dsss.spread_code import SpreadCode
    from repro.dsss.spreader import despread
    from repro.errors import DecodeError
    from repro.utils.artifact_cache import shared_cache
    from repro.utils.bitstring import bits_from_int

    if args.messages <= 0:
        raise SystemExit("--messages must be positive")
    if not 0.0 <= args.burst < 1.0:
        raise SystemExit("--burst must be in [0, 1)")
    config = JRSNDConfig()
    codec = FrameCodec(config.mu, config.type_bits)
    rng = np.random.default_rng(args.seed)
    code = SpreadCode.random(config.code_length, rng)
    cache = shared_cache()
    hits_before, misses_before = cache.hits, cache.misses
    sent = decoded_ok = 0
    for _round in range(2):
        for sender in range(args.messages):
            frame = Frame(
                MessageType.HELLO,
                bits_from_int(
                    sender % (1 << config.id_bits), config.id_bits
                ),
            )
            channel = ChipChannel(noise_std=0.0)
            channel.add_message(
                codec.encode(frame), code, offset=0,
                label=f"hello:{sender}",
            )
            decisions = despread(channel.render(), code, config.tau)
            burst = int(args.burst * len(decisions))
            if burst:
                start = int(
                    rng.integers(0, len(decisions) - burst + 1)
                )
                decisions[start : start + burst] = [None] * burst
            sent += 1
            try:
                if codec.decode(decisions, config.id_bits) == frame:
                    decoded_ok += 1
            except DecodeError:
                pass
    print(format_series_table(
        [{
            "hellos_sent": float(sent),
            "decoded_ok": float(decoded_ok),
            "success_rate": decoded_ok / sent,
            "burst_fraction": float(args.burst),
            "artifact_cache_hits": float(cache.hits - hits_before),
            "artifact_cache_misses": float(
                cache.misses - misses_before
            ),
        }],
        title="DSSS jammed-HELLO sweep",
    ))


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run an invariant-checked chaos soak; non-zero on violations."""
    from repro.experiments.chaos import (
        chaos_config,
        default_chaos_plan,
        run_chaos,
    )
    from repro.faults import NullFaultPlan

    config = chaos_config(args.nodes)
    if args.no_faults:
        plan = NullFaultPlan()
    else:
        plan = default_chaos_plan(
            config,
            seed=args.seed,
            duration=args.duration,
            drop=args.drop,
            burst=args.burst,
            burst_period=args.burst_period,
            churn=not args.no_churn,
            skew=args.skew,
            duplicate=args.duplicate,
            reorder=args.reorder,
        )
    report = run_chaos(
        config, seed=args.seed, duration=args.duration, plan=plan
    )
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def _existing_store(path: str):
    """Open the campaign store at ``path`` for reading.

    Opening a store creates a missing file, which only
    ``launch``/``resume`` should do; every read of an existing store
    goes through here, so a mistyped path fails instead of reporting
    on a new, empty store.
    """
    from repro.campaigns import CampaignStore

    if not os.path.isfile(path):
        raise ConfigurationError(f"no campaign store file at {path}")
    return CampaignStore(path)


def _campaign_spec(args: argparse.Namespace):
    """Resolve the spec for launch/resume from --spec or --campaign."""
    from repro.campaigns import CampaignSpec

    if args.spec is not None:
        return CampaignSpec.from_file(args.spec)
    if args.campaign is not None:
        with _existing_store(args.store) as store:
            spec, _revision = store.spec_for(args.campaign)
        return spec
    raise SystemExit("campaign launch/resume needs --spec or --campaign")


def _stored_key(store, campaign: str, revision: Optional[str]):
    """``(spec hash, revision)`` the store keys ``campaign``'s rows by.

    The stored hash, not the parsed spec's: a spec written before a
    field was removed re-hashes differently.  Without a ``revision``
    the lexicographically last one is used, as in ``spec_for``.
    """
    rows = [
        row for row in store.list_campaigns()
        if row["campaign_id"] == campaign
        and revision in (None, row["git_revision"])
    ]
    if not rows:
        raise ConfigurationError(
            f"campaign {campaign!r} not found in {store.path}"
        )
    row = max(rows, key=lambda row: row["git_revision"])
    return row["spec_hash"], row["git_revision"]


def _query_charts(spec, rows: List[dict]) -> List[str]:
    """Probability charts of a campaign's query rows.

    The x-axis is the first grid axis (in point order) whose values
    are numbers and that has more than one of them; each combination
    of the other axes' values gets its own chart.  No such axis, no
    chart.
    """
    from repro.experiments.charts import ascii_chart

    def numeric(values) -> bool:
        return all(
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            for value in values
        )

    axes = sorted(spec.grid)
    x = next(
        (
            axis for axis in axes
            if len(spec.grid[axis]) > 1 and numeric(spec.grid[axis])
        ),
        None,
    )
    if x is None:
        return []
    others = [axis for axis in axes if axis != x]
    groups: dict = {}
    for row in rows:
        groups.setdefault(
            tuple(row[axis] for axis in others), []
        ).append(row)
    charts = []
    for values, group in groups.items():
        where = ", ".join(
            f"{axis}={value}" for axis, value in zip(others, values)
        )
        charts.append(ascii_chart(
            group, x, ["p_dndp", "p_mndp", "p_jrsnd"],
            title=f"{spec.name}: probability vs {x}"
                  + (f" ({where})" if where else ""),
        ))
    return charts


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Dispatch ``campaign launch|resume|status|query|diff``."""
    from repro.campaigns import run_campaign
    from repro.experiments.reporting import format_kv_block

    if args.campaign_command in ("launch", "resume"):
        spec = _campaign_spec(args)
        try:
            status = run_campaign(
                spec,
                args.store,
                processes=args.processes,
                max_shards=args.max_shards,
                kill_after_shards=args.kill_after_shards,
                git_revision=args.revision,
                progress=print,
            )
        except WorkerPoolError as error:
            revision = (
                f" --revision {args.revision}" if args.revision else ""
            )
            print(
                f"error: {' '.join(str(error).split())}; committed "
                f"shards are kept: resume with 'python -m repro "
                f"campaign resume --store {args.store} --campaign "
                f"{spec.name}{revision}'",
                file=sys.stderr,
            )
            return EXIT_WORKER_POOL_ERROR
        remaining = (
            status.shards_total
            - status.shards_executed
            - status.shards_skipped
        )
        print(format_kv_block(
            [
                ("campaign", status.campaign_id),
                ("spec hash", status.spec_hash),
                ("revision", status.git_revision),
                ("shards", f"{remaining} remaining / "
                           f"{status.shards_executed} executed / "
                           f"{status.shards_skipped} skipped"),
                ("runs executed", status.runs_executed),
                ("complete", status.complete),
                ("digest", status.canonical_digest),
            ],
            title=f"campaign {args.campaign_command}: {status.campaign_id}",
        ))
        return 0 if status.complete or args.max_shards is not None else 1
    if args.campaign_command == "status":
        import json as _json

        with _existing_store(args.store) as store:
            campaigns = store.list_campaigns()
            digest = store.canonical_digest()
        if args.json:
            payload = {
                "store": args.store,
                "canonical_digest": digest,
                "campaigns": [
                    {
                        "campaign_id": row["campaign_id"],
                        "spec_hash": row["spec_hash"],
                        "git_revision": row["git_revision"],
                        "status": row["status"],
                        "shards_done": row["shards_done"],
                        "shards_total": row["shards_total"],
                        "shards_pending": (
                            row["shards_total"] - row["shards_done"]
                        ),
                    }
                    for row in campaigns
                ],
            }
            print(_json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if not campaigns:
            print(f"no campaigns in {args.store}")
            return 0
        print(format_series_table(
            [
                {
                    "campaign": row["campaign_id"],
                    "spec_hash": row["spec_hash"],
                    "revision": row["git_revision"][:12],
                    "status": row["status"],
                    "shards": f"{row['shards_done']}/{row['shards_total']}",
                }
                for row in campaigns
            ],
            title=f"campaigns in {args.store}",
        ))
        print(f"\ncanonical digest: {digest}")
        return 0
    if args.campaign_command == "query":
        from repro.campaigns import query_rows

        with _existing_store(args.store) as store:
            spec_hash, revision = _stored_key(
                store, args.campaign, args.revision
            )
            spec, _revision = store.spec_for(args.campaign, revision)
            results = store.point_results(
                args.campaign, spec_hash, revision
            )
        if not results:
            print(f"campaign {args.campaign!r} has no committed "
                  f"shards at revision {revision}")
            return 1
        rows = query_rows(spec, results)
        print(format_series_table(
            rows,
            title=f"{args.campaign} @ {revision[:12]} "
                  f"(spec {spec_hash})",
        ))
        if args.chart:
            for chart in _query_charts(spec, rows):
                print()
                print(chart)
        return 0
    if args.campaign_command == "diff":
        with _existing_store(args.store) as store:
            spec_hash, revision = _stored_key(
                store, args.campaign, args.revision
            )
            base = store.point_results(
                args.campaign, spec_hash, revision
            )
        other_path = args.other or args.store
        with _existing_store(other_path) as store:
            other_hash, other_revision = _stored_key(
                store, args.campaign, args.against
            )
            other = store.point_results(
                args.campaign, other_hash, other_revision
            )
        if revision == other_revision and other_path == args.store:
            print("nothing to diff: both sides are "
                  f"{args.campaign} @ {revision[:12]}")
            return 1
        rows = []
        for point_index in sorted(set(base) & set(other)):
            params, result = base[point_index]
            _, other_result = other[point_index]
            row = {"point": point_index}
            row.update(params)
            for kind in ("dndp", "mndp", "jrsnd"):
                a = result.discovery_probability(kind)
                b = other_result.discovery_probability(kind)
                row[f"d_{kind}"] = b - a
            rows.append(row)
        if not rows:
            print("no common points to diff")
            return 1
        print(format_series_table(
            rows,
            title=f"{args.campaign}: {revision[:12]} -> "
                  f"{other_revision[:12]} (delta)",
        ))
        missing = sorted(set(base) ^ set(other))
        if missing:
            print(f"\npoints only on one side: {missing}")
        return 0
    raise SystemExit(
        f"unknown campaign command {args.campaign_command!r}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.metrics_out:
        from repro.obs import MetricsRegistry, installed

        registry = MetricsRegistry()
        context = installed(registry)
    else:
        registry = None
        context = nullcontext()
    with context:
        try:
            code = _dispatch(args) or 0
            sys.stdout.flush()
        except ConfigurationError as error:
            print(f"error: {' '.join(str(error).split())}", file=sys.stderr)
            return EXIT_CONFIGURATION_ERROR
        except BrokenPipeError:
            # The reader of stdout exited (``| head``).  Point stdout
            # at devnull so the interpreter's exit flush cannot fail
            # again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            code = EXIT_STDOUT_CLOSED
    if registry is not None:
        from repro.utils.fileio import atomic_write_text

        # tmp-file + os.replace: an interrupt mid-write can never leave
        # a truncated, unparseable snapshot behind.
        atomic_write_text(args.metrics_out, registry.snapshot().to_json())
        print(f"metrics snapshot written to {args.metrics_out}")
    return code


def _dispatch(args: argparse.Namespace) -> Optional[int]:
    """Execute the selected sub-command; may return an exit code."""
    if args.command == "table1":
        _cmd_table1(args)
    elif args.command == "theory":
        _cmd_theory(args)
    elif args.command == "dsss":
        _cmd_dsss(args)
    elif args.command == "chaos":
        return _cmd_chaos(args)
    elif args.command == "campaign":
        return _cmd_campaign(args)
    elif args.command == "validate":
        from repro.experiments.validation import (
            validate_theorem1_grid,
            worst_deviation,
        )

        points = validate_theorem1_grid(runs=args.runs, seed=args.seed)
        rows = [
            {
                "q": float(p_.q),
                "l": float(p_.share_count),
                "strategy": 1.0 if p_.strategy == "reactive" else 2.0,
                "simulated": p_.simulated,
                "predicted": p_.predicted,
                "deviation": p_.deviation,
            }
            for p_ in points
        ]
        print(format_series_table(
            rows,
            title="Theorem 1 validation grid "
                  "(strategy 1 = reactive vs P^-, 2 = random vs P^+)",
        ))
        gap, worst = worst_deviation(points)
        print(f"\nworst deviation: {gap:.4f}"
              + (f" at q={worst.q} l={worst.share_count} "
                 f"{worst.strategy}" if worst else ""))


if __name__ == "__main__":
    sys.exit(main())
