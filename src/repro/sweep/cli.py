"""``python -m repro.sweep`` — drive multi-host sweeps without code.

Subcommands::

    submit   expand a grid or spec file into spool jobs (opt. wait)
    worker   serve a spool: claim chunks, execute, publish to the cache
    status   census of a spool (pending / running / expired / done)
    cache    stats | prune — inspect and bound the result cache

Every ``--spool`` flag names a shared spool *directory* (zero daemons:
every operation is an atomic filesystem action).  A two-host sweep over
shared storage is two shell lines::

    host-a$ python -m repro.sweep submit --spool /share/spool \\
                --services memcached --apps kmeans+canneal \\
                --loads 0.5,0.7,0.9 --seeds 0,1 --wait --workers 2
    host-b$ python -m repro.sweep worker --spool /share/spool \\
                --cache /share/cache --exit-when-idle

Grid flags build an :class:`~repro.experiment.ExperimentSpec` over six
axes (service, apps, policy, load, decision interval, seed); ``--spec
exp.json`` submits a full one — any scenario field as an axis (load
shape, platform, slack threshold, ...), written once and shared between
hosts, figures, and scripts.

``--strategy`` / ``--budget`` / ``--objective`` / ``--rng-seed`` turn a
submit into a budgeted search (:mod:`repro.search`): the submitter
proposes rounds from observed results (so it needs ``--wait``) while
workers keep doing the evaluating, and every point still lands in the
shared cache.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from repro import telemetry
from repro.experiment import ExperimentSpec, run_experiment
from repro.sweep.backends import DistributedBackend, JobSpool, run_worker
from repro.sweep.cache import SweepCache

__all__ = ["build_parser", "build_spec", "main"]


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _import_modules(names) -> None:
    """Import policy/app modules so their registrations run in this process."""
    for name in names or ():
        importlib.import_module(name)


def _cache_from(args) -> SweepCache:
    return SweepCache(args.cache) if args.cache else SweepCache()


#: Axis flags (argparse dests) -> the scenario field each sweeps, in
#: expansion order, first axis slowest.  Every grid flag defaults to
#: ``None``: an unset flag leaves its field at the Scenario default, and
#: --spec is exclusive with *any* of them being set (a silently ignored
#: flag runs the wrong experiment).
_AXIS_FLAGS = {
    "services": "service",
    "apps": "apps",
    "policies": "policy",
    "loads": "load_fraction",
    "intervals": "decision_interval",
    "seeds": "seed",
}
#: Flags that set one value for every point, each named after its field.
_BASE_FLAGS = ("horizon", "monitor_epoch", "slack_threshold")
#: The service a grid without --services runs (Scenario has no default).
_DEFAULT_SERVICES = ("memcached",)


def _fold_search_flags(spec: ExperimentSpec, args) -> ExperimentSpec:
    """Overlay --strategy/--budget/--objective/--rng-seed onto the spec.

    Unlike the grid flags these *compose* with --spec: a spec file fixes
    the axes while the command line picks how hard to search them.
    """
    return spec.with_search(
        strategy=args.strategy,
        budget=args.budget,
        objective=tuple(args.objective) if args.objective else None,
        rng_seed=args.rng_seed,
    )


def build_spec(args) -> ExperimentSpec:
    """The experiment to submit: a ``--spec`` file, or the grid flags."""
    given = {
        flag: getattr(args, flag)
        for flag in (*_AXIS_FLAGS, *_BASE_FLAGS)
        if getattr(args, flag) is not None
    }
    if args.spec:
        if given:
            flags = ", ".join(f"--{flag.replace('_', '-')}" for flag in given)
            raise SystemExit(
                f"--spec is exclusive with grid flags; drop {flags} or "
                "fold them into the spec file"
            )
        return _fold_search_flags(ExperimentSpec.load(args.spec), args)
    if not args.apps:
        raise SystemExit(
            "submit needs --apps (grid flags) or --spec exp.json"
        )
    given.setdefault("services", _DEFAULT_SERVICES)
    spec = ExperimentSpec(
        axes=[
            (field, given[flag])
            for flag, field in _AXIS_FLAGS.items()
            if flag in given
        ],
        base={flag: given[flag] for flag in _BASE_FLAGS if flag in given},
    )
    return _fold_search_flags(spec, args)


def cmd_submit(args) -> int:
    if args.out and not args.wait:
        raise SystemExit(
            "--out needs --wait: results only exist locally once the "
            "sweep has been collected"
        )
    _import_modules(args.import_modules)
    spec = build_spec(args)
    if spec.search_requested and not args.wait:
        raise SystemExit(
            "a budgeted search needs --wait: the submitter proposes each "
            "round from the previous round's results, so it must stay "
            "attached (workers still do the evaluating)"
        )
    cache = _cache_from(args)
    if not args.wait:
        scenarios = spec.scenarios()
        spool = JobSpool(args.spool, lease_ttl=args.lease_ttl)
        spool.submit_many(scenarios, cache)
        status = spool.status()
        print(
            f"spooled {len(scenarios)} scenarios into {spool.root} "
            f"({status.done} already done, {status.pending} pending)"
        )
        print(
            "start workers with: python -m repro.sweep worker "
            f"--spool {spool.root} --cache {cache.root}"
        )
        return 0
    backend = DistributedBackend(
        args.spool,
        cache=cache,
        lease_ttl=args.lease_ttl,
        timeout=args.timeout,
        local_workers=args.workers,
        import_modules=tuple(args.import_modules or ()),
    )
    recorder = telemetry.get_recorder()
    if recorder.enabled and recorder.process == "main":
        recorder.process = "submitter"
    try:
        results = run_experiment(spec, backend=backend, cache=cache)
    except (RuntimeError, TimeoutError) as exc:
        telemetry.flush()
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    shard = telemetry.flush()
    if shard is not None:
        print(f"telemetry shard: {shard} (python -m repro.telemetry report)")
    if spec.search_requested:
        best = results.best()
        print(
            f"search '{results.strategy}' evaluated {results.evaluations} of "
            f"{results.space_size} points "
            f"({100 * results.fraction_evaluated:.1f}%) in "
            f"{len(results.rounds)} rounds"
        )
        print(
            f"best point: {best.scenario.label()} "
            f"({results.objectives[0].spec} = {results.best_value():.4g})"
        )
    print(
        f"{len(results)} scenarios complete ({results.cache_hits} from cache)"
    )
    for outcome in results:
        source = "cache" if outcome.from_cache else f"{outcome.duration:.2f}s"
        print(f"  {outcome.scenario.label():<60} {source}")
    if args.out:
        results.save(args.out)
        print(f"result set saved to {args.out}")
    return 0


def cmd_worker(args) -> int:
    _import_modules(args.import_modules)
    executed = run_worker(
        args.spool,
        cache=_cache_from(args),
        lease_ttl=args.lease_ttl,
        poll_interval=args.poll,
        exit_when_idle=args.exit_when_idle,
        max_jobs=args.max_jobs,
        worker_id=args.worker_id,
    )
    print(f"worker drained: executed {executed} jobs")
    return 0


def _census_line(spool: str, status) -> str:
    failed = f" ({status.failed} failed)" if status.failed else ""
    return (
        f"spool {spool}: {status.total} jobs — "
        f"{status.done} done{failed}, {status.running} running, "
        f"{status.expired} expired leases, {status.pending} pending"
    )


def _watch_frame(spool: JobSpool, shard_dir) -> str:
    """One ``--watch`` refresh: spool census + per-process telemetry."""
    lines = [_census_line(str(spool.root), spool.status())]
    for shard in telemetry.read_shards(shard_dir):
        meta = shard["meta"]
        counters = meta.get("counters", {})
        done = int(counters.get("worker.done", 0))
        claims = int(counters.get("worker.claims", 0))
        if not (done or claims):
            continue
        chunk = meta.get("hists", {}).get("worker.chunk_size", {})
        failed = int(counters.get("worker.failed", 0))
        failed_note = f", {failed} failed" if failed else ""
        lines.append(
            f"  {meta['process']}: {done} done{failed_note}, "
            f"{claims} claims, mean chunk {chunk.get('mean', 0.0):.1f}"
        )
    return "\n".join(lines)


def cmd_status(args) -> int:
    spool = JobSpool(args.spool, lease_ttl=args.lease_ttl)
    if args.watch:
        shard_dir = (
            args.telemetry_dir
            if args.telemetry_dir
            else telemetry.default_dir()
        )
        try:
            while True:
                print(_watch_frame(spool, shard_dir), flush=True)
                status = spool.status()
                if status.total and status.done == status.total:
                    break
                time.sleep(args.interval)
        except KeyboardInterrupt:
            pass
        return 0
    status = spool.status()
    if args.json:
        print(json.dumps(status.to_payload()))
    else:
        print(_census_line(args.spool, status))
    return 0


def cmd_cache_stats(args) -> int:
    stats = _cache_from(args).stats()
    if args.json:
        print(json.dumps(stats.to_payload()))
    else:
        print(
            f"cache {_cache_from(args).root}: {stats.entries} entries, "
            f"{stats.total_bytes} bytes, "
            f"{stats.hits} hits / {stats.misses} misses "
            f"({100 * stats.hit_rate:.1f}% lifetime hit rate)"
        )
    return 0


def cmd_cache_prune(args) -> int:
    if args.older_than is None and args.max_bytes is None:
        print("nothing to do: pass --older-than and/or --max-bytes", file=sys.stderr)
        return 2
    pruned = _cache_from(args).prune(
        older_than=args.older_than, max_bytes=args.max_bytes
    )
    if args.json:
        print(json.dumps(pruned.to_payload()))
    else:
        print(
            f"pruned {pruned.removed} entries ({pruned.freed_bytes} bytes); "
            f"{pruned.remaining} entries ({pruned.remaining_bytes} bytes) remain"
        )
    return 0


def _add_cache_arg(parser) -> None:
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="result cache directory (default: REPRO_SWEEP_CACHE or "
        "~/.cache/repro-pliant/sweeps)",
    )


def _add_spool_args(parser) -> None:
    parser.add_argument("--spool", required=True, metavar="DIR",
                        help="shared spool directory (jobs/leases/done)")
    parser.add_argument("--lease-ttl", type=float, default=30.0, metavar="SEC",
                        help="heartbeats older than this mark a worker dead")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Distributed sweep control plane: submit scenario grids, "
        "run workers, inspect spool and cache state.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser(
        "submit", help="expand a grid or spec file into spool jobs"
    )
    _add_spool_args(submit)
    _add_cache_arg(submit)
    submit.add_argument("--spec", default=None, metavar="FILE",
                        help="ExperimentSpec JSON file; any scenario field "
                        "as an axis (exclusive with grid flags)")
    submit.add_argument("--out", default=None, metavar="FILE",
                        help="with --wait: save the full ResultSet "
                        "(pickle) here for later querying")
    submit.add_argument("--services", type=_names, default=None,
                        metavar="A,B", help="comma-separated service names "
                        "(default: memcached)")
    submit.add_argument("--apps", action="append", type=lambda s: tuple(s.split("+")),
                        metavar="APP[+APP...]",
                        help="one app mix per flag; '+' joins apps in a mix")
    submit.add_argument("--policies", type=_names, default=None, metavar="P,Q")
    submit.add_argument("--loads", type=_floats, default=None, metavar="F,F")
    submit.add_argument("--intervals", type=_floats, default=None, metavar="S,S")
    submit.add_argument("--seeds", type=_ints, default=None, metavar="N,N")
    submit.add_argument("--horizon", type=float, default=None)
    submit.add_argument("--monitor-epoch", type=float, default=None)
    submit.add_argument("--slack-threshold", type=float, default=None)
    submit.add_argument("--strategy", default=None,
                        metavar="grid|random|halving|pareto",
                        help="search strategy instead of the exhaustive "
                        "grid (see repro.search); composes with --spec")
    submit.add_argument("--budget", type=int, default=None, metavar="N",
                        help="hard ceiling on unique scenario evaluations")
    submit.add_argument("--objective", action="append", default=None,
                        metavar="[min:|max:]METRIC",
                        help="objective metric ranking points; repeat for "
                        "multi-objective (first is primary)")
    submit.add_argument("--rng-seed", type=int, default=None, metavar="N",
                        help="seed for stochastic strategies (default 0; "
                        "fixes the proposal sequence on every backend)")
    submit.add_argument("--wait", action="store_true",
                        help="block until every result is in the cache")
    submit.add_argument("--workers", type=int, default=0, metavar="N",
                        help="with --wait: also spawn N local workers")
    submit.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="with --wait: give up after this long")
    submit.add_argument("--import", dest="import_modules", action="append",
                        metavar="MODULE",
                        help="import MODULE first (custom policy registration)")
    submit.set_defaults(func=cmd_submit)

    worker = sub.add_parser("worker", help="serve a spool until drained/killed")
    _add_spool_args(worker)
    _add_cache_arg(worker)
    worker.add_argument("--poll", type=float, default=0.2, metavar="SEC",
                        help="idle sleep between claim attempts")
    worker.add_argument("--exit-when-idle", action="store_true",
                        help="exit once every spooled job is done")
    worker.add_argument("--max-jobs", type=int, default=None, metavar="N",
                        help="exit after executing N jobs")
    worker.add_argument("--worker-id", default=None,
                        help="override the hostname-pid worker id")
    worker.add_argument("--import", dest="import_modules", action="append",
                        metavar="MODULE",
                        help="import MODULE first (custom policy registration)")
    worker.set_defaults(func=cmd_worker)

    status = sub.add_parser("status", help="census of a spool")
    _add_spool_args(status)
    status.add_argument("--json", action="store_true")
    status.add_argument("--watch", action="store_true",
                        help="refresh until the spool drains; adds per-worker "
                        "telemetry lines when shards are being written")
    status.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                        help="with --watch: seconds between refreshes")
    status.add_argument("--telemetry-dir", default=None, metavar="DIR",
                        help="with --watch: shard directory (default: "
                        "$REPRO_TELEMETRY_DIR or .repro-telemetry)")
    status.set_defaults(func=cmd_status)

    cache = sub.add_parser("cache", help="inspect or bound the result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    stats = cache_sub.add_parser("stats", help="entries, bytes, hit rate")
    _add_cache_arg(stats)
    stats.add_argument("--json", action="store_true")
    stats.set_defaults(func=cmd_cache_stats)

    prune = cache_sub.add_parser("prune", help="evict entries (LRU by mtime)")
    _add_cache_arg(prune)
    prune.add_argument("--older-than", type=float, default=None, metavar="SEC",
                       help="evict entries unused for this many seconds")
    prune.add_argument("--max-bytes", type=int, default=None, metavar="N",
                       help="evict least-recently-used entries past N bytes")
    prune.add_argument("--json", action="store_true")
    prune.set_defaults(func=cmd_cache_prune)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
