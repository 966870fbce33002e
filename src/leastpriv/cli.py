"""Command-line driver for the policy pipeline.

Every subcommand reads and writes the pinned file formats, validates
headers and versions up front, and fails with a single machine-parsable
line `error: <Class>: <message>` on stderr.  Exit codes: 0 success,
2 infeasible synthesis, 1 anything else.  Output is deterministic for
identical inputs, including configured seeds.

Importing this module loads the line-format stages (monitor, decision,
emitter).  plan, explore and validate-inference import environment,
explorer, options and simharness inside their handlers, so no other call
loads them.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import Counter
from typing import Optional

# decision and emitter load with this module, though not every handler uses
# them: perfbench's tracer imports this module and explorer, then wraps every
# stage module it finds loaded.
from ._files import MAX_DIGITS, discard_stdout, replacing
from .decision import (
    DecisionError,
    Infeasible,
    Policy,
    ScoreTargets,
    append_observation,
    check_mitigation,
    functionality_score,
    load_cvedb,
    load_policy,
    load_store,
    dump_policy,
    parse_event_list,
    security_score,
    sweep,
    synthesize_policy,
)
from .emitter import emit_capability_flags, emit_seccomp_profile
from .events import decoded, listed, os_error_text, quoted
from .monitor import event_set_for, replay_file

__all__ = ["main"]


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for infeasibility
    def error(self, message):
        raise CliError(message)


def _load_catalog(path: Optional[str]):
    from .options import default_catalog, load_catalog

    if path is None or path == "default":
        return default_catalog()
    return load_catalog(path)


def _load_model_or_fixture(text: str):
    from .simharness import FIXTURE_NAMES, load_fixture, load_model

    if text in FIXTURE_NAMES:
        return load_fixture(text)
    return load_model(text)


def _parse_factor(token: str, catalog):
    from .environment import WORKLOAD_PRESETS, compose_environment
    from .options import validate_value

    if token in WORKLOAD_PRESETS:
        return compose_environment(workload=WORKLOAD_PRESETS[token])
    name, sep, value = token.partition("=")
    spec = catalog[name]
    if not sep:
        if spec.category != "bool":
            raise CliError(f"factor {quoted(name)} needs =value (category {spec.category})")
        value = "true"
    return compose_environment([validate_value(spec, value)])


def _parse_targets(text: str) -> list[ScoreTargets]:
    targets = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        sec, sep, func = piece.partition(":")
        if not sep:
            raise CliError(f"target {quoted(piece)} must be security:functionality")
        try:
            targets.append(ScoreTargets(float(sec), float(func)))
        except DecisionError as exc:
            raise CliError(f"bad target {quoted(piece)}: {exc}") from None
        except ValueError:
            raise CliError(f"bad target {quoted(piece)}: both scores must be numbers") from None
    if not targets:
        raise CliError("no targets given")
    return targets


# -- subcommand bodies -------------------------------------------------------


def _cmd_ingest(args) -> int:
    """Replay a trace and append its environment's block to the store."""
    states = replay_file(args.trace)
    observation = event_set_for(args.env_id, states, args.namespace)
    namespace = args.namespace if args.namespace is not None else next(iter(states))
    environments = append_observation(args.store, observation, args.container)
    print(
        f"recorded {args.env_id} (namespace {namespace}): "
        f"{len(observation.syscall_counts)} syscalls, "
        f"{len(observation.capability_counts)} capabilities "
        f"-> {args.store} ({environments} environments)"
    )
    return 0


def _cmd_plan(args) -> int:
    from .environment import plan_environments, write_plan

    catalog = _load_catalog(args.catalog)
    factors = [_parse_factor(token, catalog) for token in args.factors]
    plan = plan_environments(factors)
    write_plan(plan, args.out)
    print(
        f"planned {len(plan.factors)} factors, {len(plan.pairs)} inferred pairs "
        f"-> {args.out}"
    )
    return 0


def _config_overrides(pairs: list[str], v_min: int, v_max: int, seed: int):
    from .explorer import MutationConfig, parse_config_field

    kwargs: dict = {"v_min": v_min, "v_max": v_max, "seed": seed}
    kwargs.update(parse_config_field(token) for token in pairs)
    return MutationConfig(**kwargs)


def _cmd_explore(args) -> int:
    import shlex

    from .environment import baseline_environment
    from .explorer import command_probe, model_probe, mutate_option_values, write_log
    from .options import integer_bounds

    catalog = _load_catalog(args.catalog)
    spec = catalog[args.option]
    bounds = integer_bounds(spec.syntax)
    if bounds is None:
        raise CliError(f"option {quoted(args.option)} has no integer domain to mutate")
    if args.model.startswith("cmd:"):
        probe = command_probe(shlex.split(args.model[len("cmd:"):]))
    else:
        probe = model_probe(_load_model_or_fixture(args.model), spec)
    config = _config_overrides(args.config, bounds[0], bounds[1], args.seed)
    # the window is the option's, whichever probe explores it
    if config.v_min < bounds[0] or config.v_max > bounds[1]:
        raise CliError(
            f"--config window [{quoted(config.v_min)}, {quoted(config.v_max)}] is outside "
            f"the window [{bounds[0]}, {bounds[1]}] of option {quoted(args.option)}"
        )
    result = mutate_option_values(baseline_environment(), config, probe)
    if args.log:
        write_log(config, result, args.log)
    human = args.format == "human"
    if human:
        print(
            f"explored {args.option} in [{config.v_min}, {config.v_max}]: "
            f"{len(result.log)} probes, {len(result.events)} events"
        )
        for warning in result.warnings:
            print(f"warning: {warning}")
    for kind, name in result.events.events():
        print(f"{kind}\t{name}")
    if human and args.log:
        print(f"log -> {args.log}")
    return 0


def _cmd_validate_inference(args) -> int:
    from .environment import load_plan
    from .explorer import model_probe, validate_inference

    catalog = _load_catalog(args.catalog)
    model = _load_model_or_fixture(args.model)
    plan = load_plan(args.plan, catalog)
    probe = model_probe(model)
    rows = [(a.id, b.id, validate_inference(probe, plan.baseline, a, b)) for a, b in plan.pairs]
    exact = Counter(report.exact for _, _, report in rows)[True]
    histogram = Counter(report.delta for _, _, report in rows)
    if args.format == "tsv":
        print("factor_a\tfactor_b\texact\tdelta\tsize_delta")
        for id_a, id_b, report in rows:
            print(
                f"{id_a}\t{id_b}\t{str(report.exact).lower()}"
                f"\t{report.delta}\t{report.size_delta}"
            )
    else:
        total = len(rows)
        rate = exact / total if total else 1.0
        print(f"pairs {total} exact {exact} rate {rate!r}")
        buckets = " ".join(f"{delta}:{histogram[delta]}" for delta in sorted(histogram))
        print(f"delta histogram: {buckets or 'empty'}")
    return 0


def _cmd_score(args) -> int:
    store = load_store(args.store)
    db = load_cvedb(args.cvedb)
    allowed = parse_event_list(
        name.strip() for name in args.policy.split(",") if name.strip()
    )
    security = security_score(allowed, db)
    functionality = functionality_score(allowed, store)
    separator = "\t" if args.format == "tsv" else " "
    print(f"security{separator}{security!r}")
    print(f"functionality{separator}{functionality!r}")
    return 0


def _print_infeasible(outcome: Infeasible, fmt: str) -> None:
    blocking = ", ".join(name for _, name in outcome.blocking_events)
    if fmt == "tsv":
        print("status\tinfeasible")
        print(f"reason\t{outcome.reason}")
        print(f"blocking\t{blocking}")
        print(f"best_security\t{outcome.best_security!r}")
        print(f"best_functionality\t{outcome.best_functionality!r}")
    else:
        print(f"infeasible: {outcome.reason}")
        print(f"blocking events: {blocking}")
        print(
            f"best achievable: security {outcome.best_security!r} "
            f"functionality {outcome.best_functionality!r}"
        )


def _cmd_synthesize(args) -> int:
    store = load_store(args.store)
    db = load_cvedb(args.cvedb)
    targets = ScoreTargets(args.security_min, args.functionality_min)
    outcome = synthesize_policy(store, db, targets)
    if isinstance(outcome, Infeasible):
        _print_infeasible(outcome, args.format)
        return 2
    if args.out:
        dump_policy(outcome, args.out)
    if args.format == "tsv":
        print("status\tok")
        print(f"container\t{outcome.container}")
        print(f"size\t{len(outcome.allowed)}")
        print(f"syscalls\t{len(outcome.allowed.syscalls)}")
        print(f"capabilities\t{len(outcome.allowed.capabilities)}")
        print(f"achieved_security\t{outcome.achieved_security!r}")
        print(f"achieved_functionality\t{outcome.achieved_functionality!r}")
    else:
        print(
            f"policy for {outcome.container}: {len(outcome.allowed)} events "
            f"({len(outcome.allowed.syscalls)} syscalls, "
            f"{len(outcome.allowed.capabilities)} capabilities)"
        )
        print(
            f"achieved security {outcome.achieved_security!r} "
            f"functionality {outcome.achieved_functionality!r}"
        )
        if args.out:
            print(f"policy -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    store = load_store(args.store)
    db = load_cvedb(args.cvedb)
    targets = _parse_targets(args.targets)
    print(
        "security_min\tfunctionality_min\tstatus\tsize\tsyscalls\tcapabilities"
        "\tachieved_security\tachieved_functionality"
    )
    for target, outcome in sweep(store, db, targets):
        prefix = f"{target.security_min:g}\t{target.functionality_min:g}"
        if isinstance(outcome, Policy):
            print(
                f"{prefix}\tok\t{len(outcome.allowed)}"
                f"\t{len(outcome.allowed.syscalls)}\t{len(outcome.allowed.capabilities)}"
                f"\t{outcome.achieved_security!r}\t{outcome.achieved_functionality!r}"
            )
        else:
            print(
                f"{prefix}\tinfeasible\t-\t-\t-"
                f"\t{outcome.best_security!r}\t{outcome.best_functionality!r}"
            )
    return 0


def _cmd_emit(args) -> int:
    if not args.seccomp and not args.caps:
        raise CliError("nothing to emit: pass --seccomp and/or --caps")
    allowed = load_policy(args.policy).allowed
    # both artifacts are built before either is written
    outputs = []
    if args.seccomp:
        outputs.append(("seccomp profile", args.seccomp, emit_seccomp_profile(allowed)))
    if args.caps:
        flags = emit_capability_flags(allowed)
        outputs.append(("capability flags", args.caps, "\n".join(flags) + "\n"))
    for label, path, text in outputs:
        with replacing(path) as handle:
            handle.write(text)
        print(f"{label} -> {path}")
    return 0


def _cmd_check(args) -> int:
    allowed = load_policy(args.policy).allowed
    rows = check_mitigation(allowed, load_cvedb(args.cvedb))
    print("cve_id\tcvss\tblocked\tmissing")
    for row in rows:
        missing = ",".join(name for _, name in row.missing)
        print(f"{row.cve_id}\t{row.cvss:g}\t{str(row.blocked).lower()}\t{missing}")
    if args.format != "tsv":
        blocked = sum(1 for row in rows if row.blocked)
        print(f"blocked {blocked}/{len(rows)}")
    return 0


# -- argument wiring ---------------------------------------------------------


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


def _int(text: str) -> int:
    """type=int, but more than MAX_DIGITS characters are refused before int() sees them."""
    if len(text) <= MAX_DIGITS:
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _utf8(text: str) -> str:
    """A value that ingest writes into a store, as the UTF-8 text of its bytes.

    Under a C locale Python hands each non-ASCII byte of an argument on
    as a surrogate escape, which no UTF-8 file can hold; bytes that are
    not UTF-8 are refused.
    """
    data = text.encode("utf-8", "surrogateescape")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise argparse.ArgumentTypeError(f"not UTF-8: {quoted(data)}") from None


_STORE = _arg("store", help="observation store file")
_CVEDB = _arg("cvedb", help="CVE database file")
_POLICY = _arg("policy", help="policy file")
_CATALOG = _arg("--catalog", help="option catalog file (default: shipped)")
_FORMAT = _arg("--format", choices=("human", "tsv"), default="human")

# name -> (help, handler, arguments), in the order top-level help lists them
_COMMANDS = {
    "ingest": ("replay a trace into an observation store", _cmd_ingest, (
        _arg("trace", help="beacon-trace v1 file"),
        _arg("--env-id", type=_utf8, required=True, help="environment id to record under"),
        _arg("--store", required=True, help="observation store file (created or appended)"),
        _arg("--namespace", type=_int, help="namespace id (default: the only tracked one)"),
        _arg("--container", type=_utf8, help="container name for a new store"),
    )),
    "plan": ("plan single-factor environments and inferred pairs", _cmd_plan, (
        _arg("catalog", help="option catalog file, or `default`"),
        _arg("factors", nargs="*", help="factor specs: name, name=value, or W1..W8"),
        _arg("--out", required=True, help="plan file to write"),
    )),
    "explore": ("mutate one integer option and collect events", _cmd_explore, (
        _arg("model", help="fixture name, model file, or `cmd:<probe command>`"),
        _arg("option", help="catalog option to mutate"),
        _CATALOG,
        _arg("--seed", type=_int, default=0),
        _arg("--config", action="append", default=[], metavar="K=V",
             help="mutation config override, repeatable"),
        _arg("--log", help="write the exploration log here"),
        _FORMAT,
    )),
    "validate-inference": (
        "check pair union inference against a model", _cmd_validate_inference, (
            _arg("model", help="fixture name or model file"),
            _arg("plan", help="plan file"),
            _CATALOG,
            _FORMAT,
        )),
    "score": ("score an event list against a store and database", _cmd_score, (
        _STORE,
        _CVEDB,
        _arg("--policy", required=True, help="comma-separated allowed events"),
        _FORMAT,
    )),
    "synthesize": ("synthesize a policy meeting both targets", _cmd_synthesize, (
        _STORE,
        _CVEDB,
        _arg("--security-min", type=float, required=True),
        _arg("--functionality-min", type=float, required=True),
        _arg("--out", help="policy file to write"),
        _FORMAT,
    )),
    "sweep": ("synthesize across several target pairs", _cmd_sweep, (
        _STORE,
        _CVEDB,
        _arg("--targets", required=True, help="comma-separated security:functionality pairs"),
    )),
    "emit": ("render a policy into deployable artifacts", _cmd_emit, (
        _POLICY,
        _arg("--seccomp", help="seccomp profile JSON output path"),
        _arg("--caps", help="capability flag list output path"),
    )),
    "check": ("report which database CVEs a policy blocks", _cmd_check, (
        _POLICY,
        _CVEDB,
        _FORMAT,
    )),
}


def _build_parser(argv: list[str]) -> tuple[_Parser, list[str]]:
    """The parser for argv, and the arguments it reads.

    When argv[0] names a subcommand, that subcommand's parser alone, with
    prog `leastpriv <command>`, reads argv[1:], as the full parser's
    subparsers action would hand them on, and prints the same bytes.
    Any other argv (none, -h, an unknown word, a leading option) is read
    whole by the full parser, with every subcommand, so top-level help
    and errors list them all.  A parser refers to handlers only, so
    building it imports nothing; a handler imports the modules of its
    stage when it runs.
    """
    if argv[:1] and argv[0] in _COMMANDS:
        return _command_parser(_Parser(prog=f"leastpriv {argv[0]}"), argv[0]), argv[1:]
    parser = _Parser(
        prog="leastpriv",
        description="Generate least-privilege container policies from event traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_text), name)
    return parser, argv


def _command_parser(parser: _Parser, name: str) -> _Parser:
    """parser with subcommand name's arguments and handler added."""
    _, handler, arguments = _COMMANDS[name]
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(func=handler)
    return parser


# An error line this long or longer names each long command-line value by its length.
MAX_LINE = 200


def _error_line(exc: Exception, argv: list[str]) -> str:
    """`error: Class: message` for exc, on one line.

    argparse, the file readers and a failed probe repeat a command-line
    value whole, so while the line reaches MAX_LINE bytes the value left
    whose repr, quotes aside, takes the most UTF-8 bytes is named by its
    length (`of 5000 characters`) wherever that name is the shorter.
    The values are each argument, its part after a short option's
    letter, and each of its pieces between whitespace, `:` and `=`.
    The message and the values are shown `decoded`, and a surrogate left
    in them counts as the escape that stderr writes.
    """
    name = type(exc).__name__
    message = decoded(os_error_text(exc) if isinstance(exc, OSError) else str(exc))
    argv = [decoded(arg) for arg in argv]
    short = (arg[2:] for arg in argv if arg[:1] == "-" and arg[1:2] != "-")
    pieces = (piece for arg in argv for piece in re.split(r"[\s:=]", arg))
    for value in sorted({*argv, *short, *pieces}, key=lambda v: (-len(repr(v).encode()), v)):
        if len(f"error: {name}: {message}\n".encode(errors="backslashreplace")) < MAX_LINE:
            break
        if len(shown := f"of {len(value)} characters") + 2 < len(repr(value).encode()):
            message = message.replace(repr(value), shown).replace(value, shown)
    message = message.replace("\n", " ")
    return f"error: {name}: {message}\n"


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:  # the process's own entry: print UTF-8 whatever the locale
        argv = sys.argv[1:]
        for stream, errors in ((sys.stdout, "surrogateescape"), (sys.stderr, "backslashreplace")):
            if hasattr(stream, "reconfigure"):
                stream.reconfigure(encoding="utf-8", errors=errors)
    try:
        parser, arguments = _build_parser(argv)
        args, extras = parser.parse_known_args(arguments)
        if extras:
            raise CliError(listed(extras, "unrecognized argument"))
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout (`leastpriv check ... | head -1`): the
        # flush at exit must not fail again, and the status is the one a
        # shell reports for a process that SIGPIPE ended.
        discard_stdout()
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError) as exc:
        sys.stderr.write(_error_line(exc, argv))
        return 1


if __name__ == "__main__":
    sys.exit(main())
