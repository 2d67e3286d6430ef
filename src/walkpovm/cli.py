"""Command-line front end: run scenarios, extract POVMs, compile netlists, sweep.

Each subcommand declares only the options it reads (``walkpovm CMD -h``
lists them), so any other option is an error.  ``run`` and ``sample``
compute probabilities one way, the density engine and then detector
efficiencies; ``run`` prints them unless ``--counts`` gives a photon
count, ``sample`` always draws photons (40000 by default).  ``--input`` is a
label of ``povm.NAMED_STATES``, ``psi+``/``psi-`` at ``--theta``, or ``c1:c2``.

A handler returns what it reports, unrounded: a JSON payload, a CSV
header and CSV rows.  ``_render`` alone formats numbers, rounding JSON
floats to 6 significant digits and printing CSV floats as ``%.6g``.

Exit codes: 0 success, 1 validation error (including an unknown option),
2 numerical-invariant failure (e.g. completeness residual above the
requested tolerance).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import experiment, optics, povm, walk
from .tolerances import DEFAULT
from .walk import ValidationError


class InvariantError(RuntimeError):
    """A numerical invariant failed beyond the requested tolerance."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def parse_angle(text: str) -> float:
    """A finite angle in decimal radians, or degrees with a ° / deg suffix."""
    t = text.strip()
    unit = next((u for u in ("°", "deg") if t.lower().endswith(u)), "")
    try:
        value = walk._numeral(t[:len(t) - len(unit)].rstrip(), "angle", float)
    except ValidationError as exc:
        raise ValidationError(f"cannot parse angle {text!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"angle {text!r} is not finite")
    return math.radians(value) if unit else value


def _option(parse):
    """An option's ``type``: argparse reports a ``type`` function's ValueError without its
    reason, so ``parse``'s ValidationError goes out as the ArgumentTypeError argparse quotes."""
    def read(text: str):
        try:
            return parse(text)
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return read


def parse_state(text: str, theta: float | None) -> np.ndarray:
    """A label of ``povm.NAMED_STATES``, ``psi+``/``psi-`` at ``theta``, or ``c1:c2``."""
    name = text.strip()
    if name in povm.NAMED_STATES:
        return povm.NAMED_STATES[name]
    if name in ("psi+", "psi-"):
        if theta is None:
            raise ValidationError(f"state {name} requires --theta")
        return povm.usd_state(+1 if name == "psi+" else -1, abs(theta))
    if ":" in name:
        parts = name.split(":")
        if len(parts) == 2:
            try:
                v = np.array([walk._numeral(part, "state entry", complex) for part in parts])
            except ValidationError as exc:
                raise ValidationError(f"cannot parse state {text!r}") from exc
            nrm = walk._norm(v)
            if not DEFAULT.norm <= nrm < math.inf:
                raise ValidationError("explicit state must be nonzero and finite")
            return v / nrm
    raise ValidationError(f"unknown state {text!r}")


def _photon_count(text: str, command: str) -> int:
    """``--counts`` as the photon count that ``command`` samples; ``sample_counts`` checks
    its range."""
    try:
        return walk._numeral(text, "--counts")
    except ValidationError as exc:
        raise ValidationError(
            f"{command} requires --counts to be a photon count, not {text!r}") from exc


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write output: {exc}") from exc


def _load_schedule(args) -> walk.CoinSchedule:
    if args.file is not None:
        return walk.CoinSchedule.from_json(_read_text(args.file, "schedule file"))
    if args.scenario is None:
        raise ValidationError("either --scenario or --file is required")
    return povm.scenario_schedule(args.scenario, args.theta)


def _load_config(path: str) -> experiment.ImperfectionConfig:
    if path == "none":
        return experiment.IDEAL
    return experiment.ImperfectionConfig.from_json(_read_text(path, "imperfection config"))


def _round_floats(value):
    """``value`` with every float rounded to 6 significant digits, zero as 0.0."""
    if isinstance(value, float):
        return float(f"{value:.6g}") if value else 0.0
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    return value


def _render(fmt: str, payload: dict, header: list, rows: list) -> str:
    """A handler's report as text: floats to 6 significant digits in either format."""
    if fmt == "json":
        return json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"
    return "".join(
        ",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in line) + "\n"
        for line in [header, *rows]
    )


# ---------------------------------------------------------------------------
# subcommands: each returns (JSON payload, CSV header, CSV rows), unrounded
# ---------------------------------------------------------------------------

def _cmd_run(args):
    schedule = _load_schedule(args)
    state = parse_state(args.input, args.theta)
    config = _load_config(args.imperfections)
    ports = optics.output_ports(schedule)
    mode = "ideal" if args.cmd == "run" and args.counts == "ideal" else "sampled"
    total = _photon_count(args.counts, args.cmd) if mode == "sampled" else None
    dist = experiment.run_density(schedule, state, config)
    dist = experiment.apply_efficiencies(dist, config.port_efficiencies)
    probs = {p: dist.get(p, 0.0) for p in ports}
    payload = {"command": args.cmd, "scenario": args.scenario or args.file,
               "state": args.input, "mode": mode, "ports": []}
    if args.theta is not None:
        payload["theta"] = args.theta
    header, row = ["state"], [args.input]
    if mode == "ideal":
        for p in ports:
            payload["ports"].append({"port": p, "p": probs[p]})
            header.append(f"P{p}")
            row.append(probs[p])
        return payload, header, [row]

    table = experiment.sample_counts(probs, total, args.seed)
    for p in ports:
        v, e = table.probabilities.get(p, 0.0), table.std_errors.get(p, 0.0)
        payload["ports"].append({"port": p, "p": v, "err": e})
        header += [f"P{p}", f"err{p}"]
        row += [v, e]
    payload["counts"] = {str(p): table.counts.get(p, 0) for p in ports}
    payload["total"] = table.total
    payload["seed"] = args.seed
    return payload, header + ["total", "seed"], [row + [table.total, args.seed]]


def _cmd_extract(args):
    schedule = _load_schedule(args)
    result = povm.extract_povm(schedule)
    tolerance = walk._real(args.tolerance, "--tolerance", 0.0)
    if result.completeness_residual > tolerance:
        raise InvariantError(
            f"completeness residual {result.completeness_residual:.3g} exceeds "
            f"tolerance {tolerance:.3g}"
        )
    header = ["label", "port", "m00_re", "m00_im", "m01_re", "m01_im",
              "m10_re", "m10_im", "m11_re", "m11_im", "residual"]
    rows = [[label, port, *(part for m in effect.flat for part in (m.real, m.imag)),
             result.completeness_residual]
            for effect, label, port in zip(result.effects, result.labels, result.ports)]
    return json.loads(result.to_json()), header, rows


def _cmd_compile(args):
    net = optics.compile_netlist(_load_schedule(args))
    header = ["kind", "angle_deg", "angle_dms", "position", "step"]
    rows = [[p.kind, p.angle_deg, p.angle_dms, p.position, p.step] for p in net.plates]
    return json.loads(net.to_json()), header, rows


def _cmd_sweep(args):
    if args.thetas is None:
        thetas = [k * math.pi / 20.0 for k in range(1, 11)]
    else:
        thetas = [parse_angle(t) for t in args.thetas.split(",") if t.strip()]
        if not thetas:
            raise ValidationError(f"--thetas lists no angle: {args.thetas!r}")
    config = _load_config(args.imperfections)
    total = _photon_count(args.counts, args.cmd)
    points = experiment.usd_sweep(thetas, config, total=total, seed=args.seed)
    keys = ["theta", "theta_dms", "p_theory", "p_sampled", "std_error"]
    rows = [[r.theta, optics.format_dms(math.degrees(r.theta)), r.p_theory, r.p_sampled,
             r.std_error] for r in points]
    payload = {"command": "sweep", "rows": [dict(zip(keys, row)) for row in rows],
               "seed": args.seed, "total": total}
    return payload, ["theta_rad", *keys[1:]], rows


def build_parser() -> _Parser:
    parser = _Parser(prog="walkpovm", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, handler, help, schedule=True):
        # no prefix matching: an abbreviation must not reach another option
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(handler=handler)
        if schedule:
            p.add_argument("--scenario", choices=["trine", "sic", "usd"])
            p.add_argument("--file", help="custom schedule JSON file")
            p.add_argument("--theta", type=_option(parse_angle),
                           help="angle in radians, or degrees with a ° / deg suffix")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", help="write to a file instead of stdout")
        return p

    def sampling(p, counts, help):
        p.add_argument("--counts", default=counts, help=help)
        p.add_argument("--imperfections", default="none",
                       help="imperfection config JSON file, or 'none'")
        p.add_argument("--seed", type=_option(lambda t: walk._numeral(t, "seed")), default=0)

    for name, help, counts, counts_help in (
        ("run", "simulate a measurement scenario", "ideal", "'ideal' (default) or a photon count"),
        ("sample", "like run, but always sampled", "40000", "photon count (default 40000)"),
    ):
        p = command(name, _cmd_run, help)
        p.add_argument("--input", required=True,
                       help="named state (psi3-1, psibar4-2, psi+, H, ...) or 'c1:c2'")
        sampling(p, counts, counts_help)

    p = command("extract", _cmd_extract, "extract the implemented POVM")
    p.add_argument("--tolerance", type=_option(lambda t: walk._numeral(t, "tolerance", float)),
                   default=DEFAULT.completeness)

    command("compile", _cmd_compile, "compile to an optical netlist")

    p = command("sweep", _cmd_sweep, "discrimination probability vs angle", schedule=False)
    p.add_argument("--thetas", help="comma-separated angles (default 10-point grid)")
    sampling(p, "40000", "photon count per point (default 40000)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = _render(args.format, *args.handler(args))
        if args.output is not None:
            _write_text(args.output, text)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2
    if args.output is None:
        sys.stdout.write(text)
    return 0


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
