"""Command-line front end: run scenarios, extract POVMs, compile netlists, sweep.

Each subcommand declares only the options it reads (``walkpovm CMD -h``
lists them), so any other option is an error.  ``run`` and ``sample``
compute probabilities one way, the density engine and then detector
efficiencies; ``run`` prints them unless ``--counts`` gives a photon
count, ``sample`` always draws photons (40000 by default).

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


def _round_sig(x: float, digits: int = 6) -> float:
    if x == 0:
        return 0.0
    return float(f"{x:.{digits}g}")


def _fmt(x: float, digits: int = 6) -> str:
    return f"{x:.{digits}g}"


def parse_angle(text: str) -> float:
    """Angles in decimal radians, or degrees with a ° / deg suffix."""
    t = text.strip()
    if t.endswith("°"):
        return math.radians(float(t[:-1]))
    if t.lower().endswith("deg"):
        return math.radians(float(t[:-3]))
    try:
        return float(t)
    except ValueError as exc:
        raise ValidationError(f"cannot parse angle {text!r}") from exc


_NAMED_STATES = {
    "H": lambda theta: np.array([1.0, 0.0], dtype=complex),
    "V": lambda theta: np.array([0.0, 1.0], dtype=complex),
    **{f"psi3-{i}": (lambda i: lambda theta: povm.trine_state(i))(i) for i in (1, 2, 3)},
    **{f"psibar3-{i}": (lambda i: lambda theta: povm.anti_trine_state(i))(i) for i in (1, 2, 3)},
    **{f"psi4-{i}": (lambda i: lambda theta: povm.sic_state(i))(i) for i in (1, 2, 3, 4)},
    **{f"psibar4-{i}": (lambda i: lambda theta: povm.anti_sic_state(i))(i) for i in (1, 2, 3, 4)},
}


def parse_state(text: str, theta: float | None) -> np.ndarray:
    name = text.strip()
    if name in _NAMED_STATES:
        return _NAMED_STATES[name](theta)
    if name in ("psi+", "psi-"):
        if theta is None:
            raise ValidationError(f"state {name} requires --theta")
        return povm.usd_state(+1 if name == "psi+" else -1, abs(theta))
    if ":" in name:
        parts = name.split(":")
        if len(parts) == 2:
            try:
                v = np.array([complex(parts[0]), complex(parts[1])])
            except ValueError as exc:
                raise ValidationError(f"cannot parse state {text!r}") from exc
            nrm = np.linalg.norm(v)
            if not DEFAULT.norm <= nrm < math.inf:
                raise ValidationError("explicit state must be nonzero and finite")
            return v / nrm
    raise ValidationError(f"unknown state {text!r}")


def _photon_count(text: str, command: str) -> int:
    """``--counts`` as the photon count that ``command`` samples."""
    if not text.strip().isdecimal():
        raise ValidationError(f"{command} requires --counts to be a photon count, not {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    """``--tolerance``: NaN would pass every check and a negative value fail every one."""
    if not 0.0 <= float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, not {text!r}")
    return float(text)


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what}: {exc}") from exc


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


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_run(args) -> str:
    schedule = _load_schedule(args)
    state = parse_state(args.input, args.theta)
    config = _load_config(args.imperfections)
    ports = optics.output_ports(schedule)
    mode = "ideal" if args.cmd == "run" and args.counts == "ideal" else "sampled"
    total = _photon_count(args.counts, args.cmd) if mode == "sampled" else None
    dist = experiment.run_density(schedule, state, config)
    dist = experiment.apply_efficiencies(dist, config.port_efficiencies)
    rows = [(p, dist.get(p, 0.0), None) for p in ports]
    if mode == "sampled":
        table = experiment.sample_counts({p: v for p, v, _e in rows}, total, args.seed)
        rows = [(p, table.probabilities.get(p, 0.0), table.std_errors.get(p, 0.0))
                for p in ports]

    if args.format == "json":
        payload = {
            "command": args.cmd,
            "scenario": args.scenario or args.file,
            "state": args.input,
            "mode": mode,
            "ports": [
                {"port": p, "p": _round_sig(v)} if e is None
                else {"port": p, "p": _round_sig(v), "err": _round_sig(e)}
                for p, v, e in rows
            ],
        }
        if args.theta is not None:
            payload["theta"] = _round_sig(args.theta)
        if mode == "sampled":
            payload["counts"] = {str(p): table.counts.get(p, 0) for p in ports}
            payload["total"] = table.total
            payload["seed"] = args.seed
        return _json_dump(payload)

    header, cells = ["state"], [args.input]
    for p, v, e in rows:
        header += [f"P{p}"] if e is None else [f"P{p}", f"err{p}"]
        cells += [_fmt(v)] if e is None else [_fmt(v), _fmt(e)]
    if mode == "sampled":
        header += ["total", "seed"]
        cells += [str(table.total), str(args.seed)]
    return ",".join(header) + "\n" + ",".join(cells) + "\n"


def _cmd_extract(args) -> str:
    schedule = _load_schedule(args)
    result = povm.extract_povm(schedule)
    if result.completeness_residual > args.tolerance:
        raise InvariantError(
            f"completeness residual {result.completeness_residual:.3g} exceeds "
            f"tolerance {args.tolerance:.3g}"
        )
    if args.format == "json":
        data = json.loads(result.to_json())
        data["residual"] = _round_sig(data["residual"], 6)
        for el in data["elements"]:
            el["matrix"] = [[{k: _round_sig(v) for k, v in cell.items()} for cell in row]
                            for row in el["matrix"]]
        return _json_dump(data)
    lines = ["label,port,m00_re,m00_im,m01_re,m01_im,m10_re,m10_im,m11_re,m11_im,residual"]
    for e in result.elements:
        m = e.matrix
        cells = [e.label, str(e.port)]
        for r in range(2):
            for c in range(2):
                cells += [_fmt(m[r, c].real), _fmt(m[r, c].imag)]
        cells.append(_fmt(result.completeness_residual))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cmd_compile(args) -> str:
    schedule = _load_schedule(args)
    net = optics.compile_netlist(schedule)
    if args.format == "json":
        data = json.loads(net.to_json())
        for p in data["plates"]:
            p["angle_deg"] = _round_sig(p["angle_deg"])
        return _json_dump(data)
    lines = ["kind,angle_deg,angle_dms,position,step"]
    for p in net.plates:
        lines.append(
            f"{p.kind},{_fmt(p.angle_deg)},{p.angle_dms},{p.position},{p.step}"
        )
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> str:
    if args.thetas:
        thetas = [parse_angle(t) for t in args.thetas.split(",") if t.strip()]
    else:
        thetas = [k * math.pi / 20.0 for k in range(1, 11)]
    config = _load_config(args.imperfections)
    total = _photon_count(args.counts, args.cmd)
    rows = experiment.usd_sweep(thetas, config, total=total, seed=args.seed)
    if args.format == "json":
        payload = {
            "command": "sweep",
            "rows": [
                {
                    "theta": _round_sig(r.theta),
                    "theta_dms": optics.format_dms(math.degrees(r.theta)),
                    "p_theory": _round_sig(r.p_theory),
                    "p_sampled": _round_sig(r.p_sampled),
                    "std_error": _round_sig(r.std_error),
                }
                for r in rows
            ],
            "seed": args.seed,
            "total": total,
        }
        return _json_dump(payload)
    lines = ["theta_rad,theta_dms,p_theory,p_sampled,std_error"]
    for r in rows:
        lines.append(
            f"{_fmt(r.theta)},{optics.format_dms(math.degrees(r.theta))},"
            f"{_fmt(r.p_theory)},{_fmt(r.p_sampled)},{_fmt(r.std_error)}"
        )
    return "\n".join(lines) + "\n"


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
            p.add_argument("--theta", type=parse_angle,
                           help="angle in radians, or degrees with a ° / deg suffix")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", help="write to a file instead of stdout")
        return p

    def sampling(p, counts, help):
        p.add_argument("--counts", default=counts, help=help)
        p.add_argument("--imperfections", default="none",
                       help="imperfection config JSON file, or 'none'")
        p.add_argument("--seed", type=int, default=0)

    for name, help, counts, counts_help in (
        ("run", "simulate a measurement scenario", "ideal", "'ideal' (default) or a photon count"),
        ("sample", "like run, but always sampled", "40000", "photon count (default 40000)"),
    ):
        p = command(name, _cmd_run, help)
        p.add_argument("--input", required=True,
                       help="named state (psi3-1, psibar4-2, psi+, H, ...) or 'c1:c2'")
        sampling(p, counts, counts_help)

    p = command("extract", _cmd_extract, "extract the implemented POVM")
    p.add_argument("--tolerance", type=_tolerance, default=DEFAULT.completeness)

    command("compile", _cmd_compile, "compile to an optical netlist")

    p = command("sweep", _cmd_sweep, "discrimination probability vs angle", schedule=False)
    p.add_argument("--thetas", help="comma-separated angles (default 10-point grid)")
    sampling(p, "40000", "photon count per point (default 40000)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2
    _emit(text, args.output)
    return 0


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
