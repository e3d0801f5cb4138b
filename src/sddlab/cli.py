"""Command-line front end: simulate, equilibria, check-hypotheses, certify.

All file output lands inside the configured output directory; CSV headers
are single lines and every float is serialized with 17 significant digits
so values round-trip exactly.  With a fixed config and seed, outputs are
byte-identical across runs.  ``simulate`` hands its trajectory.csv rows, as
float64 blocks, to a writer process that formats them on another core.

Exit codes: 0 success, 1 usage or config error, 2 runtime abort.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import DEFAULTS_DOC, ConfigError, RunConfig, load_config
from .equilibria import Equilibrium, equilibrium_norm, find_equilibria
from .lyapunov import certify_local_stability
from .model import HypothesisReport, check_all, default_sample_box
from .solver import InitialData, RunStream

__all__ = ["main"]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _fmt(x: float) -> str:
    """17 significant digits: enough for exact float64 round-trips."""
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _prepare_out_dir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    probe = path / ".write_probe"
    probe.write_text("")
    probe.unlink()
    return path


def _interior_equilibria(cfg: RunConfig) -> list[Equilibrium]:
    return [e for e in find_equilibria(cfg.params, cfg.incidence) if e.kind == "interior"]


def _resolve_initial(cfg: RunConfig) -> InitialData:
    """Fill in the equilibrium reference and absolute perturbation size."""
    initial = cfg.initial
    if initial.preset != "equilibrium_perturbation":
        return initial
    interior = _interior_equilibria(cfg)
    if cfg.eq_index >= len(interior):
        raise ConfigError(
            [
                f"[initial] eq_index: requested interior equilibrium {cfg.eq_index} "
                f"but only {len(interior)} detected"
            ]
        )
    eq = interior[cfg.eq_index]
    return replace(initial, equilibrium=eq, epsilon=cfg.epsilon_rel * equilibrium_norm(eq))


def _probe_indices(nx: int, count: int) -> list[int]:
    # a sorted set, not np.unique, whose masked-array check imports numpy.ma
    return sorted(set(np.round(np.linspace(0, nx - 1, min(count, nx))).astype(int).tolist()))


def cmd_equilibria(cfg: RunConfig, out: Path) -> int:
    eqs = find_equilibria(cfg.params, cfg.incidence)
    rows = [
        [e.kind, _fmt(e.T_hat), _fmt(e.T_star_hat), _fmt(e.V_hat), _fmt(e.residual)]
        for e in eqs
    ]
    _write_csv(out / "equilibria.csv", ["kind", "T_hat", "T_star_hat", "V_hat", "residual"], rows)
    interior = sum(1 for e in eqs if e.kind == "interior")
    print(f"wrote {out / 'equilibria.csv'}: 1 trivial, {interior} interior")
    return EXIT_OK


@contextlib.contextmanager
def _trajectory_rows(path: Path, header: list[str]):
    """Open ``path`` at its header line; yield ``write(block)`` for (n, len(header)) float64 rows, which a
    ``_trajectory_writer.py`` process formats onto it from a pipe (reaped on leaving, its failure an error),
    or ``write_rows`` in-process where ``os.posix_spawn`` or ``sys.executable`` is missing."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        if not (hasattr(os, "posix_spawn") and sys.executable):
            from ._trajectory_writer import write_rows

            yield lambda block: write_rows(fh, block)
            return
        fh.flush()
        read, write = os.pipe()  # both ends close on exec: the writer holds only what it is given
        pipe = open(write, "wb")
        try:
            writer = str(Path(__file__).with_name("_trajectory_writer.py"))
            pid = os.posix_spawn(sys.executable, [sys.executable, "-S", "-I", writer, str(len(header))], os.environ,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, read, 0), (os.POSIX_SPAWN_DUP2, fh.fileno(), 1)])
        except BaseException:
            pipe.close()
            raise
        finally:
            os.close(read)
    try:
        with pipe:
            yield pipe.write
    finally:  # the pipe is closed: the writer reads to its end and exits
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise RuntimeError(f"trajectory writer exited with status {status}")


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    t_start = time.perf_counter()
    probes = _probe_indices(cfg.grid.nx, cfg.output.probe_nodes)
    header = ["t", *(f"{c}_n{i}" for i in probes for c in ("T", "Tstar", "V")), "eta", "eta_rate", "box_violation"]

    initial = _resolve_initial(cfg)
    stream = RunStream(initial, cfg.params, cfg.incidence, cfg.delay, cfg.solver, cfg.grid, cfg.schedule)
    samples = lower = upper = 0
    t_prev = eta_prev = None
    eta_min, eta_max, max_rate = math.inf, -math.inf, 0.0
    comp_min = np.full(3, math.inf)
    columns = (np.array(probes)[:, None] + cfg.grid.nx * np.arange(3)).ravel()  # T, T_star, V per probe, in a flat row
    block = np.empty((max(1, 65536 // (8 * len(header))), len(header)))  # the rows that fill a 64 KiB pipe buffer
    with _trajectory_rows(out / "trajectory.csv", header) as write:
        for s in stream:
            rate = 0.0 if t_prev is None else (s.eta - eta_prev) / (s.t - t_prev)
            row = block[samples % len(block)]
            row[0], row[-3], row[-2], row[-1] = s.t, s.eta, rate, s.lower + s.upper > 0
            s.row.take(columns, out=row[1:-3], mode="clip")  # in range: clip only skips the bounds buffer
            samples, lower, upper = samples + 1, lower + s.lower, upper + s.upper
            if samples % len(block) == 0:
                write(block)
            t_prev, eta_prev = s.t, s.eta
            eta_min, eta_max, max_rate = min(eta_min, s.eta), max(eta_max, s.eta), max(max_rate, abs(rate))
            np.minimum(comp_min, s.extremes[0], out=comp_min)
            last = s.row
        write(block[: samples % len(block)])

    wall = time.perf_counter() - t_start
    summary = {
        "event": "run_summary",
        "samples": samples,
        "final_sup_norm": {
            "T": float(np.max(np.abs(last[0]))),
            "T_star": float(np.max(np.abs(last[1]))),
            "V": float(np.max(np.abs(last[2]))),
        },
        "lower_violations": lower,
        "upper_violations": upper if stream.bounds is not None else None,
        "box_bounds": list(stream.bounds) if stream.bounds is not None else None,
        "clip_events": stream.clip_events,
        "compat_residual": stream.compat_residual,
        "probe_nodes": probes,
        "aborted": stream.aborted,
        "eta_min": float(eta_min),
        "eta_max": float(eta_max),
        "max_abs_eta_rate": float(max_rate),
        "min_component": {"T": float(comp_min[0]), "T_star": float(comp_min[1]), "V": float(comp_min[2])},
        "wall_time_s": wall,
    }
    lines = [json.dumps(summary, sort_keys=True)]
    if stream.aborted:
        lines.append(json.dumps({"event": "abort", "t": stream.abort_time}, sort_keys=True))
    (out / "summary.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    if stream.aborted:
        print(f"solver abort at t={stream.abort_time:.6g}; partial trajectory flushed")
        return EXIT_RUNTIME
    print(f"wrote {out / 'trajectory.csv'}: {samples} samples in {wall:.2f}s")
    return EXIT_OK


def _hypothesis_report(cfg: RunConfig) -> tuple[HypothesisReport, list[Equilibrium]]:
    """The hypothesis checks at the first interior equilibrium's V_hat, and
    the interior equilibria found for it."""
    interior = _interior_equilibria(cfg)
    v_hat = interior[0].V_hat if interior else None
    (t_lo, t_hi), (v_lo, v_hi) = default_sample_box(cfg.params, cfg.incidence)
    if cfg.output.hyp_box_t is not None:
        t_hi = cfg.output.hyp_box_t
    if cfg.output.hyp_box_v is not None:
        v_hi = cfg.output.hyp_box_v
    box = ((t_lo, t_hi), (v_lo, v_hi))
    return check_all(cfg.incidence, box, n=cfg.output.hyp_density, v_hat=v_hat), interior


def _print_report(report: HypothesisReport) -> None:
    (t0, t1), (v0, v1) = report.sample_box
    print(f"sample box [{t0:g}, {t1:g}] x [{v0:g}, {v1:g}], {report.sample_density} points per axis")
    for name, verdict in (
        ("hf1", report.hf1),
        ("hf1+", report.hf1_plus),
        ("hf3", report.hf3),
        ("hf4", report.hf4),
    ):
        line = f"{name}: {verdict.status}"
        if verdict.note:
            line += f" ({verdict.note})"
        if verdict.witness is not None:
            line += f" witness (T, V) = ({verdict.witness[0]:.6g}, {verdict.witness[1]:.6g})"
        print(line)


def cmd_check_hypotheses(cfg: RunConfig) -> int:
    report, interior = _hypothesis_report(cfg)
    if not interior:
        print("no interior equilibrium detected; hf3/hf4 not applicable")
    _print_report(report)
    return EXIT_OK


def cmd_certify(cfg: RunConfig, out: Path) -> int:
    if cfg.schedule:  # certify_local_stability takes no schedule
        jumps = ", ".join(f"{j.name} -> {j.value:g} at t={j.t:g}" for j in cfg.schedule)
        log.warning("certify ignores [schedule] (%s): it certifies at the initial parameters", jumps)
    report, interior = _hypothesis_report(cfg)
    if not report.all_hold:
        failing = [
            name
            for name, v in (("hf1", report.hf1), ("hf1+", report.hf1_plus), ("hf3", report.hf3), ("hf4", report.hf4))
            if not v.holds
        ]
        print(f"warning: outside theorem hypotheses ({', '.join(failing)}); certifying anyway")
        _print_report(report)

    header = ["equilibrium", "eps", "decrease_fraction", "max_eta_rate", "S_over_D", "verdict"]
    rows: list[list[str]] = []
    aborts: list[str] = []
    for idx, eq in enumerate(interior):
        if eq.degenerate:
            print(f"equilibrium {idx} is a degenerate boundary root (T_hat = 0); skipped")
            continue
        eps_list = [frac * equilibrium_norm(eq) for frac in cfg.output.eps_fractions]
        verdicts = certify_local_stability(
            eq,
            eps_list,
            cfg.params,
            cfg.incidence,
            cfg.delay,
            cfg.solver,
            cfg.grid,
            directions=cfg.output.directions,
            seed=cfg.output.seed,
            tol_decrease=cfg.output.tol_decrease,
            stride=cfg.output.monitor_stride,
            warmup=cfg.output.warmup,
        )
        for v in verdicts:
            rows.append(
                [
                    str(idx),
                    _fmt(v.epsilon),
                    _fmt(v.decrease_fraction),
                    _fmt(v.max_eta_rate),
                    _fmt(v.s_over_d),
                    v.verdict,
                ]
            )
            print(
                f"equilibrium {idx} eps={v.epsilon:.6g}: {v.verdict} "
                f"(decrease fraction {v.decrease_fraction:.4f}, max |deta/dt| {v.max_eta_rate:.3g}, "
                f"S/D {v.s_over_d:.3g}, distance {v.initial_distance:.4g} -> {v.terminal_distance:.4g})"
            )
            if v.abort is not None:
                aborts.append(f"equilibrium {idx} eps={v.epsilon:.6g} direction {v.abort[0]} at t={v.abort[1]:.6g}")
    _write_csv(out / "certify.csv", header, rows)
    if not rows:
        print("no certifiable interior equilibrium; certify.csv written with header only")
    for line in aborts:
        print(f"solver abort: {line}; certify.csv written")
    return EXIT_RUNTIME if aborts else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sddlab",
        description="Reaction-diffusion virus dynamics with state-dependent delay",
        epilog="Config defaults:\n" + DEFAULTS_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed (u64)")
    parser.add_argument("--log-level", choices=tuple(_LOG_LEVELS), default="warn")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_out in (
        ("simulate", True),
        ("equilibria", True),
        ("check-hypotheses", False),
        ("certify", True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if needs_out:
            p.add_argument("--out", default=None, help="output directory (default: [output] dir)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    logging.basicConfig(level=_LOG_LEVELS[args.log_level], format="%(levelname)s %(name)s: %(message)s")

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.seed is not None:
        if args.seed < 0 or args.seed >= 2**64:
            print("config error: --seed must fit an unsigned 64-bit integer", file=sys.stderr)
            return EXIT_USAGE
        cfg = cfg._replace(output=cfg.output._replace(seed=args.seed))

    out_path: Path | None = None
    if args.command != "check-hypotheses":
        out_dir = args.out if args.out is not None else cfg.output.dir
        try:
            out_path = _prepare_out_dir(out_dir)
        except OSError as exc:
            print(f"output error: cannot write to {out_dir}: {exc}", file=sys.stderr)
            return EXIT_USAGE

    try:
        if args.command == "equilibria":
            return cmd_equilibria(cfg, out_path)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_path)
        if args.command == "check-hypotheses":
            return cmd_check_hypotheses(cfg)
        return cmd_certify(cfg, out_path)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failure: report, exit 2, never traceback
        log.debug("runtime failure", exc_info=True)
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
